package main

import (
	"fmt"
	"time"

	"lard/internal/cache"
	"lard/internal/coherence"
	"lard/internal/config"
	"lard/internal/directory"
	"lard/internal/dram"
	"lard/internal/energy"
	"lard/internal/mem"
	"lard/internal/network"
	"lard/internal/trace"
)

// probeOpsScale sizes the traces the probes draw their inputs from, and
// probeMinTime is how long each probe repeats its pass over them.
const (
	probeOpsScale = 0.05
	probeMinTime  = 150 * time.Millisecond
)

// probeAccess is one pre-decoded access of the workload's own traces.
type probeAccess struct {
	core mem.CoreID
	op   coherence.Op
	gap  mem.Cycles
}

// probeMeta mirrors the field types of the coherence engine's LLC line
// metadata, so the probed LLC arrays have the run's host footprint.
type probeMeta struct {
	home         bool
	dir          *directory.Entry
	replicaReuse uint8
	version      uint64
	everWritten  bool
	everShared   bool
	firstCore    mem.CoreID
	firstSeen    bool
	class        mem.DataClass
}

// probeAccesses decodes the workload's traces on its machine into one access
// list, core by core, the way internal/coherence's BenchmarkCoherenceAccess
// builds its list.
func probeAccesses(cfg *config.Config, profs []trace.Profile, seed uint64) ([]probeAccess, error) {
	var accs []probeAccess
	for _, p := range profs {
		w := trace.Generate(p, cfg, probeOpsScale, seed)
		for c, s := range w.Streams {
			for {
				op, ok := s.Next()
				if !ok {
					break
				}
				if op.Barrier {
					continue
				}
				accs = append(accs, probeAccess{mem.CoreID(c), coherence.Op{
					Type: op.Type, Line: mem.LineOf(op.Addr), Class: op.Class,
				}, mem.Cycles(op.Gap)})
			}
		}
	}
	if len(accs) == 0 {
		return nil, fmt.Errorf("probe: empty access list")
	}
	return accs, nil
}

// repeat runs pass until probeMinTime has elapsed (at least once) and
// returns the host nanoseconds per operation, given ops operations per pass.
func repeat(ops int, pass func()) float64 {
	start := time.Now()
	n := 0
	for n == 0 || time.Since(start) < probeMinTime {
		pass()
		n++
	}
	return float64(time.Since(start).Nanoseconds()) / float64(n*ops)
}

// sink keeps probe results observable so no loop is optimized away.
var sink uint64

// runProbes times the public entry points of each simulator layer on the
// workload's machine and traces, recording one root span per probe.
func runProbes(rec *recorder, cfg *config.Config, benches []string, seed uint64) (map[string]float64, error) {
	out := map[string]float64{}
	probe := func(name, call string, f func()) {
		root := rec.root("probe:" + name)
		sp := rec.child(root, call)
		f()
		sp.done()
		root.done()
	}
	profs := make([]trace.Profile, len(benches))
	for i, b := range benches {
		p, err := trace.ProfileByName(b)
		if err != nil {
			return nil, err
		}
		profs[i] = p
	}

	probe("trace", "trace.Generate+Stream.Fill", func() {
		buf := make([]trace.Op, 256)
		ops, passes := 0, 0
		start := time.Now()
		for passes == 0 || time.Since(start) < probeMinTime {
			for _, p := range profs {
				for _, s := range trace.Generate(p, cfg, probeOpsScale, seed).Streams {
					for n := s.Fill(buf); n > 0; n = s.Fill(buf) {
						ops += n
					}
				}
			}
			passes++
		}
		out["trace.ns_per_op"] = float64(time.Since(start).Nanoseconds()) / float64(ops)
	})

	accs, err := probeAccesses(cfg, profs, seed)
	if err != nil {
		return nil, err
	}
	n := len(accs)
	cores := mem.CoreID(cfg.Cores)
	home := func(a probeAccess) mem.CoreID { return mem.CoreID(a.op.Line % mem.LineAddr(cores)) }

	probe("coherence", "coherence.Engine.Access", func() {
		e := coherence.New(cfg, coherence.Options{Scheme: coherence.LocalityAware, Seed: seed})
		t := mem.Cycles(0)
		for _, a := range accs { // warm-up pass, as BenchmarkCoherenceAccess does
			t = e.Access(a.core, t, a.op).Done
		}
		out["coherence.access_ns"] = repeat(n, func() {
			for _, a := range accs {
				t = e.Access(a.core, t, a.op).Done
			}
		})
		sink += uint64(t)
	})

	probe("cache", "cache.Cache.Lookup+Insert", func() {
		l1 := make([]*cache.Cache[struct{}], cfg.Cores)
		llc := make([]*cache.Cache[probeMeta], cfg.Cores)
		for i := range l1 {
			l1[i] = cache.New[struct{}](cfg.L1DLines, cfg.L1DWays)
			llc[i] = cache.New[probeMeta](cfg.LLCSliceLines, cfg.LLCWays)
		}
		l1LRU, llcLRU := cache.LRU[struct{}](), cache.LRU[probeMeta]()
		lookupL1 := func() {
			for _, a := range accs {
				if l := l1[a.core].Lookup(a.op.Line); l != nil {
					sink++
				}
			}
		}
		lookupLLC := func() {
			for _, a := range accs {
				if l := llc[home(a)].Lookup(a.op.Line); l != nil {
					sink++
				}
			}
		}
		inserts := 0
		start := time.Now()
		for _, a := range accs {
			if l1[a.core].Lookup(a.op.Line) == nil {
				l1[a.core].Insert(a.op.Line, mem.Shared, l1LRU)
				inserts++
			}
			if c := llc[home(a)]; c.Lookup(a.op.Line) == nil {
				c.Insert(a.op.Line, mem.Shared, llcLRU)
				inserts++
			}
		}
		fill := time.Since(start)
		out["cache.l1_lookup_ns"] = repeat(n, lookupL1)
		out["cache.llc_lookup_ns"] = repeat(n, lookupLLC)
		lookups := float64(n) * (out["cache.l1_lookup_ns"] + out["cache.llc_lookup_ns"])
		out["cache.insert_ns"] = max(float64(fill.Nanoseconds())-lookups, 0) / float64(max(inserts, 1))
	})

	probe("directory", "directory.SharerSet", func() {
		sets := make([]directory.SharerSet, 4096)
		for i := range sets {
			sets[i] = directory.NewSharerSet(cfg.AckwisePointers)
		}
		out["directory.sharer_op_ns"] = repeat(n, func() {
			for _, a := range accs {
				s := &sets[a.op.Line%mem.LineAddr(len(sets))]
				switch {
				case a.op.Type.IsWrite():
					s.ForEach(func(c mem.CoreID) { sink += uint64(c) })
					s.Clear()
					s.Add(a.core)
				case !s.Has(a.core):
					s.Add(a.core)
				}
			}
		})
	})

	ep := energy.DefaultParams()
	probe("network", "network.Mesh.Send", func() {
		m := network.New(cfg.MeshW, cfg.MeshH, cfg.HopLatency, &energy.Meter{}, ep.RouterFlit, ep.LinkFlit)
		t := mem.Cycles(0)
		out["network.send_ns"] = repeat(n, func() {
			for _, a := range accs {
				t += a.gap + 1
				flits := cfg.HeaderFlits
				if a.op.Type.IsWrite() {
					flits += cfg.DataFlits
				}
				sink += uint64(m.Send(a.core, home(a), flits, t))
			}
		})
	})

	probe("dram", "dram.Subsystem.Access", func() {
		d := dram.New(cfg.DRAMControllers, cfg.Cores, cfg.DRAMLatency, cfg.DRAMCyclesPerLine, &energy.Meter{}, ep.DRAMAccess)
		t := mem.Cycles(0)
		out["dram.access_ns"] = repeat(n, func() {
			for _, a := range accs {
				t += a.gap + 1
				sink += uint64(d.Access(d.ControllerFor(a.op.Line), t))
			}
		})
	})
	return out, nil
}
