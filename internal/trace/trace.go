// Package trace generates the synthetic multithreaded memory-access streams
// that stand in for the paper's 21 benchmarks (Table 2). The real programs
// are not reproducible here; what the protocol under study observes is the
// *access stream* — the mix of instruction, private, shared read-only and
// shared read-write references, their working-set sizes relative to the
// cache hierarchy, their reuse run-lengths at the LLC, and their
// write-sharing structure (including migratory hand-off and page-level false
// sharing). Each benchmark profile parameterizes exactly those properties,
// tuned to the per-benchmark behaviour the paper describes (see profile.go).
//
// Streams are deterministic: the same (profile, config, seed) always yields
// the same per-core sequence.
package trace

import (
	"math/rand/v2"

	"lard/internal/config"
	"lard/internal/mem"
)

// Op is one element of a per-core stream: either a memory reference or a
// barrier (all cores synchronize; the simulator charges the wait to the
// Synchronization component).
type Op struct {
	// Addr is the referenced byte address (line-aligned).
	Addr mem.Addr
	// Gap is the number of compute cycles preceding this operation.
	Gap uint16
	// Type is the reference type; meaningless for barriers.
	Type mem.AccessType
	// Class is the generator's ground-truth data class.
	Class mem.DataClass
	// Barrier marks a synchronization point.
	Barrier bool
}

// Region bases, in line addresses. Regions are disjoint by construction:
// per-core private regions are spaced privStride lines apart.
const (
	instrBase  mem.LineAddr = 0x0100_0000
	privBase   mem.LineAddr = 0x1000_0000
	privStride mem.LineAddr = 0x0100_0000 // 16M lines (1 GB) per core
	fsBase     mem.LineAddr = 0x8000_0000
	roBase     mem.LineAddr = 0x9000_0000
	rwBase     mem.LineAddr = 0xA000_0000
)

// schedClasses is the number of scheduling slots of the deficit
// interleaver: the four data classes plus the L1-resident hot slot.
const schedClasses = mem.NumDataClasses + 1

// hotSlot is the scheduling slot of L1-resident private accesses.
const hotSlot = mem.NumDataClasses

// hotLines is the per-core hot working set (fits comfortably in the L1-D).
const hotLines = 48

// classWeights is the scheduling weight vector of the deficit interleaver.
type classWeights [schedClasses]float64

// Stream produces one core's operation sequence.
type Stream struct {
	core  mem.CoreID
	cores int
	p     Profile
	rng   *rand.Rand

	emitted, total int
	perPhase       int // ops between barriers
	sincePhase     int
	barriersLeft   int

	weights classWeights
	deficit classWeights

	instrPos, privPos, roPos, rwPos, rwPass, rwStart, hotPos int

	// Migratory cursor state (sharedRW with Migratory).
	migPass, migSweep, migIdx int
}

// Workload is the full set of per-core streams for one benchmark run.
type Workload struct {
	// Name is the benchmark name.
	Name string
	// Streams holds one stream per core.
	Streams []*Stream
}

// Generate builds the workload for profile p on the machine described by
// cfg. opsScale scales the per-core operation count (1.0 = the profile's
// nominal length); working-set sizes scale with the machine's cache sizes so
// the pressure relationships the profile encodes survive scaled-down test
// configurations.
func Generate(p Profile, cfg *config.Config, opsScale float64, seed uint64) *Workload {
	sp := p.scaled(cfg)
	ops := int(float64(sp.Ops) * opsScale)
	if ops < 1 {
		ops = 1
	}
	w := &Workload{Name: p.Name, Streams: make([]*Stream, cfg.Cores)}
	for c := 0; c < cfg.Cores; c++ {
		s := &Stream{
			core:  mem.CoreID(c),
			cores: cfg.Cores,
			p:     sp,
			rng:   rand.New(rand.NewPCG(seed, uint64(c)*0x9E3779B97F4A7C15+1)),
			total: ops,
		}
		// The profile's class mix describes the LLC-relevant traffic; the
		// hot fraction models the L1-resident accesses of real programs and
		// scales the rest down.
		cold := 1 - sp.FracHot
		s.weights[hotSlot] = sp.FracHot
		s.weights[mem.ClassInstruction] = cold * sp.FracInstr
		s.weights[mem.ClassSharedRO] = cold * sp.FracSharedRO
		s.weights[mem.ClassSharedRW] = cold * sp.FracSharedRW
		priv := 1 - sp.FracInstr - sp.FracSharedRO - sp.FracSharedRW
		if priv < 0 {
			priv = 0
		}
		s.weights[mem.ClassPrivate] = cold * priv
		s.barriersLeft = sp.Barriers
		if sp.Barriers > 0 {
			s.perPhase = ops / (sp.Barriers + 1)
			if s.perPhase < 1 {
				s.perPhase = 1
			}
		}
		// Desynchronize the cores' sweeps: each core starts at a different
		// offset of the shared regions, as threads of a real program would.
		// The extra +c skews the offsets off multiples of the core count so
		// concurrently-issued accesses spread over all home slices instead
		// of converging on one.
		if sp.ROLines > 0 {
			s.roPos = ((c*sp.ROLines)/cfg.Cores + c) % sp.ROLines
		}
		if sp.RWLines > 0 && !sp.Migratory {
			s.rwPos = ((c*sp.RWLines)/cfg.Cores + c) % sp.RWLines
			s.rwStart = s.rwPos
		}
		if sp.InstrLines > 0 {
			s.instrPos = ((c*sp.InstrLines)/(cfg.Cores*4) + c) % sp.InstrLines
		}
		w.Streams[c] = s
	}
	return w
}

// Key identifies a synthesized workload by everything Generate reads: the
// profile, the machine's core count and LLC slice size (working sets scale
// with it), the operation scale and the seed. Equal keys synthesize equal
// streams.
type Key struct {
	Profile       Profile
	Cores         int
	LLCSliceLines int
	OpsScale      float64
	Seed          uint64
}

// KeyOf returns the key of Generate(p, cfg, opsScale, seed).
func KeyOf(p Profile, cfg *config.Config, opsScale float64, seed uint64) Key {
	return Key{Profile: p, Cores: cfg.Cores, LLCSliceLines: cfg.LLCSliceLines, OpsScale: opsScale, Seed: seed}
}

// Tape is a workload synthesized once, ahead of the simulations that run
// it: every core's whole operation sequence, barriers included. Several
// simulations of one workload — the scheme columns of a campaign row — can
// each replay the tape instead of re-synthesizing the streams. A tape is
// never written after Record returns, so concurrent replays may share it.
type Tape struct {
	// Key identifies the recorded workload.
	Key Key
	// streams holds core c's recorded sequence at streams[c].
	streams [][]Op
	// MemOps is the number of memory operations over all cores (barriers
	// excluded), what the streams' Remaining counts summed to.
	MemOps uint64
}

// Record synthesizes the workload Generate(p, cfg, opsScale, seed)
// describes onto a tape.
func Record(p Profile, cfg *config.Config, opsScale float64, seed uint64) *Tape {
	w := Generate(p, cfg, opsScale, seed)
	t := &Tape{Key: KeyOf(p, cfg, opsScale, seed), streams: make([][]Op, len(w.Streams))}
	for c, s := range w.Streams {
		t.MemOps += uint64(s.Remaining())
		// A stream emits its Remaining memory operations and at most
		// barriersLeft barriers, so one allocation holds it all.
		ops := make([]Op, s.Remaining()+s.barriersLeft)
		t.streams[c] = ops[:s.Fill(ops)]
	}
	return t
}

// Replay returns a cursor over core c's recorded sequence. Each cursor
// keeps its own position, so replays of a shared tape are independent.
func (t *Tape) Replay(c int) *Replay { return &Replay{ops: t.streams[c]} }

// Replay reads one core's sequence back from a Tape.
type Replay struct {
	ops []Op // the operations not yet replayed
}

// Fill copies the next recorded operations into dst and returns how many
// it copied; 0 means the sequence is exhausted. It is the tape counterpart
// of Stream.Fill and yields exactly what the live stream's Fill calls
// would.
func (r *Replay) Fill(dst []Op) int {
	n := copy(dst, r.ops)
	r.ops = r.ops[n:]
	return n
}

// Remaining returns the number of memory operations the stream will still
// produce (barriers excluded).
func (s *Stream) Remaining() int { return s.total - s.emitted }

// Fill writes the stream's next operations into dst and returns how many it
// produced; 0 means the stream is exhausted. Semantics are exactly those of
// len(dst) successive Next calls — Fill exists so a consumer can refill a
// reusable chunk buffer and iterate a flat []Op instead of paying a method
// call per access on its hot loop.
func (s *Stream) Fill(dst []Op) int {
	n := 0
	for n < len(dst) {
		op, ok := s.Next()
		if !ok {
			break
		}
		dst[n] = op
		n++
	}
	return n
}

// Core returns the stream's core.
func (s *Stream) Core() mem.CoreID { return s.core }

// Next returns the next operation. ok is false when the stream is exhausted.
func (s *Stream) Next() (op Op, ok bool) {
	if s.emitted >= s.total {
		return Op{}, false
	}
	if s.barriersLeft > 0 && s.sincePhase >= s.perPhase {
		s.sincePhase = 0
		s.barriersLeft--
		return Op{Barrier: true}, true
	}
	s.emitted++
	s.sincePhase++

	slot := s.pickClass()
	var op2 Op
	if slot == hotSlot {
		op2 = s.emitHot()
	} else {
		op2 = s.emit(mem.DataClass(slot))
	}
	op = op2
	if s.p.Gap > 0 {
		op.Gap = uint16(s.rng.IntN(2*s.p.Gap + 1))
	}
	return op, true
}

// pickClass runs the deterministic deficit interleaver: the slot furthest
// behind its target fraction goes next, so the realized mix matches the
// profile exactly even for short streams. The returned value is either a
// data class or hotSlot.
func (s *Stream) pickClass() int {
	best, bestV := 0, -1.0
	for i := range s.deficit {
		s.deficit[i] += s.weights[i]
		if s.deficit[i] > bestV {
			best, bestV = i, s.deficit[i]
		}
	}
	s.deficit[best]--
	return best
}

// emitHot produces an access to the per-core L1-resident hot set: the
// register-spill/stack traffic of a real thread that the L1 filters out
// before the LLC ever sees it. It is private data at an address range next
// to the core's private region.
func (s *Stream) emitHot() Op {
	line := privBase + mem.LineAddr(s.core)*privStride + privStride/2 + mem.LineAddr(s.hotPos)
	s.hotPos = (s.hotPos + 1) % hotLines
	typ := mem.Load
	if s.rng.Float64() < 0.3 {
		typ = mem.Store
	}
	return Op{Addr: mem.AddrOfLine(line), Type: typ, Class: mem.ClassPrivate}
}

// emit produces the next reference of the given class.
func (s *Stream) emit(class mem.DataClass) Op {
	switch class {
	case mem.ClassInstruction:
		line := instrBase + mem.LineAddr(s.instrPos)
		s.instrPos = (s.instrPos + 1) % maxInt(s.p.InstrLines, 1)
		return Op{Addr: mem.AddrOfLine(line), Type: mem.IFetch, Class: class}

	case mem.ClassPrivate:
		n := maxInt(s.p.PrivLines, 1)
		idx := s.privPos
		s.privPos = (s.privPos + 1) % n
		var line mem.LineAddr
		if s.p.FalseShare {
			// Page-level false sharing (BLACKSCHOLES, §4.1): line i of core
			// c lives in page i, so every page holds truly-private lines of
			// up to 64 different cores. The slot rotates with the page index
			// so the interleaved home of a core's line is usually remote
			// (a slot equal to the core id would alias home == owner).
			slot := (int(s.core) + idx) % mem.LinesPerPage
			line = fsBase + mem.LineAddr(idx)*mem.LinesPerPage + mem.LineAddr(slot)
		} else {
			line = privBase + mem.LineAddr(s.core)*privStride + mem.LineAddr(idx)
		}
		typ := mem.Load
		if s.rng.Float64() < s.p.PrivWriteFrac {
			typ = mem.Store
		}
		return Op{Addr: mem.AddrOfLine(line), Type: typ, Class: class}

	case mem.ClassSharedRO:
		n := maxInt(s.p.ROLines, 1)
		line := roBase + mem.LineAddr(s.roPos%n)
		s.roPos = (s.roPos + 1) % n
		return Op{Addr: mem.AddrOfLine(line), Type: mem.Load, Class: class}

	default: // ClassSharedRW
		if s.p.Migratory {
			return s.emitMigratory()
		}
		n := maxInt(s.p.RWLines, 1)
		idx := s.rwPos % n
		line := rwBase + mem.LineAddr(idx)
		s.rwPos++
		if s.rwPos%n == 0 {
			s.rwPass++
		}
		typ := mem.Load
		if s.rng.Float64() < s.p.RWWriteFrac {
			typ = mem.Store
		}
		// Owner-phase writes: line idx's owning core updates it on its first
		// visit (so every line is written early, as initialization would)
		// and then once every RWOwnerPeriod passes, as a program phase
		// would. Every other core then observes an LLC run-length of about
		// RWOwnerPeriod on the line, independent of the core count.
		if s.p.RWOwnerPeriod > 0 && idx%s.cores == int(s.core) &&
			(s.rwPass%s.p.RWOwnerPeriod == 0 || s.rwPos-1 < s.rwStart+n) {
			typ = mem.Store
		}
		return Op{Addr: mem.AddrOfLine(line), Type: typ, Class: mem.ClassSharedRW}
	}
}

// emitMigratory produces the migratory hand-off pattern of LU-NC: the shared
// region is partitioned into per-core blocks larger than the L1, ownership
// of each block rotates across cores every pass, and the owner sweeps its
// block MigSweeps times (the final sweep writing), giving each line a
// run-length of MigSweeps at the LLC before the next owner's conflicting
// access. Replicating such lines requires an Exclusive/Modified-state
// replica (§2.3.1).
func (s *Stream) emitMigratory() Op {
	block := maxInt(s.p.RWLines/s.cores, 1)
	sweeps := maxInt(s.p.MigSweeps, 1)
	owned := (int(s.core) + s.migPass) % s.cores
	line := rwBase + mem.LineAddr(owned*block+s.migIdx)

	typ := mem.Load
	if s.migSweep == sweeps-1 {
		typ = mem.Store
	}
	s.migIdx++
	if s.migIdx >= block {
		s.migIdx = 0
		s.migSweep++
		if s.migSweep >= sweeps {
			s.migSweep = 0
			s.migPass++
		}
	}
	return Op{Addr: mem.AddrOfLine(line), Type: typ, Class: mem.ClassSharedRW}
}

func maxInt(a, b int) int {
	if a > b {
		return a
	}
	return b
}

// CoreLine returns the address of the stream core's i-th private line
// (diagnostics/tests).
func (s *Stream) CoreLine(i int) mem.Addr {
	if s.p.FalseShare {
		slot := (int(s.core) + i) % mem.LinesPerPage
		return mem.AddrOfLine(fsBase + mem.LineAddr(i)*mem.LinesPerPage + mem.LineAddr(slot))
	}
	return mem.AddrOfLine(privBase + mem.LineAddr(s.core)*privStride + mem.LineAddr(i))
}
