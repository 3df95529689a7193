package main

import (
	"errors"
	"fmt"
	"runtime"
	"sync"
	"time"

	"lard"
	"lard/internal/harness"
	"lard/internal/resultstore"
)

// fig7Cold runs cold Figure-7 campaigns through harness.RunMatrix into
// empty disk stores, then re-runs each against its reopened store and looks
// every member up through the facade. Each set-up opens an empty store and
// runs every benchmark once under RT-3 with the invariant checker on.
//
// The campaigns run one worker fewer than the host has CPUs (at least one),
// leaving a CPU to the Go runtime and to the host's other load: with a
// worker on every CPU of a small shared host, any other busy thread slows
// the campaign, and the figures measured that load more than the program.
func fig7Cold(r *run) error {
	par := max(1, runtime.NumCPU()-1)
	base := harness.Base{Cores: 16, OpsScale: fig7Scale, Parallelism: par, Benchmarks: fig67Benches}
	variants := harness.StandardVariants()
	var setupS []float64
	for i := 0; i < setups; i++ {
		start := time.Now()
		if i == 0 {
			start = processStart
		}
		dir, err := r.freshDir("store")
		if err != nil {
			return err
		}
		st, err := resultstore.Open(resultstore.BackendConfig{Dir: dir})
		if err != nil {
			return err
		}
		for _, bench := range fig67Benches {
			r.checkInvariants(bench, lard.LocalityAware(3), 16)
		}
		setupS = append(setupS, time.Since(start).Seconds())
		if err := st.Close(); err != nil {
			return err
		}
	}
	r.e2e["setup_s"] = median(setupS)

	reps := r.reps(4)
	timer := newStoreTimer()
	var (
		walls, tracedWalls, runMS, hitMS, cachedMS []float64
		rssPeaks                                   []float64
		opsTotal, wallTotal, cpuTotal, cpuWall     float64
		tracedOps                                  float64
		memHits, diskHits                          uint64
		refDigest                                  string
		refMatrix, heldMatrix                      *harness.Matrix
		prof                                       *inProcessProfile
	)
	// cachedPass re-runs the campaign against its reopened store, which must
	// serve every member with no simulation and the campaign's digest d, then
	// looks every member up through the facade on a reopened store; each lookup
	// must agree with the cold matrix m. It appends one cached-campaign sample
	// and one hit sample per member.
	cachedPass := func(rec *recorder, b harness.Base, dir, d string, m *harness.Matrix) error {
		// Each pass starts from a collected heap (the reference sample
		// collects it), so whether a collection lands inside the 5 ms
		// campaign does not depend on what ran before it.
		r.clock.sample()
		root := rec.root("request:cached-campaign")
		start := time.Now()
		sp := rec.child(root, "resultstore.Open")
		st, err := resultstore.Open(resultstore.BackendConfig{Dir: dir})
		sp.done()
		if err != nil {
			return err
		}
		timer.attach(st)
		cb := b
		cb.Store, cb.Progress = st, nil
		sp = rec.child(root, "harness.RunMatrix")
		cm, runErr := harness.RunMatrix(cb, variants)
		sp.done()
		cachedMS = append(cachedMS, ms(time.Since(start)))
		root.done()
		stats := st.Stats()
		memHits += stats.MemHits
		diskHits += stats.DiskHits
		if err := st.Close(); err != nil {
			return err
		}
		if r.t.check(runErr) {
			var cached []any
			for _, bench := range cm.Benches {
				for _, v := range cm.Variants {
					cached = append(cached, cm.Get(bench, v.Label))
				}
			}
			cd, err := digest(cached...)
			if err != nil {
				return err
			}
			r.t.check(digestMatch("cached campaign", cd, d))
			if stats.Computes != 0 {
				r.t.check(fmt.Errorf("cached campaign simulated %d members", stats.Computes))
			}
		}

		opts := lard.Options{Cores: 16, OpsScale: fig7Scale, Seed: b.Seed}
		if st, err = resultstore.Open(resultstore.BackendConfig{Dir: dir}); err != nil {
			return err
		}
		timer.attach(st)
		for _, bench := range fig67Benches {
			for _, s := range lard.FigureSchemes() {
				root := rec.root("request:hit")
				sp := rec.child(root, "lard.LookupStored")
				start := time.Now()
				res, ok, err := lard.LookupStored(st, bench, s, opts)
				hitMS = append(hitMS, ms(time.Since(start)))
				sp.done()
				root.done()
				if err == nil && !ok {
					err = fmt.Errorf("stored run %s/%s not found", bench, s.Label())
				}
				if err == nil && s.Kind != "ASR" {
					if want := m.Get(bench, s.Label()); want == nil || res.CompletionCycles != uint64(want.CompletionTime) || res.Ops != want.Ops {
						err = fmt.Errorf("stored run %s/%s differs from the campaign's", bench, s.Label())
					}
				}
				r.t.check(err)
			}
		}
		stats = st.Stats()
		memHits += stats.MemHits
		diskHits += stats.DiskHits
		return st.Close()
	}
	for rep := 0; rep < reps; rep++ {
		traced := r.traced && rep >= reps/2
		if traced && prof == nil {
			var err error
			if prof, err = startProfile(); err != nil {
				return err
			}
		}
		rec := r.rec
		if !traced {
			rec = nil
		}
		b := base
		b.Seed = r.seed
		if !r.traced && rep%2 == 1 {
			b.Seed = heldOut(r.seed)
		}
		dir, err := r.freshDir(fmt.Sprintf("store-%d", rep))
		if err != nil {
			return err
		}
		st, err := resultstore.Open(resultstore.BackendConfig{Dir: dir})
		if err != nil {
			return err
		}
		timer.attach(st)
		b.Store = st

		// Member latency runs from a member's first progress report (after
		// its first few thousand operations) to its completion report.
		var mu sync.Mutex
		first := map[string]time.Time{}
		finished := 0
		b.Progress = func(cp harness.CampaignProgress) {
			now := time.Now()
			mu.Lock()
			defer mu.Unlock()
			key := cp.Bench + "\x00" + cp.Label
			if _, ok := first[key]; !ok {
				first[key] = now
			}
			if cp.MembersFinished > finished {
				finished = cp.MembersFinished
				runMS = append(runMS, ms(now.Sub(first[key])))
			}
		}
		runtime.GC()
		rss := sampleRSS("self")
		root := rec.root("request:fig7-campaign")
		sp := rec.child(root, "harness.RunMatrix")
		before := snapshotHost()
		start := time.Now()
		m, err := harness.RunMatrix(b, variants)
		wall := time.Since(start).Seconds()
		after := snapshotHost()
		rssPeaks = append(rssPeaks, rss.peak())
		sp.done()
		root.done()
		if err := st.Close(); err != nil {
			return err
		}
		if !r.t.check(err) {
			continue
		}
		walls = append(walls, wall)
		if traced {
			tracedWalls = append(tracedWalls, wall)
			cpuTotal += after.cpu - before.cpu
			cpuWall += wall
		}
		var ops uint64
		var results []any
		for _, bench := range m.Benches {
			for _, v := range m.Variants {
				res := m.Get(bench, v.Label)
				results = append(results, res)
				if v.AutoASR {
					ops += res.Ops * uint64(len(harness.ASRLevels))
				} else {
					ops += res.Ops
				}
			}
		}
		opsTotal += float64(ops)
		wallTotal += wall
		if traced {
			tracedOps += float64(ops)
		}
		d, err := digest(results...)
		if err != nil {
			return err
		}
		switch {
		case b.Seed != r.seed:
			heldMatrix = m
		case refDigest == "":
			refDigest, refMatrix = d, m
			r.note("result_digest %s (Figure-7 campaign, seed %d)", d, r.seed)
		default:
			r.t.check(digestMatch("repeated cold campaign", d, refDigest))
		}

		// Fully cached campaigns, each followed by stored-run hits through
		// the facade, so both are sampled all through the run.
		for i := 0; i < cachedPasses; i++ {
			if err := cachedPass(rec, b, dir, d, m); err != nil {
				return err
			}
		}
	}
	if prof != nil {
		if err := prof.finish(r, tracedOps); err != nil {
			return err
		}
	}
	if refMatrix == nil {
		return errors.New("no campaign completed")
	}

	r.e2e["wall_s"] = median(walls)
	r.e2e["sim_mops_per_s"] = opsTotal / wallTotal / 1e6
	r.latencies("run", runMS)
	r.latencies("hit", hitMS)
	r.e2e["campaign_cached_p50_ms"] = median(cachedMS)
	r.e2e["peak_rss_mb"] = median(rssPeaks)
	r.addHeadline(matrixOutcomes(refMatrix), fig67Benches, "16-core, 6-benchmark subset")
	if heldMatrix != nil {
		e, _ := headline(matrixOutcomes(heldMatrix), fig67Benches)
		r.note("headline_err_pts on held-out seed %d: %.2f pct-points", heldOut(r.seed), e)
	}

	if r.traced {
		r.layers["harness.cpu_util"] = cpuTotal / (cpuWall * float64(par))
		r.layers["bench.trace_overhead"] = median(tracedWalls) / median(walls[:len(walls)-len(tracedWalls)])
		r.layers["resultstore.get_ms"] = timer.meanMS("get")
		r.layers["resultstore.put_ms"] = timer.meanMS("put")
		if memHits+diskHits > 0 {
			r.layers["resultstore.disk_hit_frac"] = float64(diskHits) / float64(memHits+diskHits)
		}
		r.addModelMatrix(refMatrix)
		return r.layerProbes(16, fig67Benches)
	}
	return nil
}

// cachedPasses is how many fully cached campaigns, each followed by one
// round of stored-run hits, run after every cold campaign.
const cachedPasses = 24
