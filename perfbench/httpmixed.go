package main

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"math/rand/v2"
	"os"
	"path/filepath"
	"runtime"
	"time"

	"lard"
	"lard/internal/engine"
)

// httpStored is one run the server holds, with the result it must serve.
type httpStored struct {
	req    runRequest
	result []byte
}

// httpServer is one set-up server with what its set-up stored.
type httpServer struct {
	proc   *serverProc
	c      *client
	stored []httpStored
}

// httpMixed drives the real lard-server binary with one closed-loop client:
// fresh 16-core runs, resubmits of stored runs and the fully cached
// Figure-7 campaign. Each server is restarted on its filled store before it
// is measured, so the engine's job registry and the store's memory layer
// start empty: the first resubmit of each stored run, and the first cached
// campaign, are read from disk.
func httpMixed(r *run) error {
	spec := lard.CampaignSpec{Benchmarks: fig67Benches, Schemes: lard.FigureSchemes(),
		Options: lard.Options{Cores: 16, OpsScale: httpScale, Seed: r.seed}}
	members, err := lard.ExpandCampaign(spec)
	if err != nil {
		return err
	}
	// newReq returns the i-th fresh run. Its benchmark and scheme rotate
	// through the Figure-7 matrix in a fixed order, so every seed runs the
	// same mix of run lengths; only the simulation seed comes from rng.
	newReq := func(i int, rng *rand.Rand) runRequest {
		m := members[i%len(members)]
		return runRequest{Benchmark: m.Benchmark, Scheme: m.Scheme,
			Options: lard.Options{Cores: 16, OpsScale: httpScale, Seed: rng.Uint64()}}
	}
	var (
		coldTable   campaignTable
		coldResults []*lard.Result
	)
	// setup starts a server on a fresh store, stores the cold campaign, an
	// invariant-checked run and eight fresh runs in it, and restarts the
	// server on that store.
	setup := func(name string, traced bool) (*httpServer, error) {
		dir, err := r.freshDir(name)
		if err != nil {
			return nil, err
		}
		proc, err := startServer(r.serverBin, dir, 32, traced)
		if err != nil {
			return nil, err
		}
		s := &httpServer{proc: proc, c: newClient(proc.base, nil)}
		inv := runRequest{Benchmark: "BARNES", Scheme: lard.LocalityAware(3),
			Options: lard.Options{Cores: 16, OpsScale: checkScale, Seed: r.seed, CheckInvariants: true}}
		_, err = s.c.freshRun(inv)
		r.t.check(err)
		_, view, tbl, err := s.c.campaign(spec)
		if !r.t.check(err) {
			return s, nil
		}
		if coldResults == nil {
			coldTable = tbl
		} else if err := sameTable(tbl, coldTable); err != nil {
			r.t.check(fmt.Errorf("cold campaign on a second server: %w", err))
		}
		byKey := map[string]lard.CampaignMember{}
		for _, m := range members {
			byKey[m.Key] = m
		}
		results := map[string]*lard.Result{}
		for _, mv := range view.Members {
			var jv engine.JobView
			code, err := s.c.do(nil, "GET", "/v1/runs/"+mv.ID, nil, &jv)
			if err == nil {
				err = httpOutcome(code, jv.Status)
			}
			if err == nil && jv.Result == nil {
				err = fmt.Errorf("campaign member %s has no result", mv.ID)
			}
			if !r.t.check(err) {
				continue
			}
			m := byKey[mv.ID]
			b, err := json.Marshal(jv.Result)
			if err != nil {
				return nil, err
			}
			s.stored = append(s.stored, httpStored{runRequest{Benchmark: m.Benchmark, Scheme: m.Scheme, Options: m.Options}, b})
			results[mv.ID] = jv.Result
		}
		if coldResults == nil {
			for _, m := range members {
				if res, ok := results[m.Key]; ok {
					coldResults = append(coldResults, res)
				}
			}
		}
		pre := rand.New(rand.NewPCG(r.seed, 1))
		for i := 0; i < 8; i++ {
			req := newReq(i, pre)
			f, err := s.c.freshRun(req)
			if !r.t.check(err) {
				continue
			}
			b, err := json.Marshal(f.result)
			if err != nil {
				return nil, err
			}
			s.stored = append(s.stored, httpStored{req, b})
		}
		s.proc.stop()
		if s.proc, err = startServer(r.serverBin, dir, 32, traced); err != nil {
			return nil, err
		}
		s.c = newClient(s.proc.base, nil)
		return s, nil
	}

	var setupS []float64
	var srv *httpServer
	defer func() { srv.stop() }()
	for i := 0; i < httpSetups; i++ {
		start := time.Now()
		if i == 0 {
			start = processStart
		}
		srv.stop()
		if srv, err = setup(fmt.Sprintf("server-%d", i), false); err != nil {
			return err
		}
		setupS = append(setupS, time.Since(start).Seconds())
	}
	r.e2e["setup_s"] = median(setupS)
	if len(coldResults) != len(members) {
		return fmt.Errorf("cold campaign stored %d of %d members", len(coldResults), len(members))
	}

	reps := r.reps(0.11)
	rng := rand.New(rand.NewPCG(r.seed, 2))
	var (
		walls, tracedWalls, runMS, hitMS, cachedMS []float64
		rssPeaks                                   []float64
		fresh, tracedFresh                         []freshOutcome
		freshReqs                                  []runRequest
		opsTotal, runTotal                         float64
		cpuBefore, cpuAfter, allocBefore           float64
		profRaw                                    []byte
		profErr                                    error
		profDone                                   chan struct{}
		profStart, profEnd                         time.Time
		metricsBefore                              map[string]float64
		nFresh, nHit                               int
	)
	freshOne := func(rec *recorder) {
		req := newReq(nFresh, rng)
		nFresh++
		srv.c.rec = rec
		f, err := srv.c.freshRun(req)
		if !r.t.check(err) {
			return
		}
		runMS = append(runMS, ms(f.latency))
		opsTotal += float64(f.result.Ops)
		runTotal += f.latency.Seconds()
		fresh, freshReqs = append(fresh, f), append(freshReqs, req)
		if rec != nil {
			tracedFresh = append(tracedFresh, f)
		}
	}
	// hit resubmits the set-up's stored runs in turn.
	hit := func() {
		s := srv.stored[nHit%len(srv.stored)]
		nHit++
		lat, res, err := srv.c.hit(s.req)
		if err == nil {
			var b []byte
			if b, err = json.Marshal(res); err == nil && !bytes.Equal(b, s.result) {
				err = fmt.Errorf("resubmit of %s served a different result", s.req.Benchmark)
			}
		}
		if r.t.check(err) {
			hitMS = append(hitMS, ms(lat))
		}
	}
	for rep := 0; rep < reps; rep++ {
		traced := r.traced && rep >= reps/2
		var rec *recorder
		if traced {
			rec = r.rec
		}
		if traced && profDone == nil {
			srv.stop()
			if srv, err = setup("server-traced", true); err != nil {
				return err
			}
			if allocBefore, _, err = srv.proc.memStats(); err != nil {
				return err
			}
			if metricsBefore, err = srv.c.scrape(); err != nil {
				return err
			}
			cpuBefore = procCPU(srv.proc.pid())
			profDone = make(chan struct{})
			profStart = time.Now()
			go func() {
				defer close(profDone)
				profRaw, profErr = srv.proc.profile(max(1, r.seconds/2))
				profEnd = time.Now()
			}()
		}
		if rep%4 == 0 {
			r.clock.sample()
		}
		srv.c.rec = rec
		rss := sampleRSS(srv.proc.pid())
		start := time.Now()
		freshOne(rec)
		lat, _, tbl, err := srv.c.campaign(spec)
		if r.t.check(err) && r.t.check(sameTable(tbl, coldTable)) {
			cachedMS = append(cachedMS, ms(lat))
		}
		hit()
		freshOne(rec)
		wall := time.Since(start).Seconds()
		walls = append(walls, wall)
		if peak := rss.peak(); traced {
			tracedWalls = append(tracedWalls, wall)
		} else {
			rssPeaks = append(rssPeaks, peak)
		}
		if !srv.proc.alive() {
			return errors.New("lard-server exited during the measured phase")
		}
	}
	r.e2e["peak_rss_mb"] = median(rssPeaks)

	// The server's results must equal in-process simulations of the same
	// specs.
	for i := 0; i < len(freshReqs); i += max(1, len(freshReqs)/3) {
		req := freshReqs[i]
		want, err := lard.Run(req.Benchmark, req.Scheme, req.Options)
		if err == nil {
			var a, b []byte
			a, _ = json.Marshal(want)
			b, _ = json.Marshal(fresh[i].result)
			if !bytes.Equal(a, b) {
				err = fmt.Errorf("HTTP result of %s/%s differs from lard.Run", req.Benchmark, req.Scheme.Label())
			}
		}
		r.t.check(err)
	}
	var all []any
	for _, res := range coldResults {
		all = append(all, res)
	}
	for _, f := range fresh {
		all = append(all, f.result)
	}
	d, err := digest(all...)
	if err != nil {
		return err
	}
	r.note("result_digest %s (cold campaign and %d fresh runs, seed %d)", d, len(fresh), r.seed)

	r.e2e["wall_s"] = median(walls)
	r.e2e["sim_mops_per_s"] = opsTotal / runTotal / 1e6
	r.latencies("run", runMS)
	r.latencies("hit", hitMS)
	r.e2e["campaign_cached_p50_ms"] = median(cachedMS)
	out := map[string]map[string]outcome{}
	for i, m := range members {
		if out[m.Benchmark] == nil {
			out[m.Benchmark] = map[string]outcome{}
		}
		res := coldResults[i]
		out[m.Benchmark][m.Label] = outcome{energyPJ: res.EnergyTotalPJ(), cycles: float64(res.CompletionCycles)}
	}
	r.addHeadline(out, fig67Benches, "16-core, 6-benchmark subset at ops scale 0.05 with ASR pinned at level 0.5")

	if !r.traced {
		return nil
	}
	cpuAfter = procCPU(srv.proc.pid())
	allocAfter, gcFrac, err := srv.proc.memStats()
	if err != nil {
		return err
	}
	<-profDone
	if profErr != nil {
		return profErr
	}
	profPath := filepath.Join(r.dir, "cpu.pprof")
	if err := os.WriteFile(profPath, profRaw, 0o644); err != nil {
		return err
	}
	// The profile covers a fixed window of the traced half; a fresh run
	// counts the share of its operations that falls inside the window.
	var profOps float64
	for _, f := range tracedFresh {
		in := overlap(f.arrived.Add(-f.latency), f.arrived, profStart, profEnd)
		if f.latency > 0 {
			profOps += float64(f.result.Ops) * float64(in) / float64(f.latency)
		}
	}
	if err := r.addProfile(profPath, profOps); err != nil {
		return err
	}
	var tracedWall float64
	for _, w := range tracedWalls {
		tracedWall += w
	}
	r.layers["harness.cpu_util"] = (cpuAfter - cpuBefore) / (tracedWall * float64(runtime.NumCPU()))
	r.layers["gc.alloc_mb"] = (allocAfter - allocBefore) / (1 << 20)
	r.layers["gc.cpu_frac"] = gcFrac
	r.layers["bench.trace_overhead"] = median(tracedWalls) / median(walls[:len(walls)-len(tracedWalls)])
	svc, trees, err := srv.c.serviceLayers(metricsBefore, tracedFresh)
	if err != nil {
		return err
	}
	b, err := json.MarshalIndent(trees, "", " ")
	if err != nil {
		return err
	}
	if err := os.WriteFile(filepath.Join(r.dir, "server-traces.json"), b, 0o644); err != nil {
		return err
	}
	for k, v := range svc {
		r.layers[k] = v
	}
	r.addModel(coldResults)
	return r.layerProbes(16, fig67Benches)
}

// stop stops the server, if any.
func (s *httpServer) stop() {
	if s != nil {
		s.proc.stop()
	}
}

// sameTable fails when a cached campaign's table differs from the cold one.
func sameTable(got, want campaignTable) error {
	a, _ := json.Marshal([]any{got.Table, got.Averages})
	b, _ := json.Marshal([]any{want.Table, want.Averages})
	if !bytes.Equal(a, b) {
		return errors.New("campaign table differs from the cold campaign's")
	}
	return nil
}
