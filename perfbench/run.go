package main

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"math"
	"net/http/httptest"
	"os"
	"path/filepath"
	"runtime"
	"runtime/metrics"
	"runtime/pprof"
	"sync"
	"syscall"
	"time"

	"lard"
	"lard/internal/config"
	"lard/internal/energy"
	"lard/internal/harness"
	"lard/internal/obs"
	"lard/internal/resultstore"
	"lard/internal/server"
	"lard/internal/sim"
	"lard/internal/stats"
)

// fig67Benches are the six Figure-6/7 benchmarks of the repository's
// bench_test.go: one per behaviour class the paper discusses.
var fig67Benches = []string{"BARNES", "DEDUP", "FLUIDANIM.", "BLACKSCH.", "LU-NC", "STREAMCLUS."}

// Workload sizes, in simulated operations per core relative to each
// profile's nominal length.
const (
	fig7Scale  = 0.1
	httpScale  = 0.05
	checkScale = 0.05 // the CheckInvariants members of each set-up
)

// setups is how many times each run sets up; setup_s is their median.
// The server workload's set-up simulates a whole campaign, so it sets up
// fewer times.
const (
	setups     = 15
	httpSetups = 5
)

// heldOut derives the held-out seed the fidelity number is also reported on.
func heldOut(seed uint64) uint64 { return seed ^ 0x9E3779B97F4A7C15 }

// run carries one benchmark invocation's options and what it measured.
type run struct {
	workload  string
	seed      uint64
	seconds   int
	traced    bool
	serverBin string
	goBin     string // the go command, for `go tool pprof`
	dir       string // scratch directory of this run
	rec       *recorder
	clock     *hostClock

	t      tally
	e2e    map[string]float64
	layers map[string]float64
	notes  []string
}

func (r *run) note(format string, args ...any) {
	r.notes = append(r.notes, fmt.Sprintf(format, args...))
}

// freshDir returns a new empty directory under the run's scratch space.
func (r *run) freshDir(name string) (string, error) {
	d := filepath.Join(r.dir, "tmp", name)
	if err := os.RemoveAll(d); err != nil {
		return "", err
	}
	return d, os.MkdirAll(d, 0o755)
}

// reps is the number of measured repetitions for a nominal repetition
// length: even, at least two, so a traced run can split them into an
// untraced and a traced half.
func (r *run) reps(nominal float64) int {
	n := 2 * int(math.Round(float64(r.seconds)/(2*nominal)))
	return max(n, 2)
}

// checkInvariants runs one member with the coherence invariant checker on,
// outside the timed phase, and counts a violation (a panic) as a failure.
func (r *run) checkInvariants(bench string, s lard.Scheme, cores int) {
	err := func() (err error) {
		defer func() {
			if p := recover(); p != nil {
				err = fmt.Errorf("invariant check %s/%s: %v", bench, s.Label(), p)
			}
		}()
		_, err = lard.Run(bench, s, lard.Options{Cores: cores, OpsScale: checkScale, Seed: r.seed, CheckInvariants: true})
		return err
	}()
	r.t.check(err)
}

// hostSnapshot is the process-level state the traced half is measured
// against.
type hostSnapshot struct {
	cpu                  float64 // user+system seconds
	gcCPU, allCPU, alloc float64
}

var hostMetrics = []metrics.Sample{
	{Name: "/cpu/classes/gc/total:cpu-seconds"},
	{Name: "/cpu/classes/total:cpu-seconds"},
	{Name: "/gc/heap/allocs:bytes"},
}

func snapshotHost() hostSnapshot {
	var ru syscall.Rusage
	_ = syscall.Getrusage(syscall.RUSAGE_SELF, &ru) // cannot fail for RUSAGE_SELF
	s := hostSnapshot{cpu: tv(ru.Utime) + tv(ru.Stime)}
	metrics.Read(hostMetrics)
	s.gcCPU = hostMetrics[0].Value.Float64()
	s.allCPU = hostMetrics[1].Value.Float64()
	s.alloc = float64(hostMetrics[2].Value.Uint64())
	return s
}

func tv(t syscall.Timeval) float64 { return float64(t.Sec) + float64(t.Usec)/1e6 }

// inProcessProfile records a CPU profile of the traced half of an
// in-process workload and the runtime's GC accounting over it.
type inProcessProfile struct {
	buf   bytes.Buffer
	start hostSnapshot
}

func startProfile() (*inProcessProfile, error) {
	p := &inProcessProfile{}
	runtime.GC()
	p.start = snapshotHost()
	return p, pprof.StartCPUProfile(&p.buf)
}

// finish stops the profile and fills the cpu.* shares, sim.ns_per_op over
// the simOps operations simulated while it ran, and the gc.* metrics.
func (p *inProcessProfile) finish(r *run, simOps float64) error {
	pprof.StopCPUProfile()
	end := snapshotHost()
	if d := end.allCPU - p.start.allCPU; d > 0 {
		r.layers["gc.cpu_frac"] = (end.gcCPU - p.start.gcCPU) / d
	}
	r.layers["gc.alloc_mb"] = (end.alloc - p.start.alloc) / (1 << 20)
	path := filepath.Join(r.dir, "cpu.pprof")
	if err := os.WriteFile(path, p.buf.Bytes(), 0o644); err != nil {
		return err
	}
	return r.addProfile(path, simOps)
}

// addProfile records the cpu.* shares of the CPU profile at path and
// sim.ns_per_op: the flat CPU time of internal/sim's own functions (the run
// loop and its scheduler) per operation simulated while the profile ran.
// The definition is the same on every workload.
func (r *run) addProfile(path string, simOps float64) error {
	split, err := profileSplit(r.goBin, path)
	if err != nil {
		return err
	}
	if split.totalMS == 0 {
		return errors.New("CPU profile holds no samples")
	}
	if simOps <= 0 {
		return errors.New("no operations simulated while the CPU profile ran")
	}
	for k, v := range split.shares {
		r.layers[k] = v
	}
	r.layers["sim.ns_per_op"] = 1e6 * split.bucketMS("cpu.sim") / simOps
	r.note("cpu profile: %.0f ms sampled, %.0f simulated ops", split.totalMS, simOps)
	return nil
}

// storeTimer accumulates a store's backend get/put latencies.
type storeTimer struct {
	mu    sync.Mutex
	sum   map[string]time.Duration
	count map[string]int
}

func newStoreTimer() *storeTimer {
	return &storeTimer{sum: map[string]time.Duration{}, count: map[string]int{}}
}

func (s *storeTimer) attach(st *resultstore.Store) {
	st.SetOpObserver(func(op, _ string, d time.Duration) {
		s.mu.Lock()
		s.sum[op] += d
		s.count[op]++
		s.mu.Unlock()
	})
}

func (s *storeTimer) meanMS(op string) float64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.count[op] == 0 {
		return 0
	}
	return ms(s.sum[op]) / float64(s.count[op])
}

// addModel records the simulated components summed over results: miss
// counts, per-core cycle components and energy, under normalized names.
func (r *run) addModel(results []*lard.Result) {
	for _, res := range results {
		for k, v := range res.Misses {
			r.layers["model.miss."+metricName(k)] += float64(v)
		}
		for k, v := range res.TimeBreakdown {
			r.layers["model.time."+metricName(k)] += float64(v)
		}
		for k, v := range res.EnergyPJ {
			r.layers["model.energy."+metricName(k)] += v
		}
	}
}

// addHeadline records headline_err_pts and prints the eight pairs.
func (r *run) addHeadline(m map[string]map[string]outcome, benches []string, what string) {
	errPts, pairs := headline(m, benches)
	r.e2e["headline_err_pts"] = errPts
	r.note("headline_err_pts %.2f pct-points over %d pairs (%s; RT-3 cut measured/paper %%): %s",
		errPts, len(pairs), what, formatPairs(pairs))
	r.note("caveat: this compares a %s against the paper's 64-core, 21-benchmark average, so it tracks movement, not validity", what)
}

// latencies records the p50 and tail of one latency population.
func (r *run) latencies(prefix string, xs []float64) {
	r.e2e[prefix+"_p50_ms"] = median(xs)
	v, pct, beyond := tail(xs)
	r.e2e[prefix+"_tail_ms"] = v
	r.note("%s_tail_ms %.4g ms is p%.1f of %d samples (%d beyond it)", prefix, v, pct, len(xs), beyond)
}

// outcomeOf reduces a harness result to what the headline compares.
func outcomeOf(res *sim.Result) outcome {
	return outcome{energyPJ: res.EnergyTotal(), cycles: float64(res.CompletionTime)}
}

// addModelMatrix records the model.* components of a harness matrix.
func (r *run) addModelMatrix(m *harness.Matrix) {
	for _, bench := range m.Benches {
		for _, v := range m.Variants {
			res := m.Get(bench, v.Label)
			for i, n := range res.Miss {
				r.layers["model.miss."+metricName(stats.MissType(i).String())] += float64(n)
			}
			for i, c := range res.Time {
				r.layers["model.time."+metricName(stats.TimeComponent(i).String())] += float64(c)
			}
			for i, pj := range res.EnergyPJ {
				r.layers["model.energy."+metricName(energy.Component(i).String())] += pj
			}
		}
	}
}

// matrixOutcomes reduces a harness matrix to what the headline compares.
func matrixOutcomes(m *harness.Matrix) map[string]map[string]outcome {
	out := make(map[string]map[string]outcome, len(m.Benches))
	for _, bench := range m.Benches {
		out[bench] = make(map[string]outcome, len(m.Variants))
		for _, v := range m.Variants {
			if res := m.Get(bench, v.Label); res != nil {
				out[bench][v.Label] = outcomeOf(res)
			}
		}
	}
	return out
}

// digestMatch fails when two paths that must agree produced different
// result digests.
func digestMatch(what, got, want string) error {
	if got != want {
		return fmt.Errorf("%s: result digest %s differs from %s", what, got[:12], want[:12])
	}
	return nil
}

// layerProbes times each simulator layer on the workload's machine and
// traces, and, for the in-process workloads, drives an in-process server
// briefly so the engine, server and bus layers report on this machine too.
func (r *run) layerProbes(cores int, benches []string) error {
	cfg, err := config.ForCores(cores)
	if err != nil {
		return err
	}
	probes, err := runProbes(r.rec, cfg, benches, r.seed)
	if err != nil {
		return err
	}
	for k, v := range probes {
		r.layers[k] = v
	}
	if r.workload == "http-mixed" {
		return nil
	}
	svc, err := r.serviceProbe(cores, benches)
	if err != nil {
		return err
	}
	for _, k := range []string{"engine.queue_wait_ms", "engine.dispatch_ms", "server.post_ms", "server.table_ms", "bus.sse_delivery_ms"} {
		r.layers[k] = svc[k]
	}
	return nil
}

// serviceProbe serves the workload's machine from an in-process server
// (the server package over httptest, tracing on) for a few fresh runs,
// resubmits and a small campaign, and returns its service-layer metrics.
func (r *run) serviceProbe(cores int, benches []string) (map[string]float64, error) {
	dir, err := r.freshDir("probe-store")
	if err != nil {
		return nil, err
	}
	st, err := resultstore.Open(resultstore.BackendConfig{Dir: dir, MaxEntries: 2})
	if err != nil {
		return nil, err
	}
	defer st.Close()
	svc, err := server.New(server.Config{Store: st, Obs: obs.New(obs.Options{Tracing: true})})
	if err != nil {
		return nil, err
	}
	svc.Start()
	ts := httptest.NewServer(svc.Handler())
	defer func() {
		ts.Close()
		ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
		defer cancel()
		_ = svc.Shutdown(ctx) // the probe's numbers are already taken
	}()
	root := r.rec.root("probe:service")
	defer root.done()
	c := newClient(ts.URL, nil)
	opts := lard.Options{Cores: cores, OpsScale: 0.005, Seed: r.seed}
	var fresh []freshOutcome
	var reqs []runRequest
	for _, b := range benches[:min(2, len(benches))] {
		for _, s := range []lard.Scheme{lard.LocalityAware(3), lard.SNUCA()} {
			req := runRequest{Benchmark: b, Scheme: s, Options: opts}
			f, err := c.freshRun(req)
			if !r.t.check(err) {
				continue
			}
			fresh, reqs = append(fresh, f), append(reqs, req)
		}
	}
	for i := 0; i < 2; i++ {
		for _, req := range reqs {
			_, _, err := c.hit(req)
			r.t.check(err)
		}
	}
	spec := lard.CampaignSpec{Benchmarks: benches[:min(2, len(benches))],
		Schemes: []lard.Scheme{lard.LocalityAware(3), lard.SNUCA()}, Options: opts}
	for i := 0; i < 3; i++ {
		_, _, _, err := c.campaign(spec)
		r.t.check(err)
	}
	layers, _, err := c.serviceLayers(nil, fresh)
	return layers, err
}
