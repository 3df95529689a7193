// Command perfbench is the repository's benchmark. It runs one workload per
// invocation and prints every metric by name with its unit, then one JSON
// line: {"correct", "attempted", "failed", "metrics"}.
//
//	perfbench -workload fig7-cold|http-mixed -seed N -seconds S -trace 0|1
//	          [-server-bin PATH] [-go PATH] [-work DIR]
//
// Run it through perfbench/run.sh from the repository root, which builds it
// and the lard-server binary first.
//
// Every workload runs closed loop from this one process and starts from
// empty store directories; simulated caches start empty on every run, as in
// the paper. The seed is the only input: the programs receive the runs,
// campaigns and simulation seeds generated from it.
//
// With -trace 0 the run reports the end-to-end metrics, measured with
// tracing off, with its host times scaled to a reference speed measured in
// the same run (see hostclock.go). With -trace 1 it splits its repetitions
// into an untraced and a traced half and reports the per-layer metrics:
// spans recorded around every call into the program, a CPU profile of the
// traced half split by package, the server's own span trees and /metrics
// histograms, and probes that time each simulator layer's public functions
// on the workload's own machine and traces. Spans and the profile are
// written to the run's directory under -work.
//
// The run exits non-zero on a result-digest mismatch, an invariant
// violation, or a failed or refused request.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"path/filepath"
	"sort"
	"syscall"
	"time"
)

// processStart is when the process started; the first set-up counts from
// here.
var processStart = time.Now()

// metricDef is one metric BENCHMARK.json declares.
type metricDef struct {
	Name string `json:"name"`
	Unit string `json:"unit"`
}

// declared reads the end-to-end and per-layer metrics from BENCHMARK.json
// in the working directory; every workload reports every one of them.
func declared() (endToEnd, perLayer []metricDef, err error) {
	b, err := os.ReadFile("BENCHMARK.json")
	if err != nil {
		return nil, nil, err
	}
	var spec struct {
		EndToEnd []metricDef `json:"end_to_end"`
		PerLayer []metricDef `json:"per_layer"`
	}
	if err := json.Unmarshal(b, &spec); err != nil {
		return nil, nil, fmt.Errorf("BENCHMARK.json: %w", err)
	}
	return spec.EndToEnd, spec.PerLayer, nil
}

var workloads = map[string]func(*run) error{
	"fig7-cold":  fig7Cold,
	"http-mixed": httpMixed,
}

// budget bounds one invocation; past it the run stops its servers and
// exits without a result.
const budget = 170 * time.Second

func main() {
	workload := flag.String("workload", "", "fig7-cold or http-mixed")
	seed := flag.Uint64("seed", 1, "workload seed")
	seconds := flag.Int("seconds", 20, "nominal length of the measured phase")
	traceFlag := flag.Int("trace", 0, "1 = traced run reporting the per-layer metrics")
	serverBin := flag.String("server-bin", ".bench_build/bin/lard-server", "lard-server binary (http-mixed)")
	goBin := flag.String("go", "go", "go command, for `go tool pprof` (-trace 1)")
	work := flag.String("work", ".bench_build/perfbench", "directory for stores, spans and profiles")
	flag.Parse()
	fn, ok := workloads[*workload]
	if !ok || *seconds < 1 || (*traceFlag != 0 && *traceFlag != 1) {
		fmt.Fprintln(os.Stderr, "perfbench: need -workload fig7-cold|http-mixed, -seconds >= 1, -trace 0|1")
		os.Exit(2)
	}
	endToEnd, perLayer, err := declared()
	if err != nil {
		fail(err)
	}
	r := &run{workload: *workload, seed: *seed, seconds: *seconds, traced: *traceFlag == 1,
		serverBin: *serverBin, goBin: *goBin, clock: newHostClock(), e2e: map[string]float64{}, layers: map[string]float64{}}
	r.dir = filepath.Join(*work, fmt.Sprintf("%s-seed%d-trace%d", *workload, *seed, *traceFlag))
	if r.traced {
		r.rec = &recorder{}
	}
	if err := os.RemoveAll(r.dir); err != nil {
		fail(err)
	}
	if err := os.MkdirAll(r.dir, 0o755); err != nil {
		fail(err)
	}
	time.AfterFunc(budget, func() {
		killLive()
		fmt.Fprintf(os.Stderr, "perfbench: %s exceeded its %v budget\n", *workload, budget)
		os.Exit(3)
	})
	sigs := make(chan os.Signal, 1)
	signal.Notify(sigs, os.Interrupt, syscall.SIGTERM)
	go func() {
		<-sigs
		killLive()
		os.Exit(130)
	}()

	err = fn(r)
	killLive()
	if rmErr := os.RemoveAll(filepath.Join(r.dir, "tmp")); err == nil {
		err = rmErr
	}
	if err != nil {
		fail(err)
	}
	r.scaleToReference()
	if r.traced {
		if err := writeSpans(filepath.Join(r.dir, "spans.json"), r.rec.snapshot()); err != nil {
			fail(err)
		}
		r.note("spans and CPU profile written to %s", r.dir)
	} else if err := os.RemoveAll(r.dir); err != nil {
		fail(err)
	}
	defs, values := endToEnd, r.e2e
	if r.traced {
		defs, values = perLayer, r.layers
	}
	out := map[string]metricValue{}
	for _, d := range defs {
		v, ok := values[d.Name]
		if !ok {
			fail(fmt.Errorf("%s did not measure %s", *workload, d.Name))
		}
		out[d.Name] = metricValue{v, d.Unit}
	}

	fmt.Printf("workload %s, seed %d, %d s: simulated caches start empty on every run, as in the paper\n", *workload, *seed, *seconds)
	for _, n := range r.notes {
		fmt.Println(n)
	}
	fmt.Printf("error_frac %.4f ratio (%d failed of %d attempted)\n", r.t.errorFrac(), r.t.failed, r.t.attempted)
	for _, reason := range r.t.reasons {
		fmt.Println("failure:", reason)
	}
	names := make([]string, 0, len(out))
	for n := range out {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		fmt.Printf("%-32s %14.6g %s\n", n, out[n].Value, out[n].Unit)
	}
	line, err := json.Marshal(struct {
		Correct   bool                   `json:"correct"`
		Attempted int                    `json:"attempted"`
		Failed    int                    `json:"failed"`
		Metrics   map[string]metricValue `json:"metrics"`
	}{r.t.failed == 0, max(r.t.attempted, 1), r.t.failed, out})
	if err != nil {
		fail(err)
	}
	fmt.Println(string(line))
	if r.t.failed > 0 {
		os.Exit(1)
	}
}

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

func fail(err error) {
	killLive()
	fmt.Fprintln(os.Stderr, "perfbench:", err)
	os.Exit(1)
}
