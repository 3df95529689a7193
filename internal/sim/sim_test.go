package sim

import (
	"testing"

	"lard/internal/coherence"
	"lard/internal/config"
	"lard/internal/mem"
	"lard/internal/stats"
	"lard/internal/trace"
)

func runSmall(t *testing.T, scheme coherence.Scheme, bench string, opt Options) *Result {
	t.Helper()
	p, err := trace.ProfileByName(bench)
	if err != nil {
		t.Fatal(err)
	}
	opt.Scheme = scheme
	if opt.OpsScale == 0 {
		opt.OpsScale = 0.05
	}
	return Run(config.Small(), p, opt)
}

func TestRunBasics(t *testing.T) {
	r := runSmall(t, coherence.SNUCA, "BARNES", Options{CheckInvariants: true})
	if r.Benchmark != "BARNES" || r.Scheme != "S-NUCA" {
		t.Fatalf("labels: %q/%q", r.Benchmark, r.Scheme)
	}
	if r.Cores != 16 {
		t.Fatalf("Cores = %d", r.Cores)
	}
	if r.CompletionTime == 0 || r.Ops == 0 {
		t.Fatal("empty result")
	}
	if r.EnergyTotal() <= 0 {
		t.Fatal("no energy recorded")
	}
}

func TestSchemeLabels(t *testing.T) {
	cases := []struct {
		scheme coherence.Scheme
		rt     int
		want   string
	}{
		{coherence.SNUCA, 0, "S-NUCA"},
		{coherence.RNUCA, 0, "R-NUCA"},
		{coherence.VR, 0, "VR"},
		{coherence.ASR, 0, "ASR"},
		{coherence.LocalityAware, 3, "RT-3"},
		{coherence.LocalityAware, 8, "RT-8"},
	}
	p, _ := trace.ProfileByName("DEDUP")
	for _, c := range cases {
		cfg := config.Small()
		if c.rt > 0 {
			cfg.RT = c.rt
		}
		r := Run(cfg, p, Options{Scheme: c.scheme, OpsScale: 0.01})
		if r.Scheme != c.want {
			t.Errorf("label = %q, want %q", r.Scheme, c.want)
		}
	}
}

// TestOpsAccounting: every generated memory op executes exactly once.
func TestOpsAccounting(t *testing.T) {
	p, _ := trace.ProfileByName("FERRET")
	cfg := config.Small()
	r := Run(cfg, p, Options{Scheme: coherence.RNUCA, OpsScale: 0.05})
	want := uint64(0)
	w := trace.Generate(p, cfg, 0.05, 0)
	for _, s := range w.Streams {
		want += uint64(s.Remaining())
	}
	if r.Ops != want {
		t.Fatalf("Ops = %d, want %d", r.Ops, want)
	}
	var missSum uint64
	for _, v := range r.Miss {
		missSum += v
	}
	if missSum != want {
		t.Fatalf("miss counts sum to %d, want %d", missSum, want)
	}
}

// TestBreakdownTracksCompletion: the per-core average breakdown total is
// close to the completion time (equal up to load imbalance at the end).
func TestBreakdownTracksCompletion(t *testing.T) {
	r := runSmall(t, coherence.LocalityAware, "BARNES", Options{OpsScale: 0.1})
	total := r.Time.Total()
	if total > r.CompletionTime {
		t.Fatalf("average busy time %d exceeds completion %d", total, r.CompletionTime)
	}
	if float64(total) < 0.8*float64(r.CompletionTime) {
		t.Fatalf("average busy time %d far below completion %d (accounting leak)",
			total, r.CompletionTime)
	}
}

// TestBarrierSynchronization: barriers charge Synchronization time.
func TestBarrierSynchronization(t *testing.T) {
	r := runSmall(t, coherence.SNUCA, "BARNES", Options{OpsScale: 0.1})
	if r.Time[stats.Synchronization] == 0 {
		t.Fatal("barrier profile must record synchronization time")
	}
}

// TestDeterministicRuns: same inputs, same results.
func TestDeterministicRuns(t *testing.T) {
	a := runSmall(t, coherence.LocalityAware, "STREAMCLUS.", Options{Seed: 3})
	b := runSmall(t, coherence.LocalityAware, "STREAMCLUS.", Options{Seed: 3})
	if a.CompletionTime != b.CompletionTime || a.EnergyTotal() != b.EnergyTotal() {
		t.Fatalf("non-deterministic: %d/%v vs %d/%v",
			a.CompletionTime, a.EnergyTotal(), b.CompletionTime, b.EnergyTotal())
	}
}

// TestTrackRuns: the Figure-1 histogram accounts every LLC access.
func TestTrackRuns(t *testing.T) {
	r := runSmall(t, coherence.SNUCA, "BARNES", Options{TrackRuns: true, OpsScale: 0.1})
	if r.Runs == nil {
		t.Fatal("TrackRuns must produce a histogram")
	}
	llcAccesses := r.Miss[stats.LLCHomeHit] + r.Miss[stats.OffChipMiss] + r.Miss[stats.LLCReplicaHit]
	if got := r.Runs.Total(); got != llcAccesses {
		t.Fatalf("histogram total %d != LLC accesses %d", got, llcAccesses)
	}
	// BARNES: shared read-write accesses dominate (Figure 1).
	rw := r.Runs.Share(mem.ClassSharedRW, stats.Run1to2) +
		r.Runs.Share(mem.ClassSharedRW, stats.Run3to9) +
		r.Runs.Share(mem.ClassSharedRW, stats.Run10plus)
	if rw < 0.5 {
		t.Errorf("BARNES shared-rw share of LLC accesses = %.2f, want > 0.5", rw)
	}
}

// TestSchemesFunctionallyEquivalentOpsServed: every scheme serves the same
// op count for the same workload (they differ only in where).
func TestSchemesSameOps(t *testing.T) {
	var ops []uint64
	for _, s := range []coherence.Scheme{coherence.SNUCA, coherence.RNUCA, coherence.VR, coherence.ASR, coherence.LocalityAware} {
		r := runSmall(t, s, "WATER-NSQ", Options{CheckInvariants: true})
		ops = append(ops, r.Ops)
	}
	for i := 1; i < len(ops); i++ {
		if ops[i] != ops[0] {
			t.Fatalf("op counts differ across schemes: %v", ops)
		}
	}
}

// TestProgressCallback pins the progress contract: monotone non-decreasing
// done counts at the configured cadence, at least one strictly-interior
// report, a final done == total report, and a result identical to the same
// run without an observer (progress must never perturb the simulation).
func TestProgressCallback(t *testing.T) {
	type report struct{ done, total uint64 }
	var reports []report
	opt := Options{
		OpsScale:      0.05,
		ProgressEvery: 64,
		Progress:      func(done, total uint64) { reports = append(reports, report{done, total}) },
	}
	r := runSmall(t, coherence.SNUCA, "BARNES", opt)
	if r == nil {
		t.Fatal("run with progress returned nil")
	}
	if len(reports) < 2 {
		t.Fatalf("got %d progress reports, want at least an interior one and a final one", len(reports))
	}
	total := reports[0].total
	if total == 0 {
		t.Fatal("progress total is zero")
	}
	interior := false
	for i, rep := range reports {
		if rep.total != total {
			t.Fatalf("report %d changed total: %d -> %d", i, total, rep.total)
		}
		if i > 0 && rep.done < reports[i-1].done {
			t.Fatalf("report %d went backwards: %d after %d", i, rep.done, reports[i-1].done)
		}
		if rep.done > 0 && rep.done < total {
			interior = true
		}
	}
	if !interior {
		t.Fatal("no strictly-interior progress report")
	}
	last := reports[len(reports)-1]
	if last.done != total || last.done != r.Ops {
		t.Fatalf("final report %d/%d, want done == total == Ops (%d)", last.done, total, r.Ops)
	}

	bare := runSmall(t, coherence.SNUCA, "BARNES", Options{OpsScale: 0.05})
	if bare.CompletionTime != r.CompletionTime || bare.Ops != r.Ops {
		t.Fatalf("progress observer changed the run: %d/%d vs %d/%d ops/cycles",
			r.Ops, r.CompletionTime, bare.Ops, bare.CompletionTime)
	}
}

// TestInterrupt pins cancellation: a fired Interrupt channel makes Run
// return nil at the next cadence check instead of finishing the workload.
func TestInterrupt(t *testing.T) {
	stop := make(chan struct{})
	fired := false
	opt := Options{
		OpsScale:      0.05,
		ProgressEvery: 64,
		Interrupt:     stop,
		Progress: func(done, total uint64) {
			if !fired && done >= 64 && done < total {
				fired = true
				close(stop)
			}
		},
	}
	if r := runSmall(t, coherence.SNUCA, "BARNES", opt); r != nil {
		t.Fatalf("interrupted run returned a result (%d ops)", r.Ops)
	}
	if !fired {
		t.Fatal("test never armed the interrupt")
	}
}

// TestInterruptFromAnotherGoroutine closes the interrupt channel from a
// goroutine other than the one running the loop, the way a cancelled
// context's Done channel closes under the service. The first progress
// callback hands off to a canceller and waits until it has closed the
// channel, so the run must stop at the next cadence check. Run under
// -race in CI.
func TestInterruptFromAnotherGoroutine(t *testing.T) {
	stop := make(chan struct{})
	armed := make(chan struct{})
	closed := make(chan struct{})
	go func() {
		<-armed
		close(stop)
		close(closed)
	}()
	fired := false
	opt := Options{
		OpsScale:      0.05,
		ProgressEvery: 64,
		Interrupt:     stop,
		Progress: func(done, total uint64) {
			if !fired && done < total {
				fired = true
				close(armed)
				<-closed
			}
		},
	}
	if r := runSmall(t, coherence.SNUCA, "BARNES", opt); r != nil {
		t.Fatalf("interrupted run returned a result (%d ops)", r.Ops)
	}
	if !fired {
		t.Fatal("test never armed the interrupt")
	}
}
