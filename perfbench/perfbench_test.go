package main

import (
	"math"
	"testing"
	"time"
)

func TestTailLeavesTenSamplesBeyond(t *testing.T) {
	xs := make([]float64, 100)
	for i := range xs {
		xs[i] = float64(100 - i) // 100..1, unsorted on purpose
	}
	v, pct, beyond := tail(xs)
	if v != 90 || pct != 90 || beyond != 10 {
		t.Fatalf("tail of 1..100 = %v at p%v with %d beyond, want 90 at p90 with 10", v, pct, beyond)
	}
	v, pct, beyond = tail(xs[:24])
	// 77..100: the 14th smallest, 90, has exactly ten samples above it.
	if v != 90 || math.Abs(pct-100*14.0/24) > 1e-9 || beyond != 10 {
		t.Fatalf("tail of 24 samples = %v at p%v with %d beyond", v, pct, beyond)
	}
	if v, pct, beyond = tail([]float64{3, 1, 2}); v != 3 || pct != 100 || beyond != 0 {
		t.Fatalf("tail of 3 samples = %v at p%v with %d beyond, want the maximum with 0", v, pct, beyond)
	}
	if m := median([]float64{4, 1, 3, 2}); m != 2.5 {
		t.Fatalf("median = %v, want 2.5", m)
	}
}

func TestSelfTimeWithOverlappingChildren(t *testing.T) {
	t0 := time.Unix(0, 0)
	at := func(ms int) time.Time { return t0.Add(time.Duration(ms) * time.Millisecond) }
	spans := []span{
		{ID: 1, Req: 1, Name: "request", Start: at(0), End: at(100)},
		{ID: 2, Parent: 1, Req: 1, Name: "a", Start: at(10), End: at(40)},
		{ID: 3, Parent: 1, Req: 1, Name: "b", Start: at(30), End: at(60)},  // overlaps a
		{ID: 4, Parent: 1, Req: 1, Name: "c", Start: at(90), End: at(120)}, // ends past its parent
		{ID: 5, Parent: 2, Req: 1, Name: "a.child", Start: at(15), End: at(20)},
	}
	self := selfTimes(spans)
	want := map[int]time.Duration{
		1: 100*time.Millisecond - 50*time.Millisecond - 10*time.Millisecond, // covered: [10,60] and [90,100]
		2: 25 * time.Millisecond,
		3: 30 * time.Millisecond,
		4: 30 * time.Millisecond,
		5: 5 * time.Millisecond,
	}
	for id, w := range want {
		if self[id] != w {
			t.Errorf("self time of span %d = %v, want %v", id, self[id], w)
		}
	}
}

func TestHeadlineOnHandBuiltMatrix(t *testing.T) {
	// RT-3 at 0.8 of every baseline's energy and 0.9 of its time: a 20 %
	// energy cut and a 10 % time cut against each of the four baselines.
	m := map[string]map[string]outcome{}
	for _, b := range []string{"X", "Y"} {
		m[b] = map[string]outcome{"RT-3": {energyPJ: 80, cycles: 90}}
		for _, bl := range []string{"VR", "ASR", "R-NUCA", "S-NUCA"} {
			m[b][bl] = outcome{energyPJ: 100, cycles: 100}
		}
	}
	got, pairs := headline(m, []string{"X", "Y"})
	// Energy gaps |20-16|,|20-14|,|20-13|,|20-21| = 4,6,7,1; time gaps
	// |10-4|,|10-9|,|10-6|,|10-13| = 6,1,4,3; mean 32/8.
	if len(pairs) != 8 || math.Abs(got-4) > 1e-9 {
		t.Fatalf("headline = %v over %d pairs, want 4 over 8", got, len(pairs))
	}
	// A matrix with only the S-NUCA baseline compares two pairs.
	for _, b := range []string{"X", "Y"} {
		delete(m[b], "VR")
		delete(m[b], "ASR")
		delete(m[b], "R-NUCA")
	}
	if got, pairs = headline(m, []string{"X", "Y"}); len(pairs) != 2 || math.Abs(got-2) > 1e-9 {
		t.Fatalf("S-NUCA-only headline = %v over %d pairs, want 2 over 2", got, len(pairs))
	}
}

func TestErrorFracCountsRefusalsAndFailedFrames(t *testing.T) {
	var tl tally
	tl.check(httpOutcome(202, "done"))
	tl.check(httpOutcome(429, ""))       // refused: queue full
	tl.check(httpOutcome(202, "failed")) // failed terminal frame
	tl.check(httpOutcome(200, ""))
	if tl.attempted != 4 || tl.failed != 2 || tl.errorFrac() != 0.5 {
		t.Fatalf("tally = %d attempted, %d failed, error_frac %v; want 4, 2, 0.5", tl.attempted, tl.failed, tl.errorFrac())
	}
	if err := httpOutcome(202, "cancelled"); err == nil {
		t.Fatal("a cancelled terminal frame must fail")
	}
}

func TestMetricNameNormalizes(t *testing.T) {
	for in, want := range map[string]string{
		"L2 Cache (LLC)":      "l2_cache_llc",
		"LLC-Home-To-OffChip": "llc_home_to_offchip",
		"OffChip-Miss":        "offchip_miss",
		"L1-I Cache":          "l1_i_cache",
	} {
		if got := metricName(in); got != want {
			t.Errorf("metricName(%q) = %q, want %q", in, got, want)
		}
	}
}

func TestPackageOf(t *testing.T) {
	for in, want := range map[string]string{
		"lard/internal/cache.(*Cache[go.shape.struct {}]).Lookup": "lard/internal/cache",
		"runtime.mallocgc":                     "runtime",
		"encoding/json.(*encodeState).marshal": "encoding/json",
		"net/http.(*conn).serve":               "net/http",
	} {
		if got := packageOf(in); got != want {
			t.Errorf("packageOf(%q) = %q, want %q", in, got, want)
		}
	}
}

func TestSplitTopSumsFlatTimeByPackage(t *testing.T) {
	top := `File: lard-server
Type: cpu
Duration: 1.91s, Total samples = 1000ms (52.36%)
Showing nodes accounting for 1000ms, 100% of 1000ms total
      flat  flat%   sum%        cum   cum%
     400ms 40.00% 40.00%      900ms 90.00%  lard/internal/sim.(*sched).pop
     250ms 25.00% 65.00%      250ms 25.00%  lard/internal/cache.(*Cache[go.shape.struct { lard/internal/coherence.version uint64 }]).Lookup
     100ms 10.00% 75.00%      100ms 10.00%  lard/internal/network.(*Mesh).traverse (inline)
     100ms 10.00% 85.00%      100ms 10.00%  encoding/json.(*encodeState).marshal
      50ms  5.00% 90.00%       50ms  5.00%  lard/internal/simx.helper
     100ms 10.00%   100%      100ms 10.00%  runtime.mallocgc
         0     0%   100%      900ms 90.00%  lard/internal/sim.Run
`
	c, err := splitTop([]byte(top))
	if err != nil {
		t.Fatal(err)
	}
	if c.totalMS != 1000 {
		t.Fatalf("total = %v ms, want 1000", c.totalMS)
	}
	for metric, want := range map[string]float64{
		"cpu.sim": 0.4, "cpu.cache": 0.25, "cpu.network": 0.1, "cpu.json": 0.1, "cpu.trace": 0, "cpu.http": 0,
	} {
		if got := c.shares[metric]; math.Abs(got-want) > 1e-9 {
			t.Errorf("%s = %v, want %v", metric, got, want)
		}
	}
	if got := c.bucketMS("cpu.sim"); math.Abs(got-400) > 1e-9 {
		t.Errorf("cpu.sim flat time = %v ms, want 400", got)
	}
	if _, err := splitTop([]byte("no table here\n")); err == nil {
		t.Error("output without a table must fail")
	}
}

func TestOverlap(t *testing.T) {
	at := func(ms int) time.Time { return time.Unix(0, 0).Add(time.Duration(ms) * time.Millisecond) }
	for _, c := range []struct {
		a0, a1, b0, b1 int
		want           time.Duration
	}{
		{0, 100, 50, 200, 50 * time.Millisecond},
		{50, 60, 0, 100, 10 * time.Millisecond},
		{0, 10, 20, 30, 0},
	} {
		if got := overlap(at(c.a0), at(c.a1), at(c.b0), at(c.b1)); got != c.want {
			t.Errorf("overlap([%d,%d], [%d,%d]) = %v, want %v", c.a0, c.a1, c.b0, c.b1, got, c.want)
		}
	}
}

func TestScaleToReferenceDividesTimesAndMultipliesRates(t *testing.T) {
	r := &run{clock: &hostClock{samples: []float64{2 * refNominal, 9 * refNominal, 2 * refNominal}},
		e2e: map[string]float64{"wall_s": 10, "run_p50_ms": 4, "sim_mops_per_s": 1.5, "peak_rss_mb": 20}}
	r.scaleToReference()
	want := map[string]float64{"wall_s": 5, "run_p50_ms": 2, "sim_mops_per_s": 3, "peak_rss_mb": 20}
	for k, v := range want {
		if math.Abs(r.e2e[k]-v) > 1e-12 {
			t.Errorf("%s = %v after scaling by a host factor of 2, want %v", k, r.e2e[k], v)
		}
	}
	if f := (&hostClock{}).factor(); f != 1 {
		t.Errorf("factor with no samples = %v, want 1", f)
	}
}
