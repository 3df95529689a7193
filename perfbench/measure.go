package main

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"math"
	"sort"
	"strings"
	"time"
)

// median returns the median of xs (0 for an empty slice).
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := sorted(xs)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

func sorted(xs []float64) []float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return s
}

// overlap is how long the intervals [aStart, aEnd] and [bStart, bEnd] share.
func overlap(aStart, aEnd, bStart, bEnd time.Time) time.Duration {
	start, end := aStart, aEnd
	if bStart.After(start) {
		start = bStart
	}
	if bEnd.Before(end) {
		end = bEnd
	}
	return max(end.Sub(start), 0)
}

// tailBeyond is the number of samples a tail percentile must leave beyond
// it to be reported.
const tailBeyond = 10

// tail returns the highest percentile of xs that has at least ten samples
// beyond it: the value, the percentile it sits at, and how many samples lie
// strictly above it. With ten samples or fewer no percentile qualifies and
// tail reports the maximum with beyond = 0.
func tail(xs []float64) (v, pct float64, beyond int) {
	s := sorted(xs)
	n := len(s)
	if n == 0 {
		return 0, 0, 0
	}
	if n <= tailBeyond {
		return s[n-1], 100, 0
	}
	k := n - tailBeyond - 1
	return s[k], 100 * float64(k+1) / float64(n), tailBeyond
}

// tally counts the operations a workload attempted and the ones that failed:
// non-2xx responses (a 429 refusal included), failed or cancelled terminal
// frames, and failed output checks.
type tally struct {
	attempted, failed int
	reasons           []string
}

// check records one operation; a non-nil err counts it as failed.
func (t *tally) check(err error) bool {
	t.attempted++
	if err == nil {
		return true
	}
	t.failed++
	if len(t.reasons) < 20 {
		t.reasons = append(t.reasons, err.Error())
	}
	return false
}

// errorFrac is (failed + refused) / attempted; refusals are counted in
// failed.
func (t *tally) errorFrac() float64 {
	if t.attempted == 0 {
		return 0
	}
	return float64(t.failed) / float64(t.attempted)
}

// httpOutcome classifies one HTTP exchange: any non-2xx status (429
// included) fails it, and so does a terminal frame in any state but done.
// An empty terminal state means the exchange had no event stream.
func httpOutcome(code int, terminalState string) error {
	if code < 200 || code > 299 {
		return fmt.Errorf("HTTP %d", code)
	}
	if terminalState != "" && terminalState != "done" {
		return fmt.Errorf("terminal frame %s", terminalState)
	}
	return nil
}

// digest is SHA-256 over the canonical JSON of each value, in order.
func digest(values ...any) (string, error) {
	h := sha256.New()
	for _, v := range values {
		b, err := json.Marshal(v)
		if err != nil {
			return "", err
		}
		h.Write(b)
		h.Write([]byte{'\n'})
	}
	return hex.EncodeToString(h.Sum(nil)), nil
}

// outcome is one simulated result reduced to what the headline compares.
type outcome struct {
	energyPJ float64
	cycles   float64
}

// paperCut is one §4.1 headline number: RT-3's average reduction of energy
// or completion time against a baseline, in percent.
type paperCut struct {
	baseline, quantity string
	paper              float64
}

// paperCuts are the paper's headline reductions: 16/14/13/21 % energy and
// 4/9/6/13 % completion time against VR/ASR/R-NUCA/S-NUCA.
var paperCuts = []paperCut{
	{"VR", "energy", 16}, {"ASR", "energy", 14}, {"R-NUCA", "energy", 13}, {"S-NUCA", "energy", 21},
	{"VR", "time", 4}, {"ASR", "time", 9}, {"R-NUCA", "time", 6}, {"S-NUCA", "time", 13},
}

// cutPair is one measured headline number beside the paper's.
type cutPair struct {
	paperCut
	measured float64
}

// headline computes RT-3's measured cuts against every baseline column
// present in m (bench -> column label -> outcome) and returns the mean
// absolute gap to the paper's cuts in percentage points, with each pair.
// A cut is the mean over benchmarks of 1 - RT-3/baseline, as harness.Headline
// computes it.
func headline(m map[string]map[string]outcome, benches []string) (float64, []cutPair) {
	var pairs []cutPair
	var gap float64
	for _, pc := range paperCuts {
		var sum float64
		n := 0
		for _, b := range benches {
			rt, ok1 := m[b]["RT-3"]
			bl, ok2 := m[b][pc.baseline]
			if !ok1 || !ok2 {
				continue
			}
			if pc.quantity == "energy" {
				sum += 1 - rt.energyPJ/bl.energyPJ
			} else {
				sum += 1 - rt.cycles/bl.cycles
			}
			n++
		}
		if n == 0 {
			continue
		}
		p := cutPair{paperCut: pc, measured: 100 * sum / float64(n)}
		pairs = append(pairs, p)
		gap += math.Abs(p.measured - pc.paper)
	}
	if len(pairs) == 0 {
		return 0, nil
	}
	return gap / float64(len(pairs)), pairs
}

// formatPairs renders headline pairs as "vs VR energy 21.2/16".
func formatPairs(pairs []cutPair) string {
	parts := make([]string, len(pairs))
	for i, p := range pairs {
		parts[i] = fmt.Sprintf("vs %s %s %.1f/%.0f", p.baseline, p.quantity, p.measured, p.paper)
	}
	return strings.Join(parts, ", ")
}

// metricName normalizes a component name from a Result map ("L2 Cache
// (LLC)", "L1-To-LLC-Home") into a metric-name suffix ("l2_cache_llc",
// "l1_to_llc_home").
func metricName(s string) string {
	var b strings.Builder
	under := false
	for _, r := range strings.ToLower(s) {
		if (r >= 'a' && r <= 'z') || (r >= '0' && r <= '9') {
			b.WriteRune(r)
			under = false
			continue
		}
		if !under && b.Len() > 0 {
			b.WriteByte('_')
			under = true
		}
	}
	return strings.TrimSuffix(b.String(), "_")
}
