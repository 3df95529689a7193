package main

import (
	"fmt"
	"runtime"
	"strings"
	"time"
)

// A small shared host changes speed by a quarter and more over minutes
// (other tenants' load, time stolen by the hypervisor), and every timing of
// a run moves with it: in nine consecutive runs of the same code on a 2-vCPU
// VM, the cold campaign's wall time and a fresh HTTP run's latency each
// ranged over 40% and more, rising and falling together. A run therefore
// also times a fixed reference kernel at points spread over its measured
// phase, and reports its end-to-end times at the speed the reference has
// when it takes refNominal: each time is multiplied by refNominal over the
// median reference time, and each rate divided by it. The kernel is the
// benchmark's own code, so no change to the program moves it; the raw
// values and the factor are printed beside the scaled ones. On that VM the
// scaling cut the run-to-run spread by a third to a half; it cannot remove
// it, since contention slows the kernel and the program by unequal amounts.

// refNominal is the reference kernel's time on a quiet 2-vCPU host, in
// seconds. It only sets the scale of the reported times.
const refNominal = 0.005

// Reference kernel geometry: a set-associative cache with LRU replacement
// over a pseudo-random address stream, the simulator's commonest inner
// loop, in a working set (1.5 MB) of the order of a 16-core simulation's.
const (
	refSets   = 1 << 14
	refWays   = 8
	refLookup = 120_000
)

// hostClock samples the reference kernel and holds its timings.
type hostClock struct {
	tags    []uint64
	stamps  []uint32
	samples []float64 // seconds
}

func newHostClock() *hostClock {
	return &hostClock{tags: make([]uint64, refSets*refWays), stamps: make([]uint32, refSets*refWays)}
}

// sample collects garbage, so no collection runs beside the kernel, then
// times one run of the kernel.
func (h *hostClock) sample() {
	runtime.GC()
	clear(h.tags)
	clear(h.stamps)
	start := time.Now()
	refKernel(h.tags, h.stamps)
	h.samples = append(h.samples, time.Since(start).Seconds())
}

// factor is how much slower than nominal the host ran: the median sample
// over refNominal. It is 1 when nothing was sampled.
func (h *hostClock) factor() float64 {
	if len(h.samples) == 0 {
		return 1
	}
	return median(h.samples) / refNominal
}

// refKernel runs refLookup lookups against the cache held in tags and
// stamps; every call on cleared slices does the same work. It returns the
// number of hits so the work cannot be optimised away.
func refKernel(tags []uint64, stamps []uint32) int {
	x := uint64(0x9E3779B97F4A7C15)
	hits := 0
	for i := 1; i <= refLookup; i++ {
		x ^= x << 13
		x ^= x >> 7
		x ^= x << 17
		// Three lookups in four revisit a small hot region, as a trace's
		// private and shared working sets do.
		addr := x >> 20
		if x&3 != 0 {
			addr &= 1<<16 - 1
		}
		set := int(addr % refSets)
		tag := addr/refSets + 1
		ways, ages := tags[set*refWays:(set+1)*refWays], stamps[set*refWays:(set+1)*refWays]
		victim := 0
		hit := false
		for w, t := range ways {
			if t == tag {
				ages[w] = uint32(i)
				hit = true
				break
			}
			if ages[w] < ages[victim] {
				victim = w
			}
		}
		if hit {
			hits++
			continue
		}
		ways[victim], ages[victim] = tag, uint32(i)
	}
	return hits
}

// hostTimed lists the end-to-end metrics measured in host time; a rate is
// multiplied by the host factor, a time divided by it.
var hostTimed = []struct {
	name string
	rate bool
}{
	{"setup_s", false}, {"wall_s", false}, {"sim_mops_per_s", true},
	{"run_p50_ms", false}, {"run_tail_ms", false}, {"hit_p50_ms", false},
	{"hit_tail_ms", false}, {"campaign_cached_p50_ms", false},
}

// scaleToReference rescales the run's host-time metrics to the reference
// speed and notes the factor and the raw values.
func (r *run) scaleToReference() {
	f := r.clock.factor()
	var raw []string
	for _, m := range hostTimed {
		v, ok := r.e2e[m.name]
		if !ok {
			continue
		}
		raw = append(raw, fmt.Sprintf("%s %.6g", m.name, v))
		if m.rate {
			r.e2e[m.name] = v * f
		} else {
			r.e2e[m.name] = v / f
		}
	}
	r.note("host factor %.4f: median of %d reference samples over the nominal %.1f ms; end-to-end times are divided by it, rates multiplied (raw: %s)",
		f, len(r.clock.samples), 1e3*refNominal, strings.Join(raw, ", "))
}
