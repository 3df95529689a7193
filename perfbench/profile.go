package main

import (
	"bufio"
	"bytes"
	"fmt"
	"os/exec"
	"strconv"
	"strings"
)

// cpuBuckets maps a package path prefix to the cpu.* share it counts
// toward. The first matching prefix wins; samples whose leaf frame is in no
// listed package (the runtime, syscalls) count only toward the total.
var cpuBuckets = []struct{ prefix, metric string }{
	{"lard/internal/trace", "cpu.trace"},
	{"lard/internal/sim", "cpu.sim"},
	{"lard/internal/coherence", "cpu.coherence"},
	{"lard/internal/core", "cpu.core"},
	{"lard/internal/cache", "cpu.cache"},
	{"lard/internal/directory", "cpu.directory"},
	{"lard/internal/network", "cpu.network"},
	{"lard/internal/dram", "cpu.dram"},
	{"lard/internal/resultstore", "cpu.store"},
	{"lard/internal/store", "cpu.store"},
	{"encoding/json", "cpu.json"},
	{"net", "cpu.http"},
}

// cpuSplit is a CPU profile's flat time split into the cpu.* buckets.
type cpuSplit struct {
	shares  map[string]float64 // bucket -> share of all flat time
	totalMS float64            // flat time of the whole profile
}

// bucketMS is the flat CPU time, in milliseconds, of one bucket.
func (c cpuSplit) bucketMS(metric string) float64 { return c.shares[metric] * c.totalMS }

// profileSplit lists a pprof CPU profile with `go tool pprof -top`, every
// function included, and splits its flat time by each function's package.
// Flat time belongs to the leaf frame, inlined frames resolved to the
// innermost function.
func profileSplit(goBin, path string) (cpuSplit, error) {
	cmd := exec.Command(goBin, "tool", "pprof", "-top", "-nodecount=0", "-nodefraction=0",
		"-unit=ms", "-symbolize=none", path)
	var stderr bytes.Buffer
	cmd.Stderr = &stderr
	out, err := cmd.Output()
	if err != nil {
		return cpuSplit{}, fmt.Errorf("go tool pprof: %w: %s", err, strings.TrimSpace(stderr.String()))
	}
	return splitTop(out)
}

// splitTop sums the flat column of `pprof -top -unit=ms` output into the
// cpu.* buckets.
func splitTop(top []byte) (cpuSplit, error) {
	c := cpuSplit{shares: make(map[string]float64)}
	for _, b := range cpuBuckets {
		c.shares[b.metric] = 0
	}
	byMetric := make(map[string]float64)
	header := false
	sc := bufio.NewScanner(bytes.NewReader(top))
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	for sc.Scan() {
		line := sc.Text()
		f := strings.Fields(line)
		if !header {
			header = len(f) == 5 && f[0] == "flat" && f[4] == "cum%"
			continue
		}
		if len(f) < 6 {
			continue
		}
		flat, err := strconv.ParseFloat(strings.TrimSuffix(f[0], "ms"), 64)
		if err != nil {
			return cpuSplit{}, fmt.Errorf("pprof -top row %q: %w", line, err)
		}
		c.totalMS += flat
		// The function name is the rest of the line after five columns;
		// generic shapes put spaces inside it.
		name := line
		for range 5 {
			name = strings.TrimLeft(name, " ")
			name = name[strings.IndexByte(name, ' ')+1:]
		}
		pkg := packageOf(strings.TrimSuffix(strings.TrimSpace(name), " (inline)"))
		for _, b := range cpuBuckets {
			if pkg == b.prefix || strings.HasPrefix(pkg, b.prefix+"/") {
				byMetric[b.metric] += flat
				break
			}
		}
	}
	if err := sc.Err(); err != nil {
		return cpuSplit{}, err
	}
	if !header {
		return cpuSplit{}, fmt.Errorf("pprof -top: no table in its output")
	}
	if c.totalMS > 0 {
		for m, v := range byMetric {
			c.shares[m] = v / c.totalMS
		}
	}
	return c, nil
}

// packageOf returns the import path of a Go symbol name such as
// "lard/internal/cache.(*Cache[...]).Lookup" or "runtime.mallocgc".
func packageOf(fn string) string {
	s := fn
	if i := strings.IndexAny(s, "[("); i >= 0 {
		s = s[:i]
	}
	slash := strings.LastIndex(s, "/")
	if dot := strings.Index(s[slash+1:], "."); dot >= 0 {
		return s[:slash+1+dot]
	}
	return s
}
