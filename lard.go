// Package lard (Locality-Aware Replication of Data) is a from-scratch Go
// reproduction of "Locality-Aware Data Replication in the Last-Level Cache"
// (Kurian, Devadas, Khan — HPCA 2014).
//
// The package is a facade over the full simulation stack in internal/: a
// 64-core tiled multicore with private L1 caches, a distributed shared LLC
// with an in-cache ACKwise directory, a 2-D mesh NoC with contention, DRAM
// controllers with finite bandwidth, dynamic-energy accounting, synthetic
// workloads for the paper's 21 benchmarks, and five LLC management schemes
// including the paper's locality-aware replication protocol.
//
// Quick start:
//
//	res, err := lard.Run("BARNES", lard.LocalityAware(3), lard.Options{})
//	fmt.Println(res.CompletionCycles, res.EnergyTotalPJ())
//
// README.md describes the command-line tools, the simulation service and
// the package layout.
package lard

import (
	"context"
	"fmt"

	"lard/internal/config"
	"lard/internal/energy"
	"lard/internal/mem"
	"lard/internal/obs"
	"lard/internal/resultstore"
	"lard/internal/sim"
	"lard/internal/stats"
	"lard/internal/trace"
)

// Scheme selects and parameterizes an LLC management scheme. The zero value
// is not valid; use one of the constructors.
type Scheme struct {
	// Kind selects a registered scheme by its wire name: the five paper
	// schemes "S-NUCA", "R-NUCA", "VR", "ASR", "RT", plus any additional
	// registration (see SchemeKinds and GET /v1/schemes).
	Kind string `json:"kind"`
	// RT is the replication threshold of the locality-aware protocol.
	RT int `json:"rt,omitempty"`
	// ClassifierK selects the Limited-k classifier (0 = Complete).
	ClassifierK int `json:"classifier_k,omitempty"`
	// ClusterSize is the replication cluster size (1, 4, 16 or 64).
	ClusterSize int `json:"cluster_size,omitempty"`
	// ASRLevel is ASR's replication probability (0, .25, .5, .75, 1).
	ASRLevel float64 `json:"asr_level,omitempty"`
	// PlainLRU replaces the paper's modified-LRU LLC replacement policy
	// with traditional LRU (the §4.2 ablation).
	PlainLRU bool `json:"plain_lru,omitempty"`
	// TLH replaces the replacement policy with the temporal-locality-hint
	// LRU alternative §2.2.4 cites.
	TLH bool `json:"tlh,omitempty"`
	// KeepL1OnReplicaEvict enables the §2.2.3 strategy the paper rejected:
	// replica eviction leaves the L1 copy valid.
	KeepL1OnReplicaEvict bool `json:"keep_l1_on_replica_evict,omitempty"`
	// LookupOracle enables the §2.3.2 perfect local-lookup oracle.
	LookupOracle bool `json:"lookup_oracle,omitempty"`
}

// SNUCA returns the Static-NUCA baseline.
func SNUCA() Scheme { return Scheme{Kind: "S-NUCA"} }

// RNUCA returns the Reactive-NUCA baseline.
func RNUCA() Scheme { return Scheme{Kind: "R-NUCA"} }

// VictimReplication returns the VR baseline.
func VictimReplication() Scheme { return Scheme{Kind: "VR"} }

// ASR returns the Adaptive Selective Replication baseline at the given
// replication level.
func ASR(level float64) Scheme { return Scheme{Kind: "ASR", ASRLevel: level} }

// LocalityAware returns the paper's protocol with replication threshold rt,
// the Limited-3 classifier and cluster size 1 (the Table-1 defaults).
func LocalityAware(rt int) Scheme {
	return Scheme{Kind: "RT", RT: rt, ClassifierK: 3, ClusterSize: 1}
}

// Label renders the scheme the way the paper's figures do, as declared by
// its registration ("RT-3" for the locality-aware protocol); unregistered
// kinds fall back to the kind string.
func (s Scheme) Label() string {
	schemeMu.RLock()
	def, ok := schemeDefs[s.Kind]
	schemeMu.RUnlock()
	if ok && def.label != nil {
		return def.label(s)
	}
	return s.Kind
}

// Options configure a run.
type Options struct {
	// Cores overrides the core count (default 64). The supported presets
	// are 4, 16 and 64; any other value is rejected.
	Cores int `json:"cores,omitempty"`
	// OpsScale scales per-core operation counts; 1.0 (default) is the
	// profile's nominal length, smaller values speed up exploration.
	OpsScale float64 `json:"ops_scale,omitempty"`
	// Seed selects the deterministic workload instance.
	Seed uint64 `json:"seed,omitempty"`
	// CheckInvariants enables the coherence correctness checker.
	CheckInvariants bool `json:"check_invariants,omitempty"`
	// TrackRuns collects the Figure-1 run-length histogram.
	TrackRuns bool `json:"track_runs,omitempty"`
	// Timing, when non-nil, receives the simulator's wall-clock phase
	// breakdown (setup, trace decode, coherence loop, finalize). Like a
	// ProgressFunc it is execution plumbing, not run identity: it is
	// excluded from JSON encoding and from content addresses, and a store
	// hit returns without filling it (nothing was simulated).
	Timing *Timing `json:"-"`
	// Telemetry, when non-nil, records an epoch-resolved counter timeline
	// for the run (see obs.Recorder). Execution plumbing like Timing:
	// key-neutral, result-neutral, and left untouched on a store hit.
	Telemetry *obs.Recorder `json:"-"`
}

// Timing is the simulator's phase breakdown; see Options.Timing.
type Timing = sim.Timing

// Result is the outcome of one run, in plain exportable types.
type Result struct {
	// Benchmark and Scheme identify the run.
	Benchmark string `json:"benchmark"`
	Scheme    string `json:"scheme"`
	// CompletionCycles is the parallel-region completion time.
	CompletionCycles uint64 `json:"completion_cycles"`
	// TimeBreakdown maps §3.4 component names to per-core average cycles.
	TimeBreakdown map[string]uint64 `json:"time_breakdown"`
	// EnergyPJ maps Figure-6 component names to picojoules.
	EnergyPJ map[string]float64 `json:"energy_pj"`
	// Misses maps miss-type names to access counts.
	Misses map[string]uint64 `json:"misses"`
	// RunLengthShares maps "class bucket" (e.g. "shared-rw [>=10]") to the
	// fraction of LLC accesses, when Options.TrackRuns was set.
	RunLengthShares map[string]float64 `json:"run_length_shares,omitempty"`
	// Ops is the total number of memory references executed.
	Ops uint64 `json:"ops"`
}

// EnergyTotalPJ returns the total dynamic energy of the run.
func (r *Result) EnergyTotalPJ() float64 {
	var t float64
	for _, v := range r.EnergyPJ {
		t += v
	}
	return t
}

// TotalTime returns the sum of the time-breakdown components (the average
// per-core busy time).
func (r *Result) TotalTime() uint64 {
	var t uint64
	for _, v := range r.TimeBreakdown {
		t += v
	}
	return t
}

// Benchmarks returns the 21 benchmark names in figure order.
func Benchmarks() []string { return trace.Names() }

// Run simulates one benchmark under one scheme and returns the result.
func Run(benchmark string, s Scheme, o Options) (*Result, error) {
	prof, cfg, opt, _, err := plan(benchmark, s, o)
	if err != nil {
		return nil, err
	}
	res := sim.Run(cfg, prof, opt)
	return export(res), nil
}

// plan resolves (benchmark, s, o) into everything a store-backed run
// needs: the workload profile, the validated configuration and options,
// and the canonical spec. Keeping this in one place guarantees KeyFor,
// LookupStored and RunWithStore can never disagree about a run's address.
func plan(benchmark string, s Scheme, o Options) (trace.Profile, *config.Config, sim.Options, resultstore.Spec, error) {
	prof, err := trace.ProfileByName(benchmark)
	if err != nil {
		return trace.Profile{}, nil, sim.Options{}, resultstore.Spec{}, err
	}
	cfg, opt, err := buildConfig(s, o)
	if err != nil {
		return trace.Profile{}, nil, sim.Options{}, resultstore.Spec{}, err
	}
	return prof, cfg, opt, resultstore.SpecFor(benchmark, cfg, opt), nil
}

// KeyFor returns the canonical content address of (benchmark, s, o): the
// key under which a result store caches this run. Two requests have the
// same key exactly when they are guaranteed to produce the same Result.
func KeyFor(benchmark string, s Scheme, o Options) (string, error) {
	_, _, _, spec, err := plan(benchmark, s, o)
	if err != nil {
		return "", err
	}
	return spec.Key(), nil
}

// LookupStored peeks at a result store: it returns the stored result for
// (benchmark, s, o) if one exists, without ever simulating.
func LookupStored(st *resultstore.Store, benchmark string, s Scheme, o Options) (*Result, bool, error) {
	_, _, _, spec, err := plan(benchmark, s, o)
	if err != nil {
		return nil, false, err
	}
	res, ok, err := st.Get(spec)
	if err != nil || !ok {
		return nil, false, err
	}
	return export(res), true, nil
}

// RunWithStore is Run backed by a result store: a previously computed
// (benchmark, scheme, options) run is served from the store without
// simulating, and a fresh run is stored before returning. The bool reports
// whether the result came from cache.
func RunWithStore(st *resultstore.Store, benchmark string, s Scheme, o Options) (*Result, bool, error) {
	return RunWithStoreProgress(context.Background(), st, benchmark, s, o, nil)
}

// ProgressFunc observes a running simulation: done is the number of memory
// operations retired so far, total the run's full operation count. It is
// called every few thousand simulated operations and once at completion
// with done == total; implementations must be fast and must not block.
type ProgressFunc func(done, total uint64)

// RunWithProgress is Run with a live progress observer. Progress is
// execution plumbing, not run identity: the result (and, under a store,
// its content address) is identical to an unobserved run.
func RunWithProgress(benchmark string, s Scheme, o Options, p ProgressFunc) (*Result, error) {
	prof, cfg, opt, _, err := plan(benchmark, s, o)
	if err != nil {
		return nil, err
	}
	if p != nil {
		opt.Progress = p
	}
	res := sim.Run(cfg, prof, opt)
	return export(res), nil
}

// RunWithStoreProgress is the execution engine's run primitive:
// RunWithStore plus a progress observer and context cancellation. A
// cancelled ctx interrupts the simulation at its next progress-cadence
// check and returns ctx's error; nothing is stored for an interrupted
// run, so a later resubmission simulates afresh. Store hits return
// instantly (with no intermediate progress callbacks — there is nothing
// to watch).
func RunWithStoreProgress(ctx context.Context, st *resultstore.Store, benchmark string, s Scheme, o Options, p ProgressFunc) (*Result, bool, error) {
	prof, cfg, opt, spec, err := plan(benchmark, s, o)
	if err != nil {
		return nil, false, err
	}
	if p != nil {
		opt.Progress = p
	}
	if ctx != nil && ctx.Done() != nil {
		opt.Interrupt = ctx.Done()
	}
	res, cached, err := st.GetOrCompute(spec, func() (*sim.Result, error) {
		r := sim.Run(cfg, prof, opt)
		if r == nil {
			// The only way sim.Run returns nil is the interrupt firing.
			if err := ctx.Err(); err != nil {
				return nil, err
			}
			return nil, context.Canceled
		}
		return r, nil
	})
	if err != nil {
		return nil, false, err
	}
	return export(res), cached, nil
}

// buildConfig translates the public Scheme/Options into the internal
// configuration through the scheme registry (see schemes.go): the kind
// resolves to its registered definition, which validates and applies the
// parameters its policy consumes. The scheme-independent knobs (replacement
// policy, ablation switches) apply uniformly afterwards.
func buildConfig(s Scheme, o Options) (*config.Config, sim.Options, error) {
	def, err := defFor(s.Kind)
	if err != nil {
		return nil, sim.Options{}, err
	}
	if def.validate != nil {
		if err := def.validate(s); err != nil {
			return nil, sim.Options{}, err
		}
	}
	cfg, err := config.ForCores(o.Cores)
	if err != nil {
		return nil, sim.Options{}, err
	}
	opt := sim.Options{
		Scheme:          def.engine,
		Seed:            o.Seed,
		OpsScale:        o.OpsScale,
		CheckInvariants: o.CheckInvariants,
		TrackRuns:       o.TrackRuns,
		Timing:          o.Timing,
		Telemetry:       o.Telemetry,
	}
	if def.apply != nil {
		def.apply(s, cfg, &opt)
	}
	if s.PlainLRU {
		cfg.Replacement = config.PlainLRU
	}
	if s.TLH {
		cfg.Replacement = config.TLHLRU
	}
	cfg.KeepL1OnReplicaEvict = s.KeepL1OnReplicaEvict
	cfg.LookupOracle = s.LookupOracle
	if err := cfg.Validate(); err != nil {
		return nil, sim.Options{}, err
	}
	return cfg, opt, nil
}

// export converts the internal result to the public shape.
func export(r *sim.Result) *Result {
	out := &Result{
		Benchmark:        r.Benchmark,
		Scheme:           r.Scheme,
		CompletionCycles: uint64(r.CompletionTime),
		TimeBreakdown:    make(map[string]uint64, stats.NumTimeComponents),
		EnergyPJ:         make(map[string]float64, energy.NumComponents),
		Misses:           make(map[string]uint64, stats.NumMissTypes),
		Ops:              r.Ops,
	}
	for i := 0; i < stats.NumTimeComponents; i++ {
		out.TimeBreakdown[stats.TimeComponent(i).String()] = uint64(r.Time[i])
	}
	for i := 0; i < energy.NumComponents; i++ {
		out.EnergyPJ[energy.Component(i).String()] = r.EnergyPJ[i]
	}
	for i := 0; i < stats.NumMissTypes; i++ {
		out.Misses[stats.MissType(i).String()] = r.Miss[i]
	}
	if r.Runs != nil {
		out.RunLengthShares = make(map[string]float64)
		for c := 0; c < mem.NumDataClasses; c++ {
			for b := 0; b < stats.NumRunBuckets; b++ {
				key := fmt.Sprintf("%s %s", mem.DataClass(c), stats.RunBucket(b))
				out.RunLengthShares[key] = r.Runs.Share(mem.DataClass(c), stats.RunBucket(b))
			}
		}
	}
	return out
}
