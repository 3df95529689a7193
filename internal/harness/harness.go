// Package harness regenerates every table and figure of the paper's
// evaluation (§4): the scheme-comparison matrices of Figures 6-8, the
// Limited-k sensitivity of Figure 9, the cluster-size sensitivity of Figure
// 10, the run-length motivation data of Figure 1, and the §4.2 replacement-
// policy and §2.3.2 lookup-oracle ablations. cmd/lard-bench and the
// repository's Go benchmarks are thin wrappers over this package.
package harness

import (
	"fmt"
	"runtime"
	"sync"

	"lard/internal/coherence"
	"lard/internal/config"
	"lard/internal/resultstore"
	"lard/internal/sim"
	"lard/internal/trace"
)

// Base configures a whole experiment campaign.
type Base struct {
	// Cores selects the machine: 64 (Table 1), 16 or 4 (scaled-down);
	// 0 defaults to 64. Any other value is rejected.
	Cores int
	// OpsScale scales per-core operation counts.
	OpsScale float64
	// Seed selects the workload instance.
	Seed uint64
	// Parallelism bounds concurrent simulations (0 = GOMAXPROCS).
	Parallelism int
	// Benchmarks restricts the benchmark set (nil = all 21).
	Benchmarks []string
	// Store, when non-nil, caches every simulation by its content address:
	// repeated campaigns over the same (config, scheme, benchmark, seed,
	// scale) reuse stored results instead of re-simulating.
	Store *resultstore.Store
	// Progress, when non-nil, observes the campaign live: every few
	// thousand simulated operations of every member, plus one observation
	// per finished member. Under RunMatrix the observations carry
	// campaign-level aggregation (members finished, overall fraction);
	// standalone Run reports the single member alone. Observations may
	// arrive concurrently from the matrix workers but are serialized — the
	// callback is never invoked twice at once.
	Progress func(CampaignProgress)

	// agg is the matrix-level aggregator RunMatrix installs; standalone
	// runs leave it nil and report member-only progress.
	agg *matrixAgg
}

// CampaignProgress is one observation of a running campaign.
type CampaignProgress struct {
	// Bench and Label identify the member that advanced.
	Bench, Label string
	// MemberDone/MemberTotal are the member's simulated-operation progress
	// (done == total on completion; a store-cached member reports only its
	// completion, with the stored run's operation count on both sides).
	MemberDone, MemberTotal uint64
	// MembersFinished and Members count whole member runs at campaign
	// level (1 total for a standalone Run).
	MembersFinished, Members int
	// Overall is the aggregate campaign fraction in [0,1]: finished
	// members count 1, in-flight members their current fraction.
	Overall float64
}

// matrixAgg aggregates per-member fractions into one campaign fraction.
type matrixAgg struct {
	mu       sync.Mutex
	members  int
	finished int
	inflight map[string]float64
}

func newMatrixAgg(members int) *matrixAgg {
	return &matrixAgg{members: members, inflight: make(map[string]float64)}
}

func (a *matrixAgg) overallLocked() float64 {
	s := float64(a.finished)
	for _, f := range a.inflight {
		s += f
	}
	return s / float64(a.members)
}

// observe records an in-flight member fraction; finish retires a member.
// Both fill the campaign-level fields of cp and invoke emit under the
// aggregator lock, so observers see a serialized, consistent stream.
func (a *matrixAgg) observe(key string, frac float64, cp CampaignProgress, emit func(CampaignProgress)) {
	a.mu.Lock()
	defer a.mu.Unlock()
	a.inflight[key] = frac
	cp.MembersFinished, cp.Members, cp.Overall = a.finished, a.members, a.overallLocked()
	emit(cp)
}

func (a *matrixAgg) finish(key string, cp CampaignProgress, emit func(CampaignProgress)) {
	a.mu.Lock()
	defer a.mu.Unlock()
	delete(a.inflight, key)
	a.finished++
	cp.MembersFinished, cp.Members, cp.Overall = a.finished, a.members, a.overallLocked()
	emit(cp)
}

// report routes one member observation through the matrix aggregator when
// RunMatrix installed one, or straight to the observer for standalone runs.
func (b Base) report(bench, label string, done, total uint64, finished bool) {
	if b.Progress == nil {
		return
	}
	cp := CampaignProgress{Bench: bench, Label: label, MemberDone: done, MemberTotal: total, Members: 1}
	frac := 0.0
	if total > 0 {
		frac = float64(done) / float64(total)
	}
	key := bench + "\x00" + label
	switch {
	case b.agg == nil:
		if finished {
			cp.MembersFinished = 1
		}
		cp.Overall = frac
		b.Progress(cp)
	case finished:
		b.agg.finish(key, cp, b.Progress)
	default:
		b.agg.observe(key, frac, cp, b.Progress)
	}
}

// memberObserver is the sim-level progress callback for one member.
func (b Base) memberObserver(bench, label string) func(done, total uint64) {
	if b.Progress == nil {
		return nil
	}
	// Completion at campaign level is reported separately when the member
	// truly retires (a member may span several simulations, as AutoASR
	// does), so even done == total reports here as in-flight.
	return func(done, total uint64) {
		b.report(bench, label, done, total, false)
	}
}

// StoreSummary renders the campaign's cache effectiveness after a run —
// simulations actually executed versus results served from memory, the
// persistent backend, or shared in-flight computations — plus, when the
// store is backed by a locality-aware replicated tier, the replication
// ledger (replica hits versus owner fetches). It returns "" without a
// store.
func (b Base) StoreSummary() string {
	if b.Store == nil {
		return ""
	}
	st := b.Store.Stats()
	s := fmt.Sprintf("store: %d simulated, %d from memory, %d from backend, %d shared in flight",
		st.Computes, st.MemHits, st.DiskHits, st.Shared)
	if bs, ok := b.Store.BackendStats(); ok {
		if bs.Entries >= 0 {
			s += fmt.Sprintf("; %s backend: %d entries", bs.Kind, bs.Entries)
		}
		if bs.Replication != nil {
			r := bs.Replication
			s += fmt.Sprintf("; replication: %d replica hits, %d owner fetches, %d promotions",
				r.ReplicaHits, r.OwnerFetches, r.Promotions)
		}
	}
	return s
}

// simulate runs one fully-configured simulation, through the result store
// when the campaign has one.
func (b Base) simulate(cfg *config.Config, prof trace.Profile, opt sim.Options) (*sim.Result, error) {
	if b.Store == nil {
		return sim.Run(cfg, prof, opt), nil
	}
	res, _, err := b.Store.GetOrCompute(resultstore.SpecFor(prof.Name, cfg, opt),
		func() (*sim.Result, error) { return sim.Run(cfg, prof, opt), nil })
	return res, err
}

// cores returns the effective core count (0 defaults to 64). It does not
// validate; config does.
func (b Base) cores() int {
	if b.Cores == 0 {
		return 64
	}
	return b.Cores
}

// config builds the machine configuration for the campaign. Like
// lard.buildConfig, it resolves the core count through config.ForCores —
// a typo such as Cores: 46 must fail loudly, not silently simulate the
// 64-core machine.
func (b Base) config() (*config.Config, error) {
	return config.ForCores(b.Cores)
}

func (b Base) benchmarks() []string {
	if len(b.Benchmarks) > 0 {
		return b.Benchmarks
	}
	return trace.Names()
}

// Variant is one scheme configuration column of a figure.
type Variant struct {
	// Label is the column header (figure nomenclature).
	Label string
	// Scheme is the LLC management scheme.
	Scheme coherence.Scheme
	// RT, K and Cluster parameterize the locality-aware protocol
	// (K: -1 = Complete classifier, otherwise Limited-K).
	RT, K, Cluster int
	// ASRLevel is ASR's replication level; AutoASR selects the best of the
	// five levels by energy-delay product per benchmark (§3.3).
	ASRLevel float64
	AutoASR  bool
	// PlainLRU selects traditional LRU LLC replacement (§4.2 ablation).
	PlainLRU bool
	// TLH selects the temporal-locality-hint LRU alternative of §2.2.4.
	TLH bool
	// KeepL1 selects the §2.2.3 keep-L1-on-replica-eviction strategy.
	KeepL1 bool
	// Oracle enables the §2.3.2 perfect local-lookup oracle.
	Oracle bool
	// TrackRuns enables the Figure-1 histogram.
	TrackRuns bool
}

// StandardVariants returns the scheme columns of Figures 6-8 (the seven
// paper columns, in figure order), derived from the standard columns each
// scheme's registry descriptor declares: a registered scheme appears in the
// main matrix exactly when its Descriptor lists Columns.
func StandardVariants() []Variant {
	var vs []Variant
	for _, d := range coherence.Registered() {
		for _, col := range d.Columns {
			vs = append(vs, Variant{
				Label:    col.Label,
				Scheme:   d.Scheme,
				RT:       col.RT,
				K:        col.K,
				Cluster:  col.Cluster,
				ASRLevel: col.ASRLevel,
				AutoASR:  col.AutoTune,
			})
		}
	}
	return vs
}

// ASRLevels are the five replication levels evaluated for ASR (§3.3).
var ASRLevels = []float64{0, 0.25, 0.5, 0.75, 1}

// Run executes one (benchmark, variant) simulation.
func Run(base Base, bench string, v Variant) (*sim.Result, error) {
	prof, err := trace.ProfileByName(bench)
	if err != nil {
		return nil, err
	}
	if v.AutoASR {
		return runAutoASR(base, prof, v)
	}
	cfg, err := base.config()
	if err != nil {
		return nil, err
	}
	if err := applyVariant(cfg, v); err != nil {
		return nil, err
	}
	if err := cfg.Validate(); err != nil {
		return nil, fmt.Errorf("harness: %s/%s: %w", bench, v.Label, err)
	}
	res, err := base.simulate(cfg, prof, sim.Options{
		Scheme:    v.Scheme,
		ASRLevel:  v.ASRLevel,
		Seed:      base.Seed,
		OpsScale:  base.OpsScale,
		TrackRuns: v.TrackRuns,
		Progress:  base.memberObserver(bench, v.Label),
	})
	if err != nil {
		return nil, err
	}
	res.Scheme = v.Label
	base.report(bench, v.Label, res.Ops, res.Ops, true)
	return res, nil
}

// runAutoASR evaluates the five ASR replication levels and returns the run
// with the lowest energy-delay product, as the paper's methodology does.
// The levels are independent simulations (distinct engines, no shared
// mutable state), so they run concurrently; the pick itself stays a
// sequential index-ordered scan, preserving the earliest-level tie-break of
// the original loop.
func runAutoASR(base Base, prof trace.Profile, v Variant) (*sim.Result, error) {
	cfg, err := base.config()
	if err != nil {
		return nil, err
	}
	if err := applyVariant(cfg, v); err != nil {
		return nil, err
	}
	if err := cfg.Validate(); err != nil {
		return nil, fmt.Errorf("harness: %s/%s: %w", prof.Name, v.Label, err)
	}
	levels := uint64(len(ASRLevels))

	// The member's progress spans the five level evaluations. Levels now
	// advance concurrently, so the member fraction is the mutex-guarded sum
	// of per-level done counts — monotonic even though per-level reports
	// interleave arbitrarily.
	var pmu sync.Mutex
	doneByLevel := make([]uint64, len(ASRLevels))
	observe := func(lvl int, done, total uint64) {
		pmu.Lock()
		defer pmu.Unlock()
		doneByLevel[lvl] = done
		var sum uint64
		for _, d := range doneByLevel {
			sum += d
		}
		// Reported under pmu so the observer stays serialized even for
		// standalone runs, where report calls it directly.
		base.report(prof.Name, v.Label, sum, levels*total, false)
	}

	results := make([]*sim.Result, len(ASRLevels))
	errs := make([]error, len(ASRLevels))
	var wg sync.WaitGroup
	for i, level := range ASRLevels {
		opt := sim.Options{
			Scheme:    coherence.ASR,
			ASRLevel:  level,
			Seed:      base.Seed,
			OpsScale:  base.OpsScale,
			TrackRuns: v.TrackRuns,
		}
		if base.Progress != nil {
			lvl := i
			opt.Progress = func(done, total uint64) { observe(lvl, done, total) }
		}
		wg.Add(1)
		go func(i int, opt sim.Options) {
			defer wg.Done()
			results[i], errs[i] = base.simulate(cfg, prof, opt)
		}(i, opt)
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return nil, err
		}
	}
	var best *sim.Result
	bestEDP := 0.0
	for _, res := range results {
		edp := res.EnergyTotal() * float64(res.CompletionTime)
		if best == nil || edp < bestEDP {
			best, bestEDP = res, edp
		}
	}
	best.Scheme = v.Label
	base.report(prof.Name, v.Label, best.Ops, best.Ops, true)
	return best, nil
}

// applyVariant maps a variant onto the architectural configuration, driven
// by the variant scheme's registry descriptor. Like lard.buildConfig, it
// rejects a threshold-gated variant without an explicit threshold: silently
// simulating the config default under the variant's label would mislabel
// every downstream table and store entry.
func applyVariant(cfg *config.Config, v Variant) error {
	d, ok := coherence.Describe(v.Scheme)
	if !ok {
		return fmt.Errorf("harness: variant %q: scheme %d is not registered", v.Label, uint8(v.Scheme))
	}
	if d.ThresholdRT {
		if v.RT < 1 {
			return fmt.Errorf("harness: variant %q: %s scheme requires RT >= 1, got %d", v.Label, d.Name, v.RT)
		}
		if v.RT > 255 {
			// The reuse counters that must reach the threshold are 8 bits
			// wide (§2.4.1); a larger threshold could never fire.
			return fmt.Errorf("harness: variant %q: %s threshold %d exceeds the 8-bit reuse counters", v.Label, d.Name, v.RT)
		}
		cfg.RT = v.RT
		switch {
		case v.K < 0:
			cfg.ClassifierK = 0 // Complete
		case v.K > 0:
			cfg.ClassifierK = v.K
		}
		if v.Cluster > 0 {
			cfg.ClusterSize = v.Cluster
		}
	}
	if v.PlainLRU {
		cfg.Replacement = config.PlainLRU
	}
	if v.TLH {
		cfg.Replacement = config.TLHLRU
	}
	cfg.KeepL1OnReplicaEvict = v.KeepL1
	cfg.LookupOracle = v.Oracle
	return nil
}

// Matrix holds the results of a benchmark x variant campaign.
type Matrix struct {
	Benches  []string
	Variants []Variant
	// Results[bench][label] is the run result.
	Results map[string]map[string]*sim.Result
}

// RunMatrix executes every (benchmark, variant) pair, fanning the
// independent simulations out over Parallelism workers.
func RunMatrix(base Base, variants []Variant) (*Matrix, error) {
	benches := base.benchmarks()
	m := &Matrix{
		Benches:  benches,
		Variants: variants,
		Results:  make(map[string]map[string]*sim.Result, len(benches)),
	}
	for _, b := range benches {
		m.Results[b] = make(map[string]*sim.Result, len(variants))
	}
	type job struct {
		bench string
		v     Variant
	}
	jobs := make(chan job)
	if base.Progress != nil {
		// Matrix-level aggregation: every member observation from here on
		// carries (finished, total, overall) across the whole matrix.
		base.agg = newMatrixAgg(len(benches) * len(variants))
	}
	par := base.Parallelism
	if par <= 0 {
		par = runtime.GOMAXPROCS(0)
	}
	var (
		mu       sync.Mutex
		firstErr error
		wg       sync.WaitGroup
	)
	for w := 0; w < par; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for j := range jobs {
				res, err := Run(base, j.bench, j.v)
				mu.Lock()
				if err != nil && firstErr == nil {
					firstErr = err
				}
				if err == nil {
					m.Results[j.bench][j.v.Label] = res
				}
				mu.Unlock()
			}
		}()
	}
	for _, b := range benches {
		for _, v := range variants {
			jobs <- job{b, v}
		}
	}
	close(jobs)
	wg.Wait()
	if firstErr != nil {
		return nil, firstErr
	}
	return m, nil
}

// Get returns the result for (bench, label).
func (m *Matrix) Get(bench, label string) *sim.Result { return m.Results[bench][label] }
