// Package sim executes a workload on the coherence engine: it interleaves
// the per-core streams in global event order (each core is the paper's
// in-order, single-issue, 1-IPC pipeline that blocks on its memory
// accesses), implements the barrier synchronization of the parallel region,
// and aggregates the §3.4 metrics: completion time and its breakdown, the
// energy breakdown, L1 miss types, and the Figure-1 run-length histogram.
package sim

import (
	"math/bits"
	"time"

	"lard/internal/coherence"
	"lard/internal/config"
	"lard/internal/energy"
	"lard/internal/mem"
	"lard/internal/obs"
	"lard/internal/stats"
	"lard/internal/trace"
)

// Options configure one simulation run.
//
// The Progress/ProgressEvery/Interrupt/Timing fields are execution
// plumbing, not run identity: they are excluded from JSON encoding (and
// therefore from every resultstore content address — two runs that differ
// only in their observers are the same run) and must never change the
// simulated outcome.
//
// Identity fields carry explicit json tags spelling their Go names: the
// encoding predates the tags and existing content addresses are frozen,
// so the tags pin today's byte-exact encoding rather than restyle it.
// Every field must declare one side or the other; lard-lint's keyneutral
// check rejects untagged additions.
type Options struct {
	// Scheme is the LLC management scheme.
	Scheme coherence.Scheme `json:"Scheme"`
	// ASRLevel is ASR's replication probability level.
	ASRLevel float64 `json:"ASRLevel"`
	// Seed drives workload generation and ASR's lottery.
	Seed uint64 `json:"Seed"`
	// OpsScale scales per-core operation counts (1.0 = profile nominal).
	OpsScale float64 `json:"OpsScale"`
	// CheckInvariants enables the SWMR/inclusion checker.
	CheckInvariants bool `json:"CheckInvariants"`
	// TrackRuns enables the Figure-1 run-length tracker.
	TrackRuns bool `json:"TrackRuns"`
	// Progress, when non-nil, is invoked every ProgressEvery executed
	// memory operations with (operations retired, total operations), and
	// once more at completion with done == total. A nil Progress costs
	// nothing on the hot path.
	Progress func(done, total uint64) `json:"-"`
	// ProgressEvery is the Progress/Interrupt check cadence in executed
	// operations (0 = DefaultProgressEvery). Only consulted when Progress
	// or Interrupt is set.
	ProgressEvery uint64 `json:"-"`
	// Interrupt, when non-nil, aborts the run early: it is polled at the
	// ProgressEvery cadence and, once it is closed (or delivers), Run
	// returns nil instead of a Result. Wire a context's Done channel here
	// to make a simulation cancellable.
	Interrupt <-chan struct{} `json:"-"`
	// Timing, when non-nil, receives the run's wall-clock phase breakdown
	// (see Timing). Like the other observers it is key-neutral and costs
	// nothing on the per-operation hot path: phases are stamped at the four
	// phase boundaries, and trace refills inside the loop once per chunk.
	Timing *Timing `json:"-"`
	// Telemetry, when non-nil, receives epoch-resolved counter samples at
	// the same checkEvery cadence as Progress/Interrupt (plus one final
	// sample, then Flush, on every exit path). Key-neutral like the other
	// observers, and result-neutral: sampling only reads counters the
	// engine and run loop already maintain.
	Telemetry *obs.Recorder `json:"-"`
}

// DefaultProgressEvery is the default Progress/Interrupt polling cadence,
// in executed memory operations: frequent enough that even scaled-down
// test runs report intermediate fractions, rare enough to stay invisible
// next to the per-operation simulation cost.
const DefaultProgressEvery = 4096

// Result is the outcome of one (benchmark, scheme) run.
type Result struct {
	// Benchmark and Scheme identify the run.
	Benchmark string
	Scheme    string
	// Cores is the simulated core count.
	Cores int
	// Ops is the total number of memory references executed.
	Ops uint64
	// CompletionTime is the parallel-region completion time (the slowest
	// core's finish cycle).
	CompletionTime mem.Cycles
	// Time is the per-core average latency breakdown; its Total() equals
	// the average per-core busy time and tracks CompletionTime.
	Time stats.TimeBreakdown
	// EnergyPJ is the per-component dynamic energy in picojoules.
	EnergyPJ [energy.NumComponents]float64
	// Miss counts accesses by service point.
	Miss stats.MissCounts
	// Runs is the Figure-1 histogram (nil unless TrackRuns).
	Runs *stats.RunLengthHist
	// PageReclassifications counts R-NUCA private->shared transitions.
	PageReclassifications uint64
}

// Clone returns an independent deep copy: mutating the clone (for example
// relabeling Scheme) never affects r. Result is a value struct except for
// the optional Runs histogram, which is copied.
func (r *Result) Clone() *Result {
	c := *r
	if r.Runs != nil {
		h := *r.Runs
		c.Runs = &h
	}
	return &c
}

// EnergyTotal returns the total dynamic energy in picojoules.
func (r *Result) EnergyTotal() float64 {
	var t float64
	for _, v := range r.EnergyPJ {
		t += v
	}
	return t
}

// sched is the event scheduler. The simulated cores are the only event
// sources and each has at most one pending wake-up, so the general
// container/heap priority queue this loop used to run was overkill — and
// its interface-typed Push/Pop boxed one allocation per simulated
// operation onto the hot path (~98% of the simulator's allocations). The
// concrete replacement keeps one next-wake time per core and selects the
// minimum with an ascending linear scan: for the supported core counts
// (≤64) that is a few cache lines, allocation-free, and free of virtual
// Less/Swap dispatch. The event order is bit-identical to the heap's: the
// heap ordered events by (time, then core id), and a strict-< scan in
// ascending core order realizes exactly that total order.
type sched struct {
	next []mem.Cycles // per-core next wake time; schedIdle = no event
	// pending has bit c set while core c has a wake-up queued, so pop's
	// min-scan walks only the cores that can win instead of comparing
	// every idle lane's schedIdle sentinel. Core counts are capped at 64
	// (directory.MaxCores), so one word always suffices.
	pending uint64
	active  int // number of cores with a pending wake-up
}

// schedIdle marks a core with no pending event. Real wake times grow by
// bounded per-operation latencies from zero and can never reach it.
const schedIdle = ^mem.Cycles(0)

// opChunk is the per-core trace window, in operations: large enough to
// amortize the refill call, small enough that 64 cores' windows stay
// cache-resident next to the simulator's own state.
const opChunk = 256

// newSched returns a scheduler with all n cores pending at time 0.
func newSched(n int) *sched {
	pending := ^uint64(0)
	if n < 64 {
		pending = uint64(1)<<uint(n) - 1
	}
	return &sched{next: make([]mem.Cycles, n), pending: pending, active: n}
}

// pop removes and returns the earliest pending (time, core) pair, lowest
// core id on ties. Only valid while active > 0. Iterating the pending
// bits in ascending order with a strict < preserves the lowest-core
// tie-break of the full scan.
func (s *sched) pop() (mem.Cycles, mem.CoreID) {
	b := s.pending
	best := bits.TrailingZeros64(b)
	t := s.next[best]
	for b &= b - 1; b != 0; b &= b - 1 {
		i := bits.TrailingZeros64(b)
		if s.next[i] < t {
			best, t = i, s.next[i]
		}
	}
	s.pending &^= uint64(1) << uint(best)
	s.next[best] = schedIdle
	s.active--
	return t, mem.CoreID(best)
}

// push schedules core c's next wake-up at time t.
func (s *sched) push(t mem.Cycles, c mem.CoreID) {
	s.next[c] = t
	s.pending |= uint64(1) << uint(c)
	s.active++
}

// Run simulates profile p on configuration cfg and returns the aggregated
// result. Runs are deterministic for fixed inputs. When opt.Interrupt
// fires mid-run, Run stops at the next cadence check and returns nil — the
// only condition under which it does.
func Run(cfg *config.Config, p trace.Profile, opt Options) *Result {
	if opt.OpsScale == 0 {
		opt.OpsScale = 1
	}
	// Phase stamps touch the clock only at the four phase boundaries and
	// around each per-chunk trace refill, so an unset Timing costs nothing
	// and a set one stays invisible next to the per-operation simulation
	// cost. Phases accumulate in a local scratch copied out on every exit
	// path, so an interrupted run still reports the phases it completed.
	var tm Timing
	track := opt.Timing != nil
	var phaseStart time.Time
	if track {
		phaseStart = time.Now()
		tm.Start = phaseStart
	}
	lap := func(d *time.Duration) {
		if !track {
			return
		}
		now := time.Now()
		*d = now.Sub(phaseStart)
		phaseStart = now
	}
	eng := coherence.New(cfg, coherence.Options{
		Scheme:          opt.Scheme,
		ASRLevel:        opt.ASRLevel,
		Seed:            opt.Seed,
		CheckInvariants: opt.CheckInvariants,
		TrackRuns:       opt.TrackRuns,
	})
	lap(&tm.Setup)
	w := trace.Generate(p, cfg, opt.OpsScale, opt.Seed)
	lap(&tm.TraceDecode)

	n := cfg.Cores
	st := &runState{
		opt: &opt,
		eng: eng,
		w:   w,
		n:   n,
		sch: newSched(n),

		breakdown: make([]stats.TimeBreakdown, n),
		miss:      make([]stats.MissCounts, n),
		finish:    make([]mem.Cycles, n),
		atBarrier: make([]bool, n),
		arriveAt:  make([]mem.Cycles, n),
		running:   n,

		// Per-core chunk buffers: each stream refills a reusable window of
		// opChunk operations, so the steady-state loop reads the next
		// operation from a flat slice instead of paying a generator call per
		// access. One backing array serves all cores; pos==cnt marks an
		// empty window.
		bufs: make([]trace.Op, n*opChunk),
		pos:  make([]int, n),
		cnt:  make([]int, n),
	}

	// Progress/interrupt/telemetry cadence: checkEvery stays 0 when no
	// observer is wired, so the steady-state cost of this feature is one
	// predictable branch per operation (checkLeft counts down and resets,
	// sparing the hot path a modulo). Remaining() is exact here — the chunk
	// windows above are filled lazily, after this count.
	if opt.Progress != nil || opt.Interrupt != nil || opt.Telemetry != nil {
		st.checkEvery = opt.ProgressEvery
		if st.checkEvery == 0 {
			st.checkEvery = DefaultProgressEvery
		}
		st.checkLeft = st.checkEvery
		for c := 0; c < n; c++ {
			st.targetOps += uint64(w.Streams[c].Remaining())
		}
	}

	// Telemetry setup happens once per run (allocation is fine here); the
	// per-sample path reuses tscratch and never allocates.
	if opt.Telemetry != nil {
		st.rec = opt.Telemetry
		st.rec.Start(telemetrySeries)
		st.tscratch = make([]uint64, len(telemetrySeries))
	}

	// Trace synthesis continues inside the loop, one Fill per chunk; its
	// time moves from CoherenceLoop to TraceDecode so the phases still
	// partition Run's wall time.
	loopDone := func() {
		lap(&tm.CoherenceLoop)
		tm.CoherenceLoop -= st.fillTime
		tm.TraceDecode += st.fillTime
	}
	if st.runSequential() {
		if st.rec != nil {
			// Final sample + Flush: the partial timeline of an interrupted
			// run stays internally consistent.
			st.sampleTelemetry()
			st.rec.Flush()
		}
		if track {
			loopDone()
			*opt.Timing = tm
		}
		return nil
	}
	loopDone()
	if st.rec != nil {
		// Final sample (a zero-delta epoch when the op count landed exactly
		// on the cadence) + Flush: after this, every counter series sums to
		// its final cumulative value — "ops" to Result.Ops, the miss series
		// to Result.Miss — which is the conservation the timeline tests pin.
		st.sampleTelemetry()
		st.rec.Flush()
	}

	r := &Result{
		Benchmark:             p.Name,
		Scheme:                schemeLabel(cfg, opt),
		Cores:                 n,
		Ops:                   st.totalOps,
		CompletionTime:        st.completion,
		EnergyPJ:              eng.Meter().Breakdown(),
		PageReclassifications: eng.PageReclassifications(),
	}
	for c := 0; c < n; c++ {
		r.Time.Add(st.breakdown[c])
		r.Miss.Add(st.miss[c])
	}
	// Per-core average breakdown (what Figure 7 stacks).
	for i := range r.Time {
		r.Time[i] /= mem.Cycles(n)
	}
	if opt.TrackRuns {
		r.Runs = eng.RunHistogram()
	}
	if opt.Progress != nil {
		opt.Progress(st.totalOps, st.targetOps)
	}
	if track {
		lap(&tm.Finalize)
		*opt.Timing = tm
	}
	return r
}

// runState is the mutable state of one run: the event scheduler, the
// per-core aggregates and the per-core trace windows the event loop reads.
type runState struct {
	opt *Options
	eng *coherence.Engine
	w   *trace.Workload
	n   int

	sch        *sched
	breakdown  []stats.TimeBreakdown
	miss       []stats.MissCounts
	finish     []mem.Cycles
	atBarrier  []bool
	arriveAt   []mem.Cycles
	running    int
	waiting    int
	totalOps   uint64
	completion mem.Cycles

	bufs []trace.Op
	pos  []int
	cnt  []int

	checkEvery uint64
	checkLeft  uint64
	targetOps  uint64

	rec      *obs.Recorder
	tscratch []uint64

	// fillTime sums the wall time of the trace refills (measured only when
	// Options.Timing is wired), which Run credits to TraceDecode.
	fillTime time.Duration
}

// runSequential is the event loop: strict global (time, core) order, one
// access at a time. It returns true when the run was interrupted.
func (st *runState) runSequential() (interrupted bool) {
	sch, bufs, pos, cnt := st.sch, st.bufs, st.pos, st.cnt
	for sch.active > 0 {
		now, c := sch.pop()
		if pos[c] == cnt[c] {
			cnt[c] = st.fill(c)
			pos[c] = 0
		}
		if cnt[c] == 0 {
			st.coreFinished(c, now)
			continue
		}
		op := &bufs[int(c)*opChunk+pos[c]]
		pos[c]++
		if op.Barrier {
			st.coreAtBarrier(c, now)
			continue
		}
		t := now + mem.Cycles(op.Gap)
		res := st.eng.Access(c, t, coherence.Op{
			Type:  op.Type,
			Line:  mem.LineOf(op.Addr),
			Class: op.Class,
		})
		if st.commit(c, mem.Cycles(op.Gap), res) {
			return true
		}
	}
	return false
}

// fill refills core c's trace window and returns the number of operations
// it now holds (0 once the stream is drained).
func (st *runState) fill(c mem.CoreID) int {
	buf := st.bufs[int(c)*opChunk : (int(c)+1)*opChunk]
	if st.opt.Timing == nil {
		return st.w.Streams[c].Fill(buf)
	}
	start := time.Now()
	k := st.w.Streams[c].Fill(buf)
	st.fillTime += time.Since(start)
	return k
}

// coreFinished retires a drained core. A finished core can no longer reach
// a barrier; if everyone else is already waiting, release them.
func (st *runState) coreFinished(c mem.CoreID, now mem.Cycles) {
	st.finish[c] = now
	st.running--
	st.completion = max(st.completion, now)
	if st.waiting > 0 && st.waiting == st.running {
		releaseBarrier(st.sch, st.atBarrier, st.arriveAt, st.breakdown, &st.waiting)
	}
}

// coreAtBarrier parks a core at the barrier, releasing everyone when it is
// the last runner to arrive.
func (st *runState) coreAtBarrier(c mem.CoreID, now mem.Cycles) {
	st.atBarrier[c] = true
	st.arriveAt[c] = now
	st.waiting++
	if st.waiting == st.running {
		releaseBarrier(st.sch, st.atBarrier, st.arriveAt, st.breakdown, &st.waiting)
	}
}

// commit applies one executed access to the run aggregates, does the
// cadence work (interrupt polling, progress, telemetry epochs) and
// reschedules the core. It returns true when the run was interrupted.
func (st *runState) commit(c mem.CoreID, gap mem.Cycles, res coherence.AccessResult) (stop bool) {
	st.breakdown[c][stats.Compute] += gap
	st.breakdown[c].Add(res.Breakdown)
	st.miss[c][res.Miss]++
	st.totalOps++
	if st.checkEvery != 0 {
		st.checkLeft--
		if st.checkLeft == 0 {
			st.checkLeft = st.checkEvery
			if st.opt.Interrupt != nil {
				select {
				case <-st.opt.Interrupt:
					return true
				default:
				}
			}
			if st.opt.Progress != nil {
				st.opt.Progress(st.totalOps, st.targetOps)
			}
			if st.rec != nil {
				st.sampleTelemetry()
			}
		}
	}
	st.sch.push(res.Done, c)
	return false
}

// sampleTelemetry records one epoch sample from the run's live counters.
func (st *runState) sampleTelemetry() {
	fillTelemetry(st.tscratch, st.eng, st.totalOps, st.breakdown, st.miss)
	st.rec.Sample(st.tscratch)
}

// releaseBarrier wakes every parked core at the latest arrival time,
// charging the wait to the Synchronization component.
func releaseBarrier(sch *sched, atBarrier []bool, arriveAt []mem.Cycles, breakdown []stats.TimeBreakdown, waiting *int) {
	var tmax mem.Cycles
	for c := range atBarrier {
		if atBarrier[c] {
			tmax = max(tmax, arriveAt[c])
		}
	}
	for c := range atBarrier {
		if atBarrier[c] {
			breakdown[c][stats.Synchronization] += tmax - arriveAt[c]
			atBarrier[c] = false
			sch.push(tmax, mem.CoreID(c))
		}
	}
	*waiting = 0
}

// schemeLabel renders the run's scheme the way the figures label it
// (RT-<threshold> for the locality-aware protocol), as declared by the
// scheme's registry descriptor.
func schemeLabel(cfg *config.Config, opt Options) string {
	return coherence.LabelFor(opt.Scheme, cfg)
}
