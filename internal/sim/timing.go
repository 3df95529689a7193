package sim

import "time"

// Timing is the simulator's wall-clock phase breakdown, reported through
// the Options.Timing side channel. Like Progress and Interrupt it is
// execution plumbing, not run identity: the field is excluded from JSON
// encoding (and stripped by resultstore.SpecFor), so wiring a Timing can
// never change a run's content address or its simulated outcome.
//
// The phases partition Run's wall time:
//
//	Setup         — configuration validation and coherence-engine build
//	TraceDecode   — synthetic workload generation: the per-core stream
//	                set-up before the loop plus every Stream.Fill the loop
//	                makes (one per 256-operation chunk)
//	CoherenceLoop — the event loop minus those refills (the paper's
//	                simulated execution)
//	Finalize      — stats aggregation and energy accounting
//
// TraceDecode is therefore not one contiguous interval: its in-loop part
// is the sum of the refill calls, each timed only when Timing is wired.
// When the run is interrupted, only the phases completed so far are
// filled; CoherenceLoop and TraceDecode hold the partial loop's shares.
type Timing struct {
	// Start is the wall-clock instant Run began.
	Start time.Time
	// Per-phase durations; see the type comment for the partition.
	Setup         time.Duration
	TraceDecode   time.Duration
	CoherenceLoop time.Duration
	Finalize      time.Duration
}

// Total is the sum of the measured phases.
func (t *Timing) Total() time.Duration {
	return t.Setup + t.TraceDecode + t.CoherenceLoop + t.Finalize
}
