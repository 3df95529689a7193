package sim

import (
	"testing"
	"time"

	"lard/internal/coherence"
	"lard/internal/config"
	"lard/internal/trace"
)

// TestTimingFilled checks the phase breakdown side channel: a run with a
// Timing wired fills every phase (the coherence loop dominating), and the
// phases partition the run's wall time — moving the in-loop trace refills
// from CoherenceLoop to TraceDecode must neither leave a phase negative nor
// make the phases sum to more than the wall time measured around Run.
func TestTimingFilled(t *testing.T) {
	p, err := trace.ProfileByName("BARNES")
	if err != nil {
		t.Fatal(err)
	}
	var tm Timing
	start := time.Now()
	r := Run(config.Small(), p, Options{Scheme: coherence.LocalityAware, OpsScale: 0.05, Timing: &tm})
	wall := time.Since(start)
	if r == nil {
		t.Fatal("run returned nil")
	}
	if tm.Start.IsZero() {
		t.Error("Timing.Start not stamped")
	}
	if tm.CoherenceLoop <= 0 || tm.TraceDecode <= 0 {
		t.Errorf("CoherenceLoop = %v, TraceDecode = %v, want both > 0", tm.CoherenceLoop, tm.TraceDecode)
	}
	if tm.Setup < 0 || tm.Finalize < 0 {
		t.Errorf("negative phase: %+v", tm)
	}
	if tm.Total() <= 0 || tm.Total() < tm.CoherenceLoop {
		t.Errorf("Total() = %v inconsistent with phases %+v", tm.Total(), tm)
	}
	if tm.Total() > wall {
		t.Errorf("Total() = %v exceeds the %v wall time around Run: %+v", tm.Total(), wall, tm)
	}
}

// TestTimingIsKeyNeutralAndDeterministic checks that wiring a Timing
// changes nothing about the simulated outcome: the result is identical to
// an unobserved run, field for field.
func TestTimingIsKeyNeutralAndDeterministic(t *testing.T) {
	bare := runSmall(t, coherence.LocalityAware, "DEDUP", Options{Seed: 7})
	var tm Timing
	timed := runSmall(t, coherence.LocalityAware, "DEDUP", Options{Seed: 7, Timing: &tm})
	if *bare != *timed {
		t.Errorf("timed run diverged from bare run:\nbare  %+v\ntimed %+v", bare, timed)
	}
	if tm.CoherenceLoop <= 0 {
		t.Error("Timing not filled")
	}
}

// TestTimingOnInterrupt checks that an interrupted run still reports the
// phases it completed, with the partial loop time in CoherenceLoop.
func TestTimingOnInterrupt(t *testing.T) {
	p, err := trace.ProfileByName("BARNES")
	if err != nil {
		t.Fatal(err)
	}
	ch := make(chan struct{})
	close(ch)
	var tm Timing
	r := Run(config.Small(), p, Options{
		Scheme:        coherence.SNUCA,
		OpsScale:      0.05,
		Interrupt:     ch,
		ProgressEvery: 64,
		Timing:        &tm,
	})
	if r != nil {
		t.Fatal("closed interrupt did not abort the run")
	}
	if tm.Start.IsZero() || tm.TraceDecode <= 0 {
		t.Errorf("interrupted run lost early phases: %+v", tm)
	}
	if tm.Finalize != 0 {
		t.Errorf("interrupted run claims a finalize phase: %+v", tm)
	}
}
