package sim

import (
	"lard/internal/coherence"
	"lard/internal/obs"
	"lard/internal/stats"
)

// telemetrySeries declares the epoch series every run records when
// Options.Telemetry is wired: the operation count and per-service-point
// miss counts the simulator already aggregates, the coherence engine's
// replica/classifier counters, the live directory population, and the
// per-component cycle totals behind the Figure-7 breakdown. All are
// cumulative at sampling time (directory_entries is a level); the
// Recorder differences counters into per-epoch deltas.
var telemetrySeries = []obs.SeriesDef{
	{Name: "ops", Kind: obs.Counter},
	{Name: "miss_l1_hit", Kind: obs.Counter},
	{Name: "miss_llc_replica_hit", Kind: obs.Counter},
	{Name: "miss_llc_home_hit", Kind: obs.Counter},
	{Name: "miss_offchip", Kind: obs.Counter},
	{Name: "replications", Kind: obs.Counter},
	{Name: "replica_evictions", Kind: obs.Counter},
	{Name: "invalidations", Kind: obs.Counter},
	{Name: "classifier_promotions", Kind: obs.Counter},
	{Name: "classifier_demotions", Kind: obs.Counter},
	{Name: "directory_entries", Kind: obs.Gauge},
	{Name: "cycles_compute", Kind: obs.Counter},
	{Name: "cycles_l1_to_llc_replica", Kind: obs.Counter},
	{Name: "cycles_l1_to_llc_home", Kind: obs.Counter},
	{Name: "cycles_llc_home_waiting", Kind: obs.Counter},
	{Name: "cycles_llc_home_to_sharers", Kind: obs.Counter},
	{Name: "cycles_llc_home_to_offchip", Kind: obs.Counter},
	{Name: "cycles_synchronization", Kind: obs.Counter},
}

// fillTelemetry writes the current cumulative counter values into
// scratch, in telemetrySeries order. It runs at epoch boundaries only
// (the checkEvery cadence) and never allocates: scratch is preallocated
// once per run, and everything read is either a field the engine already
// maintains or a sum over the per-core arrays the run loop owns.
func fillTelemetry(scratch []uint64, eng *coherence.Engine, totalOps uint64, breakdown []stats.TimeBreakdown, miss []stats.MissCounts) {
	var m stats.MissCounts
	for c := range miss {
		m.Add(miss[c])
	}
	var cyc stats.TimeBreakdown
	for c := range breakdown {
		cyc.Add(breakdown[c])
	}
	ct := eng.Telemetry()

	scratch[0] = totalOps
	scratch[1] = m[stats.L1Hit]
	scratch[2] = m[stats.LLCReplicaHit]
	scratch[3] = m[stats.LLCHomeHit]
	scratch[4] = m[stats.OffChipMiss]
	scratch[5] = ct.Replications
	scratch[6] = ct.ReplicaEvictions
	scratch[7] = ct.Invalidations
	scratch[8] = ct.ClassifierPromotions
	scratch[9] = ct.ClassifierDemotions
	scratch[10] = ct.DirectoryEntries
	scratch[11] = uint64(cyc[stats.Compute])
	scratch[12] = uint64(cyc[stats.L1ToLLCReplica])
	scratch[13] = uint64(cyc[stats.L1ToLLCHome])
	scratch[14] = uint64(cyc[stats.LLCHomeWaiting])
	scratch[15] = uint64(cyc[stats.LLCHomeToSharers])
	scratch[16] = uint64(cyc[stats.LLCHomeToOffChip])
	scratch[17] = uint64(cyc[stats.Synchronization])
}
