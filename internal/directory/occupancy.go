package directory

// Occupancy counts live directory entries — the in-cache directory's
// population, which tracks the resident home-line footprint. It exists
// for epoch telemetry: the coherence engine bumps it where entries
// enter and leave the simulated machine, and the simulator reads Live
// only at epoch boundaries. Plain (non-atomic) increments keep the hot
// path allocation- and contention-free; an engine is single-threaded by
// contract.
type Occupancy struct {
	live uint64
}

// Inc records one entry entering service (a fresh home fill).
func (o *Occupancy) Inc() { o.live++ }

// Dec records one entry leaving service (home eviction).
func (o *Occupancy) Dec() {
	if o.live > 0 {
		o.live--
	}
}

// Live returns the number of entries currently in service.
func (o *Occupancy) Live() uint64 { return o.live }
