// Package dram models the off-chip memory subsystem of Table 1: a number of
// on-die memory controllers (8 in the default configuration) placed at fixed
// mesh tiles, each with a fixed access latency (75 ns) and a finite bandwidth
// of 5 GB/s that is modelled as a per-controller service queue: each
// cache-line transfer occupies the controller for DRAMCyclesPerLine cycles,
// and overlapping requests queue behind one another.
package dram

import (
	"lard/internal/energy"
	"lard/internal/mem"
)

// Subsystem is the set of memory controllers.
type Subsystem struct {
	tiles    []mem.CoreID // tile hosting each controller
	free     []mem.Cycles // first idle cycle per controller
	latency  mem.Cycles
	perLine  mem.Cycles
	meter    *energy.Meter
	accessPJ float64
	accesses uint64
	queued   mem.Cycles // total queueing delay, for stats
}

// New returns a subsystem with n controllers spread evenly over a cores-tile
// chip. meter may be nil.
func New(n, cores int, latency, perLine mem.Cycles, meter *energy.Meter, accessPJ float64) *Subsystem {
	if n <= 0 || cores <= 0 || n > cores {
		panic("dram: controller count out of range")
	}
	// Controllers alternate between the top and bottom rows of the mesh,
	// spread across the columns (the conventional edge placement): column-0
	// clustering would turn the left column of links into a hot spot.
	w := 1
	for w*w < cores {
		w++
	}
	tiles := make([]mem.CoreID, n)
	for i := range tiles {
		col := (i * w) / n * 2
		if n <= w {
			col = (i * w) / n
		}
		col %= w
		if i%2 == 0 {
			tiles[i] = mem.CoreID(col) // top row
		} else {
			tiles[i] = mem.CoreID((w-1)*w + col) // bottom row
		}
	}
	return &Subsystem{
		tiles:   tiles,
		free:    make([]mem.Cycles, n),
		latency: latency,
		perLine: perLine,
		meter:   meter, accessPJ: accessPJ,
	}
}

// Controllers returns the number of controllers.
func (s *Subsystem) Controllers() int { return len(s.tiles) }

// ControllerFor returns the controller index serving line a (address
// interleaved).
func (s *Subsystem) ControllerFor(a mem.LineAddr) int { return int(uint64(a) % uint64(len(s.tiles))) }

// TileOf returns the mesh tile hosting controller i.
func (s *Subsystem) TileOf(i int) mem.CoreID { return s.tiles[i] }

// Access performs one line transfer (read or write) on controller i arriving
// at cycle at, and returns the cycle at which the data is available (reads)
// or committed (writes): queueing + occupancy + fixed latency.
func (s *Subsystem) Access(i int, at mem.Cycles) mem.Cycles {
	start := at
	if s.free[i] > start {
		start = s.free[i]
	}
	s.queued += start - at
	s.free[i] = start + s.perLine
	s.accesses++
	if s.meter != nil {
		s.meter.Add(energy.DRAM, s.accessPJ)
	}
	return start + s.perLine + s.latency
}

// Accesses returns the number of line transfers served.
func (s *Subsystem) Accesses() uint64 { return s.accesses }

// QueuedCycles returns the cumulative queueing delay across all requests.
func (s *Subsystem) QueuedCycles() mem.Cycles { return s.queued }
