// Package energy implements the dynamic-energy accounting of the simulator.
//
// The paper evaluates dynamic energy with McPAT/CACTI (caches, directory,
// DRAM) and DSENT (network routers and links) at the 11 nm node. Those tools
// are not reproducible here, so this package substitutes a documented table
// of per-event energies whose *ratios* follow the published models: L1
// accesses are cheapest, LLC data accesses cost several times an L1 access,
// an LLC write costs 1.2x an LLC read (stated explicitly in §4.1), directory
// lookups are tag-array-sized, network energy is paid per flit per hop, and a
// DRAM line transfer costs two orders of magnitude more than an LLC access.
// Relative scheme comparisons (all the paper reports) are preserved under any
// constants with these orderings.
package energy

import "fmt"

// Component enumerates the energy breakdown categories plotted in Figure 6.
type Component uint8

// Breakdown components, in Figure 6 legend order.
const (
	L1I Component = iota
	L1D
	LLC
	Directory
	Router
	Link
	DRAM
	NumComponents = 7
)

// String implements fmt.Stringer.
func (c Component) String() string {
	switch c {
	case L1I:
		return "L1-I Cache"
	case L1D:
		return "L1-D Cache"
	case LLC:
		return "L2 Cache (LLC)"
	case Directory:
		return "Directory"
	case Router:
		return "Network Router"
	case Link:
		return "Network Link"
	case DRAM:
		return "DRAM"
	default:
		return fmt.Sprintf("Component(%d)", uint8(c))
	}
}

// Params holds the per-event dynamic energies in picojoules.
type Params struct {
	// L1IRead/L1IWrite: one L1-I access (tag+data, 16 KB 4-way).
	L1IRead, L1IWrite float64
	// L1DRead/L1DWrite: one L1-D access (tag+data, 32 KB 4-way).
	L1DRead, L1DWrite float64
	// LLCTagRead/LLCTagWrite: LLC tag-array access (paid on every lookup;
	// the tag array is written on each lookup anyway for LRU/replica-reuse
	// updates, §2.4.2).
	LLCTagRead, LLCTagWrite float64
	// LLCDataRead/LLCDataWrite: 256 KB 8-way data array access. Write is
	// 1.2x read (§4.1).
	LLCDataRead, LLCDataWrite float64
	// DirRead/DirWrite: directory-entry (sharer list + classifier) access.
	DirWrite, DirRead float64
	// RouterFlit/LinkFlit: per flit per hop.
	RouterFlit, LinkFlit float64
	// DRAMAccess: one 64-byte line transferred to or from off-chip memory.
	DRAMAccess float64
}

// DefaultParams returns the energy table used by every experiment. Values are
// picojoules per event, chosen to sit inside the envelope of published
// CACTI/McPAT/DSENT numbers for an 11 nm low-leakage process.
func DefaultParams() Params {
	return Params{
		L1IRead: 8, L1IWrite: 10,
		L1DRead: 12, L1DWrite: 14,
		LLCTagRead: 4, LLCTagWrite: 5,
		LLCDataRead: 40, LLCDataWrite: 48, // 1.2x read, per §4.1
		DirRead: 6, DirWrite: 7,
		RouterFlit: 5, LinkFlit: 3,
		DRAMAccess: 6000,
	}
}

// Meter accumulates picojoules per component. The zero value is ready to use.
type Meter struct {
	pj     [NumComponents]float64
	counts [NumComponents]uint64
}

// Add records one event of c costing pj picojoules.
func (m *Meter) Add(c Component, pj float64) {
	m.pj[c] += pj
	m.counts[c]++
}

// AddN records n identical events of c costing pj picojoules each.
func (m *Meter) AddN(c Component, pj float64, n int) {
	m.pj[c] += pj * float64(n)
	m.counts[c] += uint64(n)
}

// PJ returns the accumulated picojoules for component c.
func (m *Meter) PJ(c Component) float64 { return m.pj[c] }

// Count returns the number of events recorded for component c.
func (m *Meter) Count(c Component) uint64 { return m.counts[c] }

// Total returns the accumulated picojoules across all components.
func (m *Meter) Total() float64 {
	var t float64
	for _, v := range m.pj {
		t += v
	}
	return t
}

// Breakdown returns a copy of the per-component picojoule totals indexed by
// Component.
func (m *Meter) Breakdown() [NumComponents]float64 { return m.pj }

// Reset zeroes the meter.
func (m *Meter) Reset() { *m = Meter{} }
