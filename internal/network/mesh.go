// Package network models the on-chip interconnect of Table 1: an electrical
// 2-D mesh with X-Y dimension-ordered routing, a fixed 2-cycle per-hop
// latency (1 router + 1 link), 64-bit flits, and per-link serialization that
// produces contention delays when messages overlap on a link. Energy is
// accounted per flit per traversed router and link.
package network

import (
	"lard/internal/energy"
	"lard/internal/mem"
)

// Mesh is the 2-D mesh interconnect. It is not safe for concurrent use; the
// simulator is single-threaded by design (deterministic event order).
type Mesh struct {
	w, h       int
	hopLatency mem.Cycles

	// linkFree[l] is the first cycle at which directed link l is idle.
	linkFree []mem.Cycles

	meter  *energy.Meter
	router float64 // pJ per flit per router
	link   float64 // pJ per flit per link

	flits    uint64     // total flit-hops, for stats
	linkWait mem.Cycles // cumulative head-flit wait due to link contention
}

// LinkWait returns the cumulative cycles head flits spent waiting for busy
// links (a contention diagnostic).
func (m *Mesh) LinkWait() mem.Cycles { return m.linkWait }

// New returns a mesh of w x h tiles. meter may be nil to disable energy
// accounting.
func New(w, h int, hopLatency mem.Cycles, meter *energy.Meter, routerPJ, linkPJ float64) *Mesh {
	if w <= 0 || h <= 0 {
		panic("network: mesh dimensions must be positive")
	}
	return &Mesh{
		w: w, h: h,
		hopLatency: hopLatency,
		// Four directed links per tile is an over-allocation (edge tiles
		// have fewer) but keeps link indexing trivial.
		linkFree: make([]mem.Cycles, w*h*4),
		meter:    meter,
		router:   routerPJ,
		link:     linkPJ,
	}
}

// Directions for link indexing.
const (
	dirEast = iota
	dirWest
	dirNorth
	dirSouth
)

func (m *Mesh) coord(c mem.CoreID) (x, y int) { return int(c) % m.w, int(c) / m.w }

func (m *Mesh) tile(x, y int) int { return y*m.w + x }

func (m *Mesh) linkID(x, y, dir int) int { return m.tile(x, y)*4 + dir }

// Hops returns the Manhattan distance between src and dst.
func (m *Mesh) Hops(src, dst mem.CoreID) int {
	sx, sy := m.coord(src)
	dx, dy := m.coord(dst)
	return abs(sx-dx) + abs(sy-dy)
}

// LatencyNoContention returns the zero-load latency of a message of the given
// flit count from src to dst: hops*hopLatency plus (flits-1) serialization
// cycles. src == dst costs nothing (the local slice is accessed directly).
func (m *Mesh) LatencyNoContention(src, dst mem.CoreID, flits int) mem.Cycles {
	if src == dst {
		return 0
	}
	return mem.Cycles(m.Hops(src, dst))*m.hopLatency + mem.Cycles(flits-1)
}

// Send routes a message of the given flit count from src to dst departing at
// depart, reserving every traversed link for flits cycles (wormhole
// serialization) and accumulating router/link energy. It returns the arrival
// cycle of the tail flit at dst. src == dst returns depart unchanged.
func (m *Mesh) Send(src, dst mem.CoreID, flits int, depart mem.Cycles) mem.Cycles {
	if src == dst {
		return depart
	}
	if flits <= 0 {
		panic("network: message must have at least one flit")
	}
	x, y := m.coord(src)
	dx, dy := m.coord(dst)
	t := depart
	hops := 0
	// X-Y routing: fully resolve X, then Y.
	for x != dx {
		dir, nx := dirEast, x+1
		if dx < x {
			dir, nx = dirWest, x-1
		}
		t = m.traverse(m.linkID(x, y, dir), t, flits)
		x = nx
		hops++
	}
	for y != dy {
		dir, ny := dirSouth, y+1
		if dy < y {
			dir, ny = dirNorth, y-1
		}
		t = m.traverse(m.linkID(x, y, dir), t, flits)
		y = ny
		hops++
	}
	// Wormhole pipelining: the head flit advances hop by hop (accumulated in
	// t); the tail flit arrives flits-1 cycles after the head.
	t += mem.Cycles(flits - 1)
	if m.meter != nil {
		// Each hop traverses one router and one link; the ejection port at
		// the destination router is folded into the last hop.
		m.meter.AddN(energy.Router, m.router, flits*hops)
		m.meter.AddN(energy.Link, m.link, flits*hops)
	}
	m.flits += uint64(flits * hops)
	return t
}

// traverse reserves link l for the whole message (flits cycles of
// occupancy, which is what creates contention for later messages) starting
// no earlier than the head-flit arrival t, and returns the head-flit arrival
// at the next router.
func (m *Mesh) traverse(l int, t mem.Cycles, flits int) mem.Cycles {
	start := t
	if m.linkFree[l] > start {
		start = m.linkFree[l]
	}
	m.linkWait += start - t
	m.linkFree[l] = start + mem.Cycles(flits)
	return start + m.hopLatency
}

// FlitHops returns the cumulative flit-hop count routed so far.
func (m *Mesh) FlitHops() uint64 { return m.flits }

// Width and Height return the mesh dimensions.
func (m *Mesh) Width() int { return m.w }

// Height returns the mesh Y dimension.
func (m *Mesh) Height() int { return m.h }

func abs(v int) int {
	if v < 0 {
		return -v
	}
	return v
}
