// Package coherence implements the memory-system model of the paper: private
// L1 caches kept coherent with an invalidation-based MESI protocol over an
// ACKwise-p limited directory integrated with the distributed LLC slices
// (§2.1), plus a pluggable registry of LLC management schemes (policy.go).
// The five schemes of the paper's evaluation — Static-NUCA, Reactive-NUCA,
// Victim Replication, Adaptive Selective Replication, and the paper's
// locality-aware replication protocol (§2.2) — each register a Policy in
// their own policy_*.go file; additional schemes plug in the same way.
//
// Coherence transactions execute atomically at the home directory with
// timing composed from the network, DRAM and queueing models; requests to the
// same line serialize at its home slice (tile.busy), which produces the
// paper's "LLC home waiting time" component of the §3.4 completion-time
// breakdown.
package coherence

import (
	"fmt"

	"lard/internal/cache"
	"lard/internal/directory"
	"lard/internal/mem"
	"lard/internal/stats"
)

// Scheme selects the LLC management scheme under evaluation (§3.3).
type Scheme uint8

// LLC management schemes.
const (
	// SNUCA address-interleaves all lines across the LLC slices.
	SNUCA Scheme = iota
	// RNUCA places private pages at the owner's slice, interleaves shared
	// pages, and replicates instructions in one slice per 4-core cluster via
	// rotational interleaving.
	RNUCA
	// VR (Victim Replication) uses the local slice as a victim cache for L1
	// evictions.
	VR
	// ASR (Adaptive Selective Replication) replicates only shared read-only
	// lines on L1 eviction, with a per-run replication probability level.
	ASR
	// LocalityAware is the paper's protocol: replication gated by the
	// run-time locality classifier with threshold RT.
	LocalityAware
)

// String implements fmt.Stringer, matching the labels of Figures 6-8. The
// names come from the policy registry; unregistered ids render a
// placeholder.
func (s Scheme) String() string {
	if d, ok := Describe(s); ok {
		return d.Name
	}
	return fmt.Sprintf("Scheme(%d)", uint8(s))
}

// Op is one memory reference presented to the engine.
type Op struct {
	// Type is the access type (ifetch/load/store).
	Type mem.AccessType
	// Line is the referenced cache line.
	Line mem.LineAddr
	// Class is the generator's ground-truth data class, used only for
	// statistics (the protocol never sees it).
	Class mem.DataClass
}

// AccessResult reports the outcome of one access.
type AccessResult struct {
	// Done is the cycle at which the access completes (data available for
	// reads, write permission granted for stores).
	Done mem.Cycles
	// Breakdown attributes the access latency to the §3.4 components
	// (Compute and Synchronization are filled in by the simulator).
	Breakdown stats.TimeBreakdown
	// Miss classifies how the access was serviced.
	Miss stats.MissType
}

// l1Meta is the per-line metadata of the private L1 caches.
type l1Meta struct {
	// version is the home version of the data held (SWMR checking).
	version uint64
	// sharedRO is ASR's sticky classification bit: true while the line has
	// never been written (conveyed by the home on the fill).
	sharedRO bool
	// class is the ground-truth data class (statistics only).
	class mem.DataClass
	// hintCount counts L1 hits for the TLH-LRU replacement policy.
	hintCount uint8
}

// llcMeta is the per-line metadata of the LLC slices.
type llcMeta struct {
	// home marks the home copy (it carries the directory entry).
	home bool
	// dir is the in-cache directory entry of a home line.
	dir *directory.Entry
	// replicaReuse is the saturating reuse counter of a replica line
	// (initialized to 1 on creation, incremented per replica hit, §2.2.1).
	replicaReuse uint8
	// version is the home version of the data held by a replica.
	version uint64
	// everWritten is the home-side sticky "not read-only" bit used by ASR.
	everWritten bool
	// everShared is the home-side sticky "shared" bit used by ASR: set once
	// a second distinct core accesses the line (ASR replicates only lines
	// classified shared AND read-only, §3.3).
	everShared bool
	// firstCore is the first core to access the line (with firstSeen), used
	// to detect sharing.
	firstCore mem.CoreID
	firstSeen bool
	// class is the ground-truth data class (statistics only).
	class mem.DataClass
}

// tile is one core's slice of the memory system.
type tile struct {
	id  mem.CoreID
	l1i *cache.Cache[l1Meta]
	l1d *cache.Cache[l1Meta]
	llc *cache.Cache[llcMeta]
	// busy[la] is the cycle at which this slice's home entry for la is free
	// for the next request (the paper's "LLC home waiting time"). The map
	// lives with the slice that serializes the requests: instruction lines
	// under R-NUCA have one home per cluster, so the same line can be busy
	// at several homes independently.
	busy map[mem.LineAddr]mem.Cycles
}

// l1For returns the L1 cache serving the access type.
func (t *tile) l1For(a mem.AccessType) *cache.Cache[l1Meta] {
	if a.IsInstr() {
		return t.l1i
	}
	return t.l1d
}
