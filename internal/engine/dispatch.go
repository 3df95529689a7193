package engine

import (
	"hash/fnv"

	"lard/internal/resultstore"
	"lard/internal/store"
)

// PlacementClass orders queued work by the locality of its result key,
// hottest first — the serving-tier analogue of the paper's "replicate
// what is reused, near the reader" placement, applied to scheduling: work
// whose bytes are already next to a worker should reach one first.
type PlacementClass int

const (
	// ClassReplica: the key is held by this node's local replica set (or
	// the store's decoded memory layer) — the job will complete without
	// touching a remote owner, usually instantly.
	ClassReplica PlacementClass = iota
	// ClassOwner: an owned local disk shard holds the key; the job costs
	// one shard read. Lane affinity keeps one shard's keys on one worker.
	ClassOwner
	// ClassCold: nobody nearby holds the key; the job is a full
	// simulation and can run anywhere.
	ClassCold
)

// String renders the class for metrics labels.
func (c PlacementClass) String() string {
	switch c {
	case ClassReplica:
		return "replica"
	case ClassOwner:
		return "owner"
	default:
		return "cold"
	}
}

// Placement is a dispatcher's routing decision for one job.
type Placement struct {
	// Class is the locality class (scheduling priority, hottest first).
	Class PlacementClass
	// Lane is the preferred worker lane in [0, lanes): a worker prefers
	// jobs on its own lane, so keys that share a shard share a worker's
	// cache footprint. Any idle worker still steals cross-lane work —
	// affinity is a preference, never a fence.
	Lane int
}

// Dispatcher decides where a submitted job should run. Implementations
// must be safe for concurrent use and fast: Place sits on the submission
// path.
type Dispatcher interface {
	// Name identifies the policy in /stats and /metrics.
	Name() string
	// Place routes the job with content address key onto one of lanes
	// worker lanes.
	Place(key string, lanes int) Placement
}

// hashLane spreads keys over lanes deterministically.
func hashLane(key string, lanes int) int {
	if lanes <= 1 {
		return 0
	}
	h := fnv.New32a()
	h.Write([]byte(key))
	return int(h.Sum32() % uint32(lanes))
}

// localityDispatcher is the default policy: route each member to the
// backend that already holds its key — local replica ahead of owner shard
// ahead of any worker — using the store's side-effect-free placement
// probe.
type localityDispatcher struct {
	st *resultstore.Store
}

// NewLocalityDispatcher returns the default locality-aware policy over st.
func NewLocalityDispatcher(st *resultstore.Store) Dispatcher {
	return &localityDispatcher{st: st}
}

func (d *localityDispatcher) Name() string { return "locality" }

func (d *localityDispatcher) Place(key string, lanes int) Placement {
	loc := d.st.Locate(key)
	switch {
	case loc.Replica:
		return Placement{Class: ClassReplica, Lane: hashLane(key, lanes)}
	case loc.Held:
		lane := hashLane(key, lanes)
		if loc.Shard >= 0 && lanes > 0 {
			lane = loc.Shard % lanes
		}
		return Placement{Class: ClassOwner, Lane: lane}
	default:
		return Placement{Class: ClassCold, Lane: hashLane(key, lanes)}
	}
}

var _ store.Locator = (*resultstore.Store)(nil)
