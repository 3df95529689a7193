package coherence

import (
	"fmt"
	"sort"
	"sync"

	"lard/internal/config"
	"lard/internal/mem"
)

// Policy is the pluggable replication-policy seam of the engine: every
// per-scheme decision point of the coherence protocol, extracted from the
// shared transaction machinery. The engine owns the invariant-preserving
// mechanics (MESI, the directory, inclusion, timing and energy); a Policy
// decides placement, replication and classifier bookkeeping. Implementations
// are constructed per engine (Descriptor.New) and may keep run-local state;
// per-line state belongs in the directory entry's opaque Classifier slot so
// it dies with the home line.
//
// The five paper schemes and any additional scheme register a Descriptor
// via Register (typically from an init in the scheme's own policy file);
// the engine resolves opts.Scheme through the registry at construction.
type Policy interface {
	// InstrClusterHome reports whether instruction pages home via R-NUCA's
	// rotational interleaving within a 4-core cluster rather than being
	// interleaved like shared data. Only consulted under R-NUCA-style
	// placement (Descriptor.RNUCAPlacement).
	InstrClusterHome() bool

	// ClusterReplication reports whether replicas are shared by a cluster of
	// cores at a designated slice (§2.3.4) and therefore registered at the
	// home's ReplicaSlices set and invalidated hierarchically.
	ClusterReplication() bool

	// ReplicaSlice returns the LLC slice where requester c's replica of la
	// would live: the local slice for local replication, the rotationally-
	// interleaved cluster member under cluster replication. Policies that
	// never replicate return c (the probe is skipped anyway).
	ReplicaSlice(la mem.LineAddr, c mem.CoreID) mem.CoreID

	// ConsumeReplicaOnHit reports whether a replica hit moves the line into
	// the requesting L1 and invalidates the LLC copy (Victim Replication's
	// exclusive victim-cache behaviour, §4.1).
	ConsumeReplicaOnHit() bool

	// ReplicateOnRead decides whether a read serviced at the home should
	// create an LLC replica for requester c. It is invoked on every home
	// read so the policy can observe reuse; the caller suppresses physical
	// replica creation when the requester is the home or the replica slice
	// is the home.
	ReplicateOnRead(ent *dirEntry, c mem.CoreID) bool

	// ReplicateOnWrite decides whether a write serialized at the home should
	// grant c a Modified-state replica (migratory sharing, §2.3.1).
	// soleSharer reports whether c was the only sharer before invalidation.
	ReplicateOnWrite(ent *dirEntry, c mem.CoreID, soleSharer bool) bool

	// OnWrite records that writer performed a write serialized at the home,
	// after all invalidation acknowledgements were processed (§2.2.2).
	OnWrite(ent *dirEntry, writer mem.CoreID)

	// OnReplicaGone records that core c's replica left the LLC, carrying the
	// replica-reuse counter from the acknowledgement; invalidation
	// distinguishes a coherence invalidation from a capacity eviction
	// (Figure 3's two demotion rules).
	OnReplicaGone(ent *dirEntry, c mem.CoreID, reuse uint8, invalidation bool)

	// OnClusterReplicaGone is OnReplicaGone for a cluster replica at slice
	// rs: the event applies to every core of the cluster it served.
	OnClusterReplicaGone(ent *dirEntry, rs mem.CoreID, reuse uint8, invalidation bool)

	// VictimReplicate gives the policy the L1 victim before it is
	// acknowledged to the home (§2.2.3): returning true means the victim was
	// absorbed into the local slice (VR's victim caching, ASR's selective
	// replication) and disposal is complete.
	VictimReplicate(c mem.CoreID, victim l1Line, t mem.Cycles) bool
}

// Descriptor registers one LLC management scheme: its stable identity (the
// Scheme id and the figure label, both part of the content-addressed result
// keys and therefore frozen once released), its placement/replication
// traits, its standard evaluation columns, and its Policy constructor.
type Descriptor struct {
	// Scheme is the stable numeric id. It is encoded into result-store
	// content addresses; never renumber a released scheme.
	Scheme Scheme
	// Name is the stable figure label ("S-NUCA", "RT", ...), also the wire
	// Kind string of the lard facade.
	Name string
	// Description is a one-line summary for discovery endpoints.
	Description string
	// Label renders a configured run the way the figures caption it
	// (e.g. "RT-3"); nil means Name is used unparameterized.
	Label func(cfg *config.Config) string
	// UsesReplicas reports whether the scheme ever places replicas in LLC
	// slices (enables the replica probe and eviction paths).
	UsesReplicas bool
	// RNUCAPlacement selects R-NUCA-style homing (private pages at the
	// owner's slice, shared pages interleaved) over pure address
	// interleaving.
	RNUCAPlacement bool
	// ThresholdRT marks schemes that consume Config.RT as their replication
	// threshold (and typically parameterize their Label with it): variant
	// builders must supply an explicit threshold, never the config default,
	// or every downstream table and store entry would be mislabeled.
	ThresholdRT bool
	// Columns are the scheme's standard evaluation columns in Figures 6-8
	// (nil for schemes outside the paper's main matrix). The harness
	// derives StandardVariants from these.
	Columns []Column
	// New constructs the policy bound to an engine.
	New func(e *Engine) Policy
}

// Column is one standard figure column contributed by a scheme.
type Column struct {
	// Label is the column header (figure nomenclature).
	Label string
	// RT, K and Cluster parameterize locality-aware-family columns
	// (K: -1 = Complete classifier, otherwise Limited-K).
	RT, K, Cluster int
	// ASRLevel is a fixed replication level; AutoTune selects the best
	// level per benchmark by energy-delay product instead (§3.3).
	ASRLevel float64
	AutoTune bool
}

var (
	registryMu sync.RWMutex
	registry   = make(map[Scheme]Descriptor)
	byName     = make(map[string]Scheme)
)

// Register adds a scheme to the registry. It panics on a duplicate id or
// name, or on a descriptor without a constructor: registration happens in
// package inits, where a broken scheme table should stop the process.
func Register(d Descriptor) {
	registryMu.Lock()
	defer registryMu.Unlock()
	if d.New == nil {
		panic(fmt.Sprintf("coherence: scheme %q registered without a Policy constructor", d.Name))
	}
	if d.Name == "" {
		panic(fmt.Sprintf("coherence: scheme %d registered without a name", d.Scheme))
	}
	if prev, dup := registry[d.Scheme]; dup {
		panic(fmt.Sprintf("coherence: scheme id %d registered twice (%q and %q)", d.Scheme, prev.Name, d.Name))
	}
	if _, dup := byName[d.Name]; dup {
		panic(fmt.Sprintf("coherence: scheme name %q registered twice", d.Name))
	}
	registry[d.Scheme] = d
	byName[d.Name] = d.Scheme
}

// Describe returns the descriptor registered for s.
func Describe(s Scheme) (Descriptor, bool) {
	registryMu.RLock()
	defer registryMu.RUnlock()
	d, ok := registry[s]
	return d, ok
}

// SchemeByName resolves a registered scheme by its stable name.
func SchemeByName(name string) (Scheme, bool) {
	registryMu.RLock()
	defer registryMu.RUnlock()
	s, ok := byName[name]
	return s, ok
}

// Registered returns every registered descriptor ordered by scheme id, so
// derived enumerations (figure columns, discovery endpoints) are stable
// regardless of init order.
func Registered() []Descriptor {
	registryMu.RLock()
	defer registryMu.RUnlock()
	out := make([]Descriptor, 0, len(registry))
	for _, d := range registry {
		out = append(out, d)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Scheme < out[j].Scheme })
	return out
}

// LabelFor renders a configured run's scheme the way the paper's figures do
// ("RT-3" for the locality-aware protocol). Unregistered schemes fall back
// to the Scheme(%d) placeholder of String.
func LabelFor(s Scheme, cfg *config.Config) string {
	if d, ok := Describe(s); ok && d.Label != nil {
		return d.Label(cfg)
	}
	return s.String()
}

// basePolicy is the no-op policy every scheme embeds: pure S-NUCA behaviour
// with no replication. Overriding only the relevant hooks keeps each scheme
// file down to its actual decisions.
type basePolicy struct {
	e *Engine
}

func (basePolicy) InstrClusterHome() bool                               { return false }
func (basePolicy) ClusterReplication() bool                             { return false }
func (basePolicy) ReplicaSlice(_ mem.LineAddr, c mem.CoreID) mem.CoreID { return c }
func (basePolicy) ConsumeReplicaOnHit() bool                            { return false }
func (basePolicy) ReplicateOnRead(*dirEntry, mem.CoreID) bool           { return false }
func (basePolicy) ReplicateOnWrite(*dirEntry, mem.CoreID, bool) bool    { return false }
func (basePolicy) OnWrite(*dirEntry, mem.CoreID)                        {}
func (basePolicy) OnReplicaGone(*dirEntry, mem.CoreID, uint8, bool)     {}
func (basePolicy) OnClusterReplicaGone(*dirEntry, mem.CoreID, uint8, bool) {
}
func (basePolicy) VictimReplicate(mem.CoreID, l1Line, mem.Cycles) bool { return false }
