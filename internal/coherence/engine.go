package coherence

import (
	"fmt"
	"math/rand/v2"

	"lard/internal/cache"
	"lard/internal/config"
	"lard/internal/core"
	"lard/internal/directory"
	"lard/internal/dram"
	"lard/internal/energy"
	"lard/internal/mem"
	"lard/internal/network"
)

// cacheLine is the LLC line type used throughout the engine.
type cacheLine = cache.Line[llcMeta]

// l1Line is the L1 line type.
type l1Line = cache.Line[l1Meta]

// Options configure an Engine beyond the architectural Config.
type Options struct {
	// Scheme selects the LLC management scheme.
	Scheme Scheme
	// ASRLevel is the replication probability of ASR (0, 0.25, 0.5, 0.75, 1).
	ASRLevel float64
	// Seed feeds ASR's replication lottery (the only randomness in the
	// engine); runs are deterministic for a fixed seed.
	Seed uint64
	// CheckInvariants enables the single-writer/multiple-reader version
	// check on every read (tests enable it; large runs leave it off).
	CheckInvariants bool
	// TrackRuns enables the Figure-1 run-length tracker.
	TrackRuns bool
}

// Engine is the memory-system model: per-tile caches, directory, network,
// DRAM, energy accounting, and the active LLC management scheme. It is
// single-threaded by design; the simulator serializes accesses in event
// order to keep runs deterministic.
type Engine struct {
	cfg    *config.Config
	eparam energy.Params
	opts   Options
	scheme Scheme

	// policy holds the scheme's decision points. The booleans cache the
	// descriptor and policy traits consulted on hot paths: every one is
	// constant for the engine's lifetime (the policy derives them from the
	// validated Config), so the steady-state access path reads a struct
	// flag instead of re-entering the Policy interface per access.
	policy           Policy
	usesReplicas     bool
	rnucaPlacement   bool
	instrClusterHome bool
	clusterRepl      bool
	consumeOnHit     bool

	tiles []*tile
	mesh  *network.Mesh
	dram  *dram.Subsystem
	pages *pageTable
	meter *energy.Meter
	rng   *rand.Rand

	clfParams core.Params

	// Hot-path scratch and free lists. fanout and rsnap are reusable
	// iteration buffers for the invalidation fan-outs (sized to Cores at
	// construction, so steady-state fan-out allocates nothing); entFree and
	// clfFree recycle directory entries and locality classifiers, whose
	// only death point is disposeHome — after it returns no reference to
	// the entry survives, so reuse is safe.
	fanout  []mem.CoreID
	rsnap   []mem.CoreID
	entFree []*dirEntry
	clfFree []coreClassifier

	runs    *runTracker
	rehomed uint64 // page reclassification flushes, for stats

	// Per-class replica statistics (ground-truth classes; diagnostics).
	replicaInserts [mem.NumDataClasses]uint64
	replicaHits    [mem.NumDataClasses]uint64
	replicaEvicts  uint64
	replicaInvals  uint64

	// Epoch-telemetry counters: classifier mode transitions and directory
	// population. Plain uint64 increments on paths the engine already
	// executes — read only at epoch boundaries (see Telemetry), and free
	// when telemetry is off.
	clfPromotions uint64
	clfDemotions  uint64
	dirOcc        directory.Occupancy
}

// Mesh returns the engine's interconnect model (diagnostics).
func (e *Engine) Mesh() *network.Mesh { return e.mesh }

// ReplicaChurn returns replica eviction and invalidation counts.
func (e *Engine) ReplicaChurn() (evicts, invals uint64) { return e.replicaEvicts, e.replicaInvals }

// ReplicaStats returns per-data-class replica insertion and hit counts.
func (e *Engine) ReplicaStats() (inserts, hits [mem.NumDataClasses]uint64) {
	return e.replicaInserts, e.replicaHits
}

// New returns an engine for the given configuration and options. The scheme
// must be registered (see Register); like an invalid configuration, an
// unregistered scheme is a programming error and panics.
func New(cfg *config.Config, opts Options) *Engine {
	if err := cfg.Validate(); err != nil {
		panic(err)
	}
	desc, ok := Describe(opts.Scheme)
	if !ok {
		panic(fmt.Sprintf("coherence: scheme %d is not registered", uint8(opts.Scheme)))
	}
	meter := &energy.Meter{}
	ep := energy.DefaultParams()
	e := &Engine{
		cfg:    cfg,
		eparam: ep,
		opts:   opts,
		scheme: opts.Scheme,
		mesh:   network.New(cfg.MeshW, cfg.MeshH, cfg.HopLatency, meter, ep.RouterFlit, ep.LinkFlit),
		dram:   dram.New(cfg.DRAMControllers, cfg.Cores, cfg.DRAMLatency, cfg.DRAMCyclesPerLine, meter, ep.DRAMAccess),
		pages:  newPageTable(),
		meter:  meter,
		rng:    rand.New(rand.NewPCG(opts.Seed, 0x1a4d)),
		clfParams: core.Params{
			RT:    cfg.RT,
			Cores: cfg.Cores,
			K:     cfg.ClassifierK,
		},
	}
	e.policy = desc.New(e)
	e.usesReplicas = desc.UsesReplicas
	e.rnucaPlacement = desc.RNUCAPlacement
	e.instrClusterHome = e.policy.InstrClusterHome()
	e.clusterRepl = e.policy.ClusterReplication()
	e.consumeOnHit = e.policy.ConsumeReplicaOnHit()
	e.fanout = make([]mem.CoreID, 0, cfg.Cores)
	e.rsnap = make([]mem.CoreID, 0, cfg.Cores)
	e.tiles = make([]*tile, cfg.Cores)
	for i := range e.tiles {
		e.tiles[i] = &tile{
			id:   mem.CoreID(i),
			l1i:  cache.New[l1Meta](cfg.L1ILines, cfg.L1IWays),
			l1d:  cache.New[l1Meta](cfg.L1DLines, cfg.L1DWays),
			llc:  cache.New[llcMeta](cfg.LLCSliceLines, cfg.LLCWays),
			busy: make(map[mem.LineAddr]mem.Cycles),
		}
	}
	if opts.TrackRuns {
		e.runs = newRunTracker()
	}
	return e
}

// Meter returns the engine's energy meter.
func (e *Engine) Meter() *energy.Meter { return e.meter }

// Config returns the engine's configuration.
func (e *Engine) Config() *config.Config { return e.cfg }

// Scheme returns the active LLC management scheme.
func (e *Engine) Scheme() Scheme { return e.scheme }

// PageReclassifications returns the number of R-NUCA private->shared page
// transitions that required flushing the old owner's slice.
func (e *Engine) PageReclassifications() uint64 { return e.rehomed }

// Telemetry is a snapshot of the engine's cumulative epoch-telemetry
// counters. All values except DirectoryEntries (a level) are
// monotonically non-decreasing, so the simulator can difference
// successive snapshots into per-epoch deltas.
type Telemetry struct {
	// ReplicaHits counts accesses served by an LLC replica.
	ReplicaHits uint64
	// Replications counts replica insertions into LLC slices.
	Replications uint64
	// ReplicaEvictions counts replicas displaced by LLC replacement.
	ReplicaEvictions uint64
	// Invalidations counts replicas killed by coherence invalidations.
	Invalidations uint64
	// ClassifierPromotions counts classifier decisions to replicate
	// (non-replica -> replica mode transitions observed at the home).
	ClassifierPromotions uint64
	// ClassifierDemotions counts replica-loss events fed back to the
	// classifier (evictions and invalidations reported via OnReplicaGone).
	ClassifierDemotions uint64
	// DirectoryEntries is the live in-cache directory population.
	DirectoryEntries uint64
}

// Telemetry snapshots the engine's telemetry counters. It is cheap (a
// handful of loads) and intended to be called at epoch boundaries only;
// the counters themselves cost one integer increment on paths the
// engine already executes, so the hot path stays allocation-free.
func (e *Engine) Telemetry() Telemetry {
	t := Telemetry{
		ReplicaEvictions:     e.replicaEvicts,
		Invalidations:        e.replicaInvals,
		ClassifierPromotions: e.clfPromotions,
		ClassifierDemotions:  e.clfDemotions,
		DirectoryEntries:     e.dirOcc.Live(),
	}
	for _, h := range e.replicaHits {
		t.ReplicaHits += h
	}
	for _, i := range e.replicaInserts {
		t.Replications += i
	}
	return t
}

// ---- energy helpers -------------------------------------------------------

func (e *Engine) chargeL1(instr, write bool) {
	switch {
	case instr && write:
		e.meter.Add(energy.L1I, e.eparam.L1IWrite)
	case instr:
		e.meter.Add(energy.L1I, e.eparam.L1IRead)
	case write:
		e.meter.Add(energy.L1D, e.eparam.L1DWrite)
	default:
		e.meter.Add(energy.L1D, e.eparam.L1DRead)
	}
}

func (e *Engine) chargeLLCTag(write bool) {
	if write {
		e.meter.Add(energy.LLC, e.eparam.LLCTagWrite)
	} else {
		e.meter.Add(energy.LLC, e.eparam.LLCTagRead)
	}
}

func (e *Engine) chargeLLCData(write bool) {
	if write {
		e.meter.Add(energy.LLC, e.eparam.LLCDataWrite)
	} else {
		e.meter.Add(energy.LLC, e.eparam.LLCDataRead)
	}
}

func (e *Engine) chargeDir(write bool) {
	if write {
		e.meter.Add(energy.Directory, e.eparam.DirWrite)
	} else {
		e.meter.Add(energy.Directory, e.eparam.DirRead)
	}
}

// ctrlFlits and dataFlits are the two message sizes of the protocol
// (§2.4.3: reuse counters ride in the spare header bits, so no message
// grows).
func (e *Engine) ctrlFlits() int { return e.cfg.HeaderFlits }

func (e *Engine) dataFlits() int { return e.cfg.HeaderFlits + e.cfg.DataFlits }

// ---- victim selection ------------------------------------------------------

// llcVictim returns the victim selector for tile t's LLC slice according to
// the configured replacement policy. Modified-LRU (§2.2.4) prefers lines
// with the fewest L1 copies: for home lines the in-cache directory's sharer
// count, for replicas whether the local L1 still holds the line.
func (e *Engine) llcVictim(t *tile) cache.VictimSelector[llcMeta] {
	if e.cfg.Replacement != config.ModifiedLRU {
		// PlainLRU and TLH-LRU both select by recency; TLH differs only in
		// the hint traffic that refreshes LLC recency (see temporalHint).
		return cache.LRU[llcMeta]()
	}
	return cache.ModifiedLRU(func(l *cacheLine) int {
		// Rank = 2*copies (+1 for home lines): fewest L1 copies first, and
		// at equal copy counts replicas are evicted before home lines —
		// losing a home copy costs an off-chip refetch, losing a replica
		// only a home round trip. This matches VR's insertion preference
		// and keeps the protocol's off-chip miss rate low (§2.2.4).
		if l.Meta.home {
			return 2*l.Meta.dir.Sharers.Count() + 1
		}
		if e.hasL1Copy(t, l.Addr) {
			return 2
		}
		return 0
	})
}

func (e *Engine) hasL1Copy(t *tile, la mem.LineAddr) bool {
	return t.l1i.Lookup(la) != nil || t.l1d.Lookup(la) != nil
}

// victimAllowedVR implements the Victim Replication insertion filter: a
// victim may only displace an invalid way, another replica, or a home line
// with no sharers (§3.3). It returns the way index or -1.
func victimAllowedVR(ways []cacheLine) int {
	best, bestClass := -1, 0
	// Preference order: invalid (handled by Insert), replica, sharer-free
	// home line; LRU within the chosen class.
	for i := range ways {
		var class int
		switch {
		case !ways[i].State.Valid():
			return i // Insert would find it too, but be explicit
		case !ways[i].Meta.home:
			class = 2
		case ways[i].Meta.dir.Sharers.Count() == 0:
			class = 1
		default:
			continue
		}
		if class > bestClass || (class == bestClass && ways[i].LastUse < ways[best].LastUse) {
			best, bestClass = i, class
		}
	}
	return best
}

// ---- misc helpers ----------------------------------------------------------

// homeOfLine returns the home slice of a line outside of an access (eviction
// and writeback paths), for requester/holder c.
func (e *Engine) homeOfLine(la mem.LineAddr, c mem.CoreID) mem.CoreID {
	if !e.rnucaPlacement {
		return e.interleave(la)
	}
	info, ok := e.pages.pages[mem.PageOfLine(la)]
	if !ok {
		panic(fmt.Sprintf("coherence: no page record for cached line %#x", uint64(la)))
	}
	switch {
	case info.class == pageInstr && e.instrClusterHome:
		return e.instrHome(la, c)
	case info.class == pagePrivate:
		return info.owner
	default:
		return e.interleave(la)
	}
}

// homeEntry returns the home line and directory entry for la at slice home,
// or nil if the home copy is not resident.
func (e *Engine) homeEntry(home mem.CoreID, la mem.LineAddr) *cacheLine {
	l := e.tiles[home].llc.Lookup(la)
	if l == nil || !l.Meta.home {
		return nil
	}
	return l
}

// checkVersion enforces the single-writer/multiple-reader invariant: any
// valid copy read by a core must carry the current home version.
func (e *Engine) checkVersion(c mem.CoreID, la mem.LineAddr, ver uint64) {
	if !e.opts.CheckInvariants {
		return
	}
	home := e.homeOfLine(la, c)
	hl := e.homeEntry(home, la)
	if hl == nil {
		panic(fmt.Sprintf("coherence: core %d holds line %#x with no home copy (inclusion violated)", c, uint64(la)))
	}
	if hl.Meta.dir.Version != ver {
		panic(fmt.Sprintf("coherence: SWMR violation on line %#x: core %d read version %d, home has %d",
			uint64(la), c, ver, hl.Meta.dir.Version))
	}
}
