package coherence

import "lard/internal/mem"

// vrPolicy is Victim Replication: the local LLC slice doubles as a victim
// cache for L1 evictions (§3.3). Replicas are created on eviction, not on
// home access, and a replica hit is exclusive — the line moves back into the
// L1 and the LLC copy is invalidated (§4.1).
type vrPolicy struct{ basePolicy }

// ConsumeReplicaOnHit implements VR's exclusive victim-cache behaviour.
func (vrPolicy) ConsumeReplicaOnHit() bool { return true }

// VictimReplicate writes every L1 victim into the local slice, subject to
// VR's insertion filter (invalid way, another replica, or a sharer-free home
// line; the victim is dropped otherwise).
func (p vrPolicy) VictimReplicate(c mem.CoreID, victim l1Line, t mem.Cycles) bool {
	return p.e.tryVictimInsert(c, victim, t)
}

func init() {
	Register(Descriptor{
		Scheme:       VR,
		Name:         "VR",
		Description:  "Victim Replication: the local LLC slice acts as a victim cache for L1 evictions",
		UsesReplicas: true,
		Columns:      []Column{{Label: "VR"}},
		New:          func(e *Engine) Policy { return vrPolicy{basePolicy{e}} },
	})
}
