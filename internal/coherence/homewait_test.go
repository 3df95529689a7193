package coherence

import (
	"testing"

	"lard/internal/config"
	"lard/internal/mem"
	"lard/internal/stats"
)

// homeWaitLine returns a line and its S-NUCA home, with a requester that is
// not the home (so the first request crosses the mesh).
func homeWaitLine(e *Engine) (la mem.LineAddr, home, remote mem.CoreID) {
	la = 0x40_0005
	home = e.interleave(la)
	remote = (home + 3) % mem.CoreID(e.cfg.Cores)
	return la, home, remote
}

// TestHomeWaitingChargesBusyTime pins the home serialization of §3.4: a
// request that reaches the home while the home is still busy with another
// core's transaction on the same line waits until the home is free, and
// that wait — exactly busy − arrive — is its LLC-Home-Waiting time. The
// second requester is the home's own core, so its request arrives one L1
// lookup after issue with no mesh leg to model.
func TestHomeWaitingChargesBusyTime(t *testing.T) {
	e := testEngine(SNUCA)
	la, home, remote := homeWaitLine(e)
	if r := rd(e, remote, 0, la); r.Miss != stats.OffChipMiss {
		t.Fatalf("first read: %v, want an off-chip miss", r.Miss)
	}
	busy := e.homeEntry(home, la).Meta.busy
	arrive := e.cfg.L1Latency
	if busy <= arrive {
		t.Fatalf("home busy until %d, not past the second request's arrival %d", busy, arrive)
	}
	r := rd(e, home, 0, la)
	if r.Miss != stats.LLCHomeHit {
		t.Fatalf("second read: %v, want a home hit", r.Miss)
	}
	if got, want := r.Breakdown[stats.LLCHomeWaiting], busy-arrive; got != want {
		t.Fatalf("LLC-Home-Waiting = %d, want busy-arrive = %d-%d = %d", got, busy, arrive, want)
	}

	// Once the home is free, a later request does not wait.
	if r := rd(e, home^1, r.Done+1000, la); r.Breakdown[stats.LLCHomeWaiting] != 0 {
		t.Fatalf("request after the home went idle waited %d cycles", r.Breakdown[stats.LLCHomeWaiting])
	}
}

// TestHomeWaitingSurvivesEviction: a home line evicted while its home is
// still busy parks the busy time in the slice's spill map, and the refetch
// waits for it exactly as if the line had stayed resident.
func TestHomeWaitingSurvivesEviction(t *testing.T) {
	// Plain LRU makes la, the oldest line of its set, the first victim
	// (modified LRU would first take set-mates the home core's L1 let go).
	cfg := config.Small()
	cfg.Replacement = config.PlainLRU
	e := New(cfg, Options{Scheme: SNUCA, CheckInvariants: true})
	la, home, remote := homeWaitLine(e)
	rd(e, remote, 0, la)
	busy := e.homeEntry(home, la).Meta.busy

	// Evict la from its home slice by filling its set with other lines
	// homed at the same slice. The home core reads them, so the fills add
	// no mesh traffic.
	tl := e.tiles[home]
	set := tl.llc.SetOf(la)
	cores := mem.LineAddr(e.cfg.Cores)
	for x := la + cores; e.homeEntry(home, la) != nil; x += cores {
		if x > la+cores*100_000 {
			t.Fatal("could not evict the home line")
		}
		if tl.llc.SetOf(x) == set {
			rd(e, home, 0, x)
		}
	}
	if got := tl.spill[la]; got != busy {
		t.Fatalf("spilled busy time = %d, want %d", got, busy)
	}

	r := rd(e, home, 0, la)
	if r.Miss != stats.OffChipMiss {
		t.Fatalf("refetch: %v, want an off-chip miss", r.Miss)
	}
	if got, want := r.Breakdown[stats.LLCHomeWaiting], busy-e.cfg.L1Latency; got != want {
		t.Fatalf("refetch LLC-Home-Waiting = %d, want %d", got, want)
	}
	if _, ok := tl.spill[la]; ok {
		t.Fatal("refetched line's busy time must move back out of the spill map")
	}
	if hl := e.homeEntry(home, la); hl == nil || hl.Meta.busy <= busy {
		t.Fatal("refetch must leave the home line busy past its old busy time")
	}
}
