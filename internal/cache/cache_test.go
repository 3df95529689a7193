package cache

import (
	"math/rand/v2"
	"testing"
	"testing/quick"

	"lard/internal/mem"
)

type meta struct{ tag int }

func newTestCache(lines, ways int) *Cache[meta] { return New[meta](lines, ways) }

func TestNewPanics(t *testing.T) {
	cases := []struct{ lines, ways int }{
		{0, 1}, {-8, 2}, {7, 2}, {8, 3}, {24, 4}, // 24/4 = 6 sets, not power of two
	}
	for _, c := range cases {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("New(%d,%d) must panic", c.lines, c.ways)
				}
			}()
			New[meta](c.lines, c.ways)
		}()
	}
}

func TestGeometry(t *testing.T) {
	c := newTestCache(64, 4)
	if c.Sets() != 16 || c.Ways() != 4 || c.Capacity() != 64 {
		t.Fatalf("geometry: sets=%d ways=%d cap=%d", c.Sets(), c.Ways(), c.Capacity())
	}
}

func TestLookupMissThenHit(t *testing.T) {
	c := newTestCache(64, 4)
	if c.Lookup(42) != nil {
		t.Fatal("empty cache must miss")
	}
	ins, _, ev := c.Insert(42, mem.Shared, LRU[meta]())
	if ev {
		t.Fatal("insert into empty set must not evict")
	}
	if ins.Addr != 42 || ins.State != mem.Shared {
		t.Fatalf("inserted line = %+v", ins)
	}
	got := c.Lookup(42)
	if got == nil || got.Addr != 42 {
		t.Fatal("lookup after insert must hit")
	}
	if c.Len() != 1 {
		t.Fatalf("Len = %d", c.Len())
	}
}

func TestInsertDuplicatePanics(t *testing.T) {
	c := newTestCache(64, 4)
	c.Insert(7, mem.Shared, LRU[meta]())
	defer func() {
		if recover() == nil {
			t.Fatal("duplicate Insert must panic")
		}
	}()
	c.Insert(7, mem.Exclusive, LRU[meta]())
}

func TestInsertInvalidStatePanics(t *testing.T) {
	c := newTestCache(64, 4)
	defer func() {
		if recover() == nil {
			t.Fatal("Insert with Invalid state must panic")
		}
	}()
	c.Insert(7, mem.Invalid, LRU[meta]())
}

// sameSet returns n distinct line addresses mapping to the same set.
func sameSet(c *Cache[meta], n int) []mem.LineAddr {
	want := c.SetOf(0)
	out := []mem.LineAddr{0}
	for a := mem.LineAddr(1); len(out) < n; a++ {
		if c.SetOf(a) == want {
			out = append(out, a)
		}
	}
	return out
}

func TestLRUEviction(t *testing.T) {
	c := newTestCache(64, 4)
	addrs := sameSet(c, 5)
	for _, a := range addrs[:4] {
		c.Insert(a, mem.Shared, LRU[meta]())
	}
	// Touch addrs[0] so addrs[1] becomes least recently used.
	c.Touch(c.Lookup(addrs[0]))
	_, victim, evicted := c.Insert(addrs[4], mem.Shared, LRU[meta]())
	if !evicted {
		t.Fatal("full set must evict")
	}
	if victim.Addr != addrs[1] {
		t.Fatalf("victim = %#x, want LRU %#x", victim.Addr, addrs[1])
	}
	if c.Lookup(addrs[1]) != nil {
		t.Fatal("victim must be gone")
	}
	if c.Lookup(addrs[0]) == nil {
		t.Fatal("touched line must survive")
	}
}

func TestInvalidate(t *testing.T) {
	c := newTestCache(64, 4)
	ins, _, _ := c.Insert(9, mem.Modified, LRU[meta]())
	ins.Dirty = true
	rem, ok := c.Invalidate(9)
	if !ok || rem.Addr != 9 || !rem.Dirty || rem.State != mem.Modified {
		t.Fatalf("Invalidate returned %+v ok=%v", rem, ok)
	}
	if c.Lookup(9) != nil || c.Len() != 0 {
		t.Fatal("line must be gone")
	}
	if _, ok := c.Invalidate(9); ok {
		t.Fatal("double invalidate must report absence")
	}
}

func TestInvalidFreesWay(t *testing.T) {
	c := newTestCache(64, 4)
	addrs := sameSet(c, 5)
	for _, a := range addrs[:4] {
		c.Insert(a, mem.Shared, LRU[meta]())
	}
	c.Invalidate(addrs[2])
	_, _, evicted := c.Insert(addrs[4], mem.Shared, LRU[meta]())
	if evicted {
		t.Fatal("insert must reuse the invalidated way without eviction")
	}
}

func TestModifiedLRUPrefersFewestCopies(t *testing.T) {
	c := newTestCache(64, 4)
	addrs := sameSet(c, 5)
	copies := map[mem.LineAddr]int{
		addrs[0]: 3, addrs[1]: 1, addrs[2]: 0, addrs[3]: 0,
	}
	for _, a := range addrs[:4] {
		c.Insert(a, mem.Shared, LRU[meta]())
	}
	// addrs[2] and addrs[3] tie at 0 copies; addrs[2] is older (inserted
	// earlier), so it must be the victim.
	sel := ModifiedLRU(func(l *Line[meta]) int { return copies[l.Addr] })
	_, victim, _ := c.Insert(addrs[4], mem.Shared, sel)
	if victim.Addr != addrs[2] {
		t.Fatalf("victim = %#x, want %#x (fewest copies, then LRU)", victim.Addr, addrs[2])
	}
}

func TestModifiedLRUDegeneratesToLRU(t *testing.T) {
	c := newTestCache(64, 4)
	addrs := sameSet(c, 5)
	for _, a := range addrs[:4] {
		c.Insert(a, mem.Shared, LRU[meta]())
	}
	sel := ModifiedLRU(func(*Line[meta]) int { return 0 })
	_, victim, _ := c.Insert(addrs[4], mem.Shared, sel)
	if victim.Addr != addrs[0] {
		t.Fatalf("victim = %#x, want LRU %#x", victim.Addr, addrs[0])
	}
}

func TestWaysOf(t *testing.T) {
	c := newTestCache(64, 4)
	c.Insert(3, mem.Shared, LRU[meta]())
	ways := c.WaysOf(3)
	if len(ways) != 4 {
		t.Fatalf("WaysOf returned %d ways", len(ways))
	}
	found := false
	for i := range ways {
		if ways[i].State.Valid() && ways[i].Addr == 3 {
			found = true
		}
	}
	if !found {
		t.Fatal("WaysOf must expose the resident line")
	}
}

func TestForEachAndCollectIf(t *testing.T) {
	c := newTestCache(64, 4)
	for a := mem.LineAddr(0); a < 10; a++ {
		c.Insert(a, mem.Shared, LRU[meta]())
	}
	n := 0
	c.ForEach(func(l *Line[meta]) { n++ })
	if n != 10 {
		t.Fatalf("ForEach visited %d lines, want 10", n)
	}
	odd := c.CollectIf(func(l *Line[meta]) bool { return l.Addr%2 == 1 })
	if len(odd) != 5 {
		t.Fatalf("CollectIf returned %d lines, want 5", len(odd))
	}
}

func TestMetaZeroedOnInsert(t *testing.T) {
	c := newTestCache(64, 4)
	ins, _, _ := c.Insert(1, mem.Shared, LRU[meta]())
	ins.Meta.tag = 99
	c.Invalidate(1)
	ins2, _, _ := c.Insert(1, mem.Shared, LRU[meta]())
	if ins2.Meta.tag != 0 {
		t.Fatal("Meta must be zeroed on insert")
	}
}

// TestOccupancyInvariant: Len never exceeds Capacity and always equals the
// number of valid lines, under arbitrary insert/invalidate sequences.
func TestOccupancyInvariant(t *testing.T) {
	f := func(ops []uint16) bool {
		c := newTestCache(128, 4)
		for _, op := range ops {
			a := mem.LineAddr(op % 512)
			if op&0x8000 != 0 {
				c.Invalidate(a)
			} else if c.Lookup(a) == nil {
				c.Insert(a, mem.Shared, LRU[meta]())
			}
			if c.Len() > c.Capacity() {
				return false
			}
		}
		valid := 0
		c.ForEach(func(*Line[meta]) { valid++ })
		return valid == c.Len()
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

// TestLookupAlwaysFindsInserted: a line inserted and not evicted or
// invalidated is always found.
func TestLookupAlwaysFindsInserted(t *testing.T) {
	f := func(addrs []uint16) bool {
		c := newTestCache(4096, 8) // large: no evictions for small inputs
		seen := map[mem.LineAddr]bool{}
		for _, a16 := range addrs {
			a := mem.LineAddr(a16)
			if !seen[a] {
				c.Insert(a, mem.Exclusive, LRU[meta]())
				seen[a] = true
			}
			if c.Lookup(a) == nil {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

// TestSetHashSpread: the hashed set index must spread stride-64 (same low
// bits) addresses across many sets — the property raw bit-selection lacks
// and the reason hashing is used (see SetOf).
func TestSetHashSpread(t *testing.T) {
	c := newTestCache(4096, 8) // 512 sets
	used := map[int]bool{}
	for i := 0; i < 512; i++ {
		used[c.SetOf(mem.LineAddr(i*64))] = true // all ≡ 0 mod 64
	}
	if len(used) < 256 {
		t.Fatalf("stride-64 addresses hit only %d of 512 sets", len(used))
	}
}

// TestAgainstMapModel drives random Insert/Invalidate/Lookup/Touch
// sequences at L1-like (4-way) and LLC-like (8-way) geometries against a
// naive map of the resident lines. It keeps the packed tag array and the
// lines in step: every scan that uses the tags must agree with the lines
// the model says are resident.
func TestAgainstMapModel(t *testing.T) {
	for _, g := range []struct{ lines, ways int }{{64, 4}, {256, 8}} {
		for seed := uint64(1); seed <= 4; seed++ {
			c := newTestCache(g.lines, g.ways)
			model := map[mem.LineAddr]mem.MESI{}
			rng := rand.New(rand.NewPCG(seed, uint64(g.ways)))
			// Addresses span four times the capacity, so sets overflow
			// and evict often.
			span := uint64(4 * g.lines)
			for step := 0; step < 20000; step++ {
				a := mem.LineAddr(rng.Uint64N(span))
				switch op := rng.IntN(10); {
				case op < 4:
					if _, ok := model[a]; ok {
						if !insertPanics(c, a) {
							t.Fatalf("%d-way seed %d step %d: duplicate Insert(%#x) must panic", g.ways, seed, step, a)
						}
						continue
					}
					state := []mem.MESI{mem.Shared, mem.Exclusive, mem.Modified}[rng.IntN(3)]
					ins, victim, evicted := c.Insert(a, state, LRU[meta]())
					if ins.Addr != a || ins.State != state {
						t.Fatalf("%d-way seed %d step %d: Insert returned %+v", g.ways, seed, step, *ins)
					}
					if evicted {
						if _, ok := model[victim.Addr]; !ok || c.SetOf(victim.Addr) != c.SetOf(a) {
							t.Fatalf("%d-way seed %d step %d: evicted %#x, not a resident set-mate of %#x", g.ways, seed, step, victim.Addr, a)
						}
						delete(model, victim.Addr)
					}
					model[a] = state
				case op < 6:
					removed, ok := c.Invalidate(a)
					state, resident := model[a]
					if ok != resident || (ok && (removed.Addr != a || removed.State != state)) {
						t.Fatalf("%d-way seed %d step %d: Invalidate(%#x) = %+v, %v; model resident=%v", g.ways, seed, step, a, removed, ok, resident)
					}
					delete(model, a)
				case op < 8:
					if l := c.Lookup(a); l != nil {
						c.Touch(l)
					}
				}
				l := c.Lookup(a)
				state, resident := model[a]
				if (l != nil) != resident || (l != nil && (l.Addr != a || l.State != state)) {
					t.Fatalf("%d-way seed %d step %d: Lookup(%#x) = %v; model resident=%v state=%v", g.ways, seed, step, a, l, resident, state)
				}
			}
			if c.Len() != len(model) {
				t.Fatalf("%d-way seed %d: Len = %d, model holds %d", g.ways, seed, c.Len(), len(model))
			}
			seen := map[mem.LineAddr]bool{}
			c.ForEach(func(l *Line[meta]) {
				if state, ok := model[l.Addr]; !ok || state != l.State || seen[l.Addr] {
					t.Fatalf("%d-way seed %d: ForEach visited %#x (%v), model has it=%v", g.ways, seed, l.Addr, l.State, ok)
				}
				seen[l.Addr] = true
			})
			if len(seen) != len(model) {
				t.Fatalf("%d-way seed %d: ForEach visited %d lines, model holds %d", g.ways, seed, len(seen), len(model))
			}
			for a := range model {
				if c.Lookup(a) == nil {
					t.Fatalf("%d-way seed %d: resident line %#x not found", g.ways, seed, a)
				}
			}
		}
	}
}

// TestReservedAddress: the all-ones address marks free ways in the tag
// array, so it can never be inserted and never hits.
func TestReservedAddress(t *testing.T) {
	c := newTestCache(64, 4)
	if c.Lookup(noTag) != nil {
		t.Fatal("Lookup of the reserved address must miss on an empty cache")
	}
	if !insertPanics(c, noTag) {
		t.Fatal("Insert of the reserved address must panic")
	}
	if _, ok := c.Invalidate(noTag); ok {
		t.Fatal("Invalidate of the reserved address must report absence")
	}
}

// insertPanics reports whether inserting a panics.
func insertPanics(c *Cache[meta], a mem.LineAddr) (panicked bool) {
	defer func() { panicked = recover() != nil }()
	c.Insert(a, mem.Shared, LRU[meta]())
	return false
}
