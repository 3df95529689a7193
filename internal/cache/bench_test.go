package cache

import (
	"testing"

	"lard/internal/mem"
)

// The benchmark metadata types pad lines to the sizes the coherence engine
// stores on amd64: a 40 B Line in the L1s and an 80 B Line in the LLC
// slices.
type (
	benchL1Meta  struct{ _ [2]uint64 }
	benchLLCMeta struct{ _ [7]uint64 }
)

// benchLookup fills a cache of the given geometry (the Table-1 L1-D and
// LLC slice) to capacity, then times Lookup of resident lines (hit) or of
// absent lines that map to full sets (miss).
func benchLookup[M any](b *testing.B, lines, ways int, hit bool) {
	c := New[M](lines, ways)
	var resident []mem.LineAddr
	for a := mem.LineAddr(0); c.Len() < c.Capacity(); a++ {
		if !setFull(c, a) {
			c.Insert(a, mem.Shared, LRU[M]())
			resident = append(resident, a)
		}
	}
	probe := resident
	if !hit {
		probe = make([]mem.LineAddr, len(resident))
		for i, a := range resident {
			probe[i] = a + 1<<40 // never inserted; every set is full
		}
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		l := c.Lookup(probe[i%len(probe)])
		if (l != nil) != hit {
			b.Fatal("unexpected lookup outcome")
		}
	}
}

// setFull reports whether a's set has no free way.
func setFull[M any](c *Cache[M], a mem.LineAddr) bool {
	for _, l := range c.WaysOf(a) {
		if !l.State.Valid() {
			return false
		}
	}
	return true
}

func BenchmarkLookupL1Hit(b *testing.B)   { benchLookup[benchL1Meta](b, 512, 4, true) }
func BenchmarkLookupL1Miss(b *testing.B)  { benchLookup[benchL1Meta](b, 512, 4, false) }
func BenchmarkLookupLLCHit(b *testing.B)  { benchLookup[benchLLCMeta](b, 4096, 8, true) }
func BenchmarkLookupLLCMiss(b *testing.B) { benchLookup[benchLLCMeta](b, 4096, 8, false) }
