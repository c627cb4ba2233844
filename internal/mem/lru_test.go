package mem

import (
	"math/rand"
	"slices"
	"testing"
)

// TestLRUMatchesReference replays random Lookup/Insert traces through an
// LRU and a recency-ordered slice and demands the same hits, the same
// victim on every eviction, and that a hit returns the slot its key was
// inserted into. Keys are drawn from ones that share two home positions
// (long probe runs, backward shifts on every eviction), plus 0 and ^0,
// the ends of the key space the mru marker has to tell apart from
// "none", with Resets mid-trace.
func TestLRUMatchesReference(t *testing.T) {
	for _, entries := range []int{0, 1, 2, 7, 64} {
		rng := rand.New(rand.NewSource(int64(entries)))
		s := NewLRU(entries)
		keys := []uint64{0, ^uint64(0), ^uint64(0) - 1}
		for k := uint64(1); len(keys) < 2*s.Cap()+4; k++ {
			if s.Home(k) <= 1 {
				keys = append(keys, k)
			}
		}
		var ref []uint64 // most recent first
		slotOf := map[uint64]int{}
		const steps = 20_000
		for i := 0; i < steps; i++ {
			if i == steps/2 || i == steps/2+1 {
				s.Reset()
				ref = ref[:0]
			}
			key := keys[rng.Intn(len(keys))]
			slot, hit := s.Lookup(key)
			at := slices.Index(ref, key)
			if hit != (at >= 0) {
				t.Fatalf("%d entries, step %d: Lookup(%#x) hit=%v, reference %v", entries, i, key, hit, at >= 0)
			}
			if hit {
				if slot != slotOf[key] {
					t.Fatalf("%d entries, step %d: Lookup(%#x) slot %d, inserted at %d", entries, i, key, slot, slotOf[key])
				}
				ref = slices.Insert(slices.Delete(ref, at, at+1), 0, key)
				continue
			}
			if slot != -1 {
				t.Fatalf("%d entries, step %d: miss returned slot %d", entries, i, slot)
			}
			if len(ref) == s.Cap() {
				victim := ref[len(ref)-1]
				ref = ref[:len(ref)-1]
				slot = s.Insert(key)
				if slot != slotOf[victim] {
					t.Fatalf("%d entries, step %d: Insert(%#x) took slot %d, LRU key %#x held %d", entries, i, key, slot, victim, slotOf[victim])
				}
			} else {
				slot = s.Insert(key)
			}
			slotOf[key] = slot
			ref = slices.Insert(ref, 0, key)
		}
	}
}
