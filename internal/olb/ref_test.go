package olb

import (
	"fmt"
	"math/rand"
	"testing"
)

// refOLB is the OLB as it stood before the mem.LRU cache, kept verbatim
// (less the lock) as the differential oracle: the backing table is read
// on every translation, every hit stamps the ID with a fresh tick, and
// a miss on a full cache scans it for the oldest stamp.
type refOLB struct {
	table   map[uint64]Entry  // backing table: every registered ID
	cache   map[uint64]uint64 // ID -> last-use tick
	entries int
	tick    uint64
	hits    uint64
	misses  uint64
	faults  uint64
}

func newRefOLB(entries int) *refOLB {
	if entries <= 0 {
		entries = 1
	}
	return &refOLB{
		table:   make(map[uint64]Entry),
		cache:   make(map[uint64]uint64, entries),
		entries: entries,
	}
}

func (o *refOLB) Register(id uint64, e Entry) { o.table[id] = e }

func (o *refOLB) Translate(id uint64) (e Entry, hit bool, err error) {
	if id == LocalID {
		return Entry{}, false, fmt.Errorf("olb: object ID 0 is local and needs no translation")
	}
	e, ok := o.table[id]
	if !ok {
		o.faults++
		return Entry{}, false, fmt.Errorf("olb: unmapped object ID %d", id)
	}
	o.tick++
	if _, resident := o.cache[id]; resident {
		o.cache[id] = o.tick
		o.hits++
		return e, true, nil
	}
	o.misses++
	if len(o.cache) >= o.entries {
		var victim uint64
		oldest := ^uint64(0)
		for k, used := range o.cache {
			if used < oldest {
				oldest = used
				victim = k
			}
		}
		delete(o.cache, victim)
	}
	o.cache[id] = o.tick
	return e, false, nil
}

// TestOLBMatchesReference replays random translation traces through the
// OLB and the reference: more registered IDs than cache entries,
// unregistered IDs and ID 0 (faults) interleaved, the top ID ^0, and
// re-registrations of resident and evicted IDs. Every translation must
// return the same entry, hit flag and error, and the counters must
// agree after every step.
func TestOLBMatchesReference(t *testing.T) {
	for _, entries := range []int{1, 2, 7, 256} {
		rng := rand.New(rand.NewSource(int64(entries)))
		o, ref := New(entries), newRefOLB(entries)
		ids := 2*entries + 5
		register := func(id uint64) {
			e := Entry{Node: rng.Intn(1024), Base: rng.Uint64()}
			if err := o.Register(id, e); err != nil {
				t.Fatal(err)
			}
			ref.Register(id, e)
		}
		for id := 1; id <= ids; id++ {
			if id%5 != 0 { // every fifth ID stays unmapped
				register(uint64(id))
			}
		}
		register(^uint64(0))
		for i := 0; i < 50_000; i++ {
			id := uint64(rng.Intn(ids + 3))
			switch rng.Intn(200) {
			case 0:
				register(1 + uint64(rng.Intn(ids)))
				continue
			case 1:
				id = ^uint64(0)
			}
			e, hit, err := o.Translate(id)
			we, whit, werr := ref.Translate(id)
			if e != we || hit != whit || fmt.Sprint(err) != fmt.Sprint(werr) {
				t.Fatalf("%d entries, step %d: Translate(%d) = %+v, %v, %v; reference %+v, %v, %v",
					entries, i, id, e, hit, err, we, whit, werr)
			}
			if o.Hits() != ref.hits || o.Misses() != ref.misses || o.Faults() != ref.faults {
				t.Fatalf("%d entries, step %d: hits/misses/faults %d/%d/%d, reference %d/%d/%d",
					entries, i, o.Hits(), o.Misses(), o.Faults(), ref.hits, ref.misses, ref.faults)
			}
		}
		if ref.hits == 0 || ref.misses <= uint64(ids) || ref.faults == 0 {
			t.Errorf("%d entries: trace too tame: %d hits, %d misses, %d faults", entries, ref.hits, ref.misses, ref.faults)
		}
	}
}
