package mem

// TLB is a fully-associative translation look-aside buffer with exact
// LRU replacement, matching the paper's 256-entry per-core
// configuration. The simulation uses identity translation (physical ==
// virtual within a node), so the TLB exists purely for its timing
// behaviour: a miss adds a page-walk penalty to the access cost.
//
// Every operation is O(1): the entries are slots threaded on an
// intrusive doubly-linked recency list (slot `entries` is the list's
// sentinel, so next[entries] is the most and prev[entries] the least
// recently used slot) and found through a page → slot index. A lookup
// of the page that is already most recent — every touch of a streaming
// sweep but the first on each page — compares one field (mru) and
// returns before the list or the index is read at all.
type TLB struct {
	entries int
	page    []uint64         // slot -> page number
	prev    []int32          // slot -> next more recently used slot
	next    []int32          // slot -> next less recently used slot
	index   map[uint64]int32 // page number -> slot
	used    int32            // slots filled since the last Flush
	mru     uint64           // most recently used page number + 1; 0 = none
	hits    uint64
	misses  uint64
}

// NewTLB returns a TLB with the given number of entries.
func NewTLB(entries int) *TLB {
	if entries <= 0 {
		entries = 1
	}
	t := &TLB{
		entries: entries,
		page:    make([]uint64, entries),
		prev:    make([]int32, entries+1),
		next:    make([]int32, entries+1),
		index:   make(map[uint64]int32, entries),
	}
	t.Flush()
	return t
}

// Lookup translates the page containing addr, returning true on a hit.
// On a miss the entry is filled, evicting the least recently used entry
// if the TLB is full.
func (t *TLB) Lookup(addr uint64) bool {
	pn := addr / PageSize
	if t.mru == pn+1 {
		t.hits++
		return true
	}
	t.mru = pn + 1
	head := int32(t.entries)
	s, hit := t.index[pn]
	if hit {
		t.hits++
		t.unlink(s)
	} else {
		t.misses++
		if int(t.used) < t.entries {
			s = t.used
			t.used++
		} else {
			s = t.prev[head]
			t.unlink(s)
			delete(t.index, t.page[s])
		}
		t.page[s] = pn
		t.index[pn] = s
	}
	first := t.next[head]
	t.prev[s], t.next[s] = head, first
	t.prev[first], t.next[head] = s, s
	return hit
}

// unlink removes slot s from the recency list.
func (t *TLB) unlink(s int32) {
	p, n := t.prev[s], t.next[s]
	t.next[p], t.prev[n] = n, p
}

// Flush empties the TLB, keeping statistics.
func (t *TLB) Flush() {
	head := int32(t.entries)
	t.prev[head], t.next[head] = head, head
	t.used, t.mru = 0, 0
	clear(t.index)
}

// Hits returns the number of lookups that hit.
func (t *TLB) Hits() uint64 { return t.hits }

// Misses returns the number of lookups that missed.
func (t *TLB) Misses() uint64 { return t.misses }

// Entries returns the configured capacity.
func (t *TLB) Entries() int { return t.entries }
