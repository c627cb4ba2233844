package mem

// TLB is a fully-associative translation look-aside buffer with exact
// LRU replacement, matching the paper's 256-entry per-core
// configuration. The simulation uses identity translation (physical ==
// virtual within a node), so the TLB exists purely for its timing
// behaviour: a miss adds a page-walk penalty to the access cost.
//
// The resident page numbers are an LRU set, so every operation is O(1)
// and a lookup of the page that is already most recent — every touch
// of a streaming sweep but the first on each page — compares one field.
type TLB struct {
	pages  LRU
	hits   uint64
	misses uint64
	_      [64]byte // keeps the next node's TLB, written by another PE, off our host line
}

// NewTLB returns a TLB with the given number of entries.
func NewTLB(entries int) *TLB {
	return &TLB{pages: NewLRU(entries)}
}

// Lookup translates the page containing addr, returning true on a hit.
// On a miss the entry is filled, evicting the least recently used entry
// if the TLB is full.
func (t *TLB) Lookup(addr uint64) bool {
	pn := addr / PageSize
	if _, hit := t.pages.Lookup(pn); hit {
		t.hits++
		return true
	}
	t.misses++
	t.pages.Insert(pn)
	return false
}

// Flush empties the TLB, keeping statistics.
func (t *TLB) Flush() { t.pages.Reset() }

// Hits returns the number of lookups that hit.
func (t *TLB) Hits() uint64 { return t.hits }

// Misses returns the number of lookups that missed.
func (t *TLB) Misses() uint64 { return t.misses }

// Entries returns the configured capacity.
func (t *TLB) Entries() int { return t.pages.Cap() }
