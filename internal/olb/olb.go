// Package olb implements the Object Look-aside Buffer of the xBGAS
// architecture extension (paper §3.2).
//
// Each physically disparate processing element carries an OLB holding "a
// mapping of every unique object ID to a remote physical address".
// Whenever a remote instruction executes, the upper 64 bits of the
// extended address — the object ID held in an e register — select the
// target: ID 0 means the local processing element; any other ID is
// translated through the OLB into a remote node and base address.
//
// The package models the OLB as a small fully-associative translation
// cache in front of a complete backing table, so that translation hits
// are cheap and misses pay a fill penalty, mirroring TLB-style hardware
// behaviour. The backing table never misses for registered IDs; an
// unregistered ID is an addressing fault, which the runtime surfaces as
// an error.
package olb

import (
	"fmt"
	"sort"
	"sync"

	"xbgas/internal/mem"
)

// LocalID is the reserved object ID naming the local processing element.
// Remote instructions whose extended register holds LocalID perform a
// plain local access and never consult the OLB (paper §3.2).
const LocalID uint64 = 0

// Entry is one translation: an object ID resolves to a node and the
// physical base address of the object's segment on that node.
type Entry struct {
	Node int    // owning processing element
	Base uint64 // physical base address on the owning node
}

// OLB is one processing element's Object Look-aside Buffer. It is safe
// for concurrent use. The translation cache is a mem.LRU whose slots
// carry their translations: a hit reads neither the table nor any map.
type OLB struct {
	mu     sync.Mutex
	table  map[uint64]Entry // backing table: every registered ID
	cache  mem.LRU          // resident IDs
	cached []Entry          // cache slot -> its ID's translation
	hits   uint64
	misses uint64
	faults uint64
}

// DefaultEntries is the default translation-cache capacity. The value
// matches the per-core TLB size of the paper's simulation environment.
const DefaultEntries = 256

// New returns an OLB whose translation cache holds entries translations.
func New(entries int) *OLB {
	if entries <= 0 {
		entries = 1
	}
	return &OLB{
		table:  make(map[uint64]Entry),
		cache:  mem.NewLRU(entries),
		cached: make([]Entry, entries),
	}
}

// Register installs the translation for an object ID. Registering
// LocalID is an error: ID 0 is architecturally reserved.
func (o *OLB) Register(id uint64, e Entry) error {
	if id == LocalID {
		return fmt.Errorf("olb: object ID 0 is reserved for the local PE")
	}
	if e.Node < 0 {
		return fmt.Errorf("olb: negative node %d for object ID %d", e.Node, id)
	}
	o.mu.Lock()
	defer o.mu.Unlock()
	o.table[id] = e
	if slot, ok := o.cache.Peek(id); ok {
		o.cached[slot] = e
	}
	return nil
}

// Translate resolves an object ID. hit reports whether the translation
// was already resident in the look-aside cache; a miss fills it. An
// unregistered ID returns an error (an addressing fault).
func (o *OLB) Translate(id uint64) (e Entry, hit bool, err error) {
	if id == LocalID {
		return Entry{}, false, fmt.Errorf("olb: object ID 0 is local and needs no translation")
	}
	o.mu.Lock()
	defer o.mu.Unlock()
	if slot, hit := o.cache.Lookup(id); hit {
		o.hits++
		return o.cached[slot], true, nil
	}
	e, ok := o.table[id]
	if !ok {
		o.faults++
		return Entry{}, false, fmt.Errorf("olb: unmapped object ID %d", id)
	}
	o.misses++
	o.cached[o.cache.Insert(id)] = e
	return e, false, nil
}

// IDs returns every registered object ID in ascending order.
func (o *OLB) IDs() []uint64 {
	o.mu.Lock()
	defer o.mu.Unlock()
	ids := make([]uint64, 0, len(o.table))
	for id := range o.table {
		ids = append(ids, id)
	}
	sort.Slice(ids, func(i, j int) bool { return ids[i] < ids[j] })
	return ids
}

// Hits returns the number of translations served from the cache.
func (o *OLB) Hits() uint64 { o.mu.Lock(); defer o.mu.Unlock(); return o.hits }

// Misses returns the number of translations that required a fill.
func (o *OLB) Misses() uint64 { o.mu.Lock(); defer o.mu.Unlock(); return o.misses }

// Faults returns the number of unregistered-ID translation attempts.
func (o *OLB) Faults() uint64 { o.mu.Lock(); defer o.mu.Unlock(); return o.faults }
