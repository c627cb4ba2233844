package mem

// LRU is the exact least-recently-used key set under the modelled
// machine's fully-associative translation caches, the TLB here and the
// OLB (internal/olb). Every operation is O(1) and allocation-free: keys
// sit in slots on an intrusive recency list and are found through an
// open-addressed index (linear probing from a Fibonacci hash,
// backward-shift delete, so no tombstones). It performs no
// synchronisation.
type LRU struct {
	slots []slot  // Cap() keys, then the list sentinel (next = MRU, prev = LRU)
	index []int32 // power of two ≥ 2·Cap() positions: key -> slot+1, 0 = empty
	shift uint    // 64 - log2(len(index))
	used  int32   // slots filled since the last Reset
	mru   uint64  // most recently used key + 1; 0 = none (or key ^0)
	mruAt int32   // its slot
}

type slot struct {
	key        uint64
	prev, next int32 // the next more / less recently used slot
}

// NewLRU returns an empty set holding at most entries keys (at least
// one). Owners embed the LRU by value, next to their own hot counters.
func NewLRU(entries int) LRU {
	entries = max(entries, 1)
	bits := uint(1)
	for 1<<bits < 2*entries {
		bits++
	}
	s := LRU{slots: make([]slot, entries+1), index: make([]int32, 1<<bits), shift: 64 - bits}
	s.Reset()
	return s
}

// Cap returns the capacity.
func (s *LRU) Cap() int { return len(s.slots) - 1 }

// Home returns the index position key probes from. Tests use it to
// build traces whose keys collide.
func (s *LRU) Home(key uint64) int { return int(key * 0x9E3779B97F4A7C15 >> s.shift) }

// Lookup reports whether key is resident and, if so, makes it the most
// recently used key and returns its slot. A miss changes nothing. The
// key that is already most recent — every access of a sweep but the
// first on each page — is answered without reading the index.
func (s *LRU) Lookup(key uint64) (slot int, hit bool) {
	if k := key + 1; k == s.mru && k != 0 {
		return int(s.mruAt), true
	}
	at, ok := s.Peek(key)
	if ok {
		s.unlink(int32(at))
		s.pushFront(int32(at), key)
	}
	return at, ok
}

// Peek is Lookup without the recency update: it returns key's slot, or
// -1 and false if key is not resident.
func (s *LRU) Peek(key uint64) (slot int, ok bool) {
	v := s.index[s.find(key)]
	return int(v) - 1, v != 0
}

// Insert adds key, which must not be resident, as the most recently
// used key, evicting the least recently used one if the set is full,
// and returns its slot.
func (s *LRU) Insert(key uint64) int {
	at := s.used
	if int(at) < s.Cap() {
		s.used++
	} else {
		at = s.slots[s.Cap()].prev
		s.unlink(at)
		s.remove(s.find(s.slots[at].key))
	}
	s.slots[at].key = key
	s.index[s.find(key)] = at + 1
	s.pushFront(at, key)
	return int(at)
}

// Reset empties the set.
func (s *LRU) Reset() {
	head := int32(s.Cap())
	s.slots[head].prev, s.slots[head].next = head, head
	s.used, s.mru = 0, 0
	clear(s.index)
}

// find returns the index position holding key, or the empty position
// that ends key's probe run.
func (s *LRU) find(key uint64) int {
	mask := len(s.index) - 1
	for i := s.Home(key); ; i = (i + 1) & mask {
		if v := s.index[i]; v == 0 || s.slots[v-1].key == key {
			return i
		}
	}
}

// remove empties index position i, shifting later members of its probe
// run back so that every key stays reachable from its home.
func (s *LRU) remove(i int) {
	mask := len(s.index) - 1
	for j := (i + 1) & mask; s.index[j] != 0; j = (j + 1) & mask {
		// The key at j may fill the hole when i lies cyclically between
		// its home and j.
		if h := s.Home(s.slots[s.index[j]-1].key); (j-h)&mask >= (j-i)&mask {
			s.index[i] = s.index[j]
			i = j
		}
	}
	s.index[i] = 0
}

func (s *LRU) unlink(at int32) {
	p, n := s.slots[at].prev, s.slots[at].next
	s.slots[p].next, s.slots[n].prev = n, p
}

func (s *LRU) pushFront(at int32, key uint64) {
	head := int32(s.Cap())
	first := s.slots[head].next
	s.slots[at].prev, s.slots[at].next = head, first
	s.slots[first].prev, s.slots[head].next = at, at
	s.mru, s.mruAt = key+1, at
}
