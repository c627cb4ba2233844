package mem

import "fmt"

// LineSize is the cache line size in bytes for all cache levels.
const LineSize = 64

// Cache is a set-associative, write-allocate, write-back cache model
// with true-LRU replacement within each set. Only tags are tracked: data
// always lives in Memory (the functional simulator is store-through),
// so the cache influences timing and statistics, never values.
//
// Host layout: one []uint64 in which each set is `ways` consecutive
// words kept in recency order — word 0 is the most recently used line,
// the last word the replacement victim. A word is 0 for an invalid way
// and (line+1)<<1 | dirty otherwise; line = addr/64 < 2^58, so the
// bias cannot overflow and no probe can match an invalid way. Valid
// entries are therefore always a prefix of the set, which makes "first
// invalid way, else least recently used" simply "the tail": every
// access slides the words ahead of its line down by one and puts the
// line at the front, and whatever falls off the end is the eviction.
// An 8-way set is exactly one 64-byte host cache line. The zero value
// of the slice is the empty cache, so NewCache writes nothing and the
// host pages of sets the program never touches are never made resident
// (the paper's 8 MB L2 is 1 MiB of words per PE).
type Cache struct {
	name     string
	ways     int
	sets     uint64
	mask     uint64   // sets-1 when pow2: the set index is line&mask
	pow2     bool     // sets is a power of two (both paper geometries)
	words    []uint64 // sets×ways, laid out as described above
	hits     uint64
	misses   uint64
	evicts   uint64
	wbBytes  uint64
	sizeByte int
}

// NewCache builds a cache of size bytes with the given associativity.
// size must be a multiple of ways*LineSize.
func NewCache(name string, size, ways int) (*Cache, error) {
	if size <= 0 || ways <= 0 {
		return nil, fmt.Errorf("mem: cache %s: non-positive geometry", name)
	}
	lines := size / LineSize
	if lines*LineSize != size || lines%ways != 0 {
		return nil, fmt.Errorf("mem: cache %s: size %d not divisible into %d-way sets of %d-byte lines",
			name, size, ways, LineSize)
	}
	sets := uint64(lines / ways)
	return &Cache{
		name: name, sets: sets, ways: ways, sizeByte: size,
		mask: sets - 1, pow2: sets&(sets-1) == 0,
		words: make([]uint64, lines),
	}, nil
}

// MustCache is NewCache for static configurations; it panics on error.
func MustCache(name string, size, ways int) *Cache {
	c, err := NewCache(name, size, ways)
	if err != nil {
		panic(err)
	}
	return c
}

// set returns the index of the set that holds lineAddr.
func (c *Cache) set(lineAddr uint64) uint64 {
	idx := lineAddr & c.mask
	if !c.pow2 {
		idx = lineAddr % c.sets
	}
	return idx
}

// access probes a single line. write marks the line dirty on presence.
func (c *Cache) access(lineAddr uint64, write bool) (hit bool) {
	base := int(c.set(lineAddr)) * c.ways
	set := c.words[base : base+c.ways]
	key := (lineAddr + 1) << 1
	var dirty uint64
	if write {
		dirty = 1
	}
	// One pass probes and reorders: cur is the entry that stood one way
	// ahead and now moves into way w. The walk ends at the line (a hit:
	// the ways ahead of it have slid down, it goes to the front), at
	// the end of the valid prefix (a miss with room) or off the end of
	// the set (a miss; cur is the least recently used line).
	cur := set[0]
	if cur&^1 == key {
		set[0] = cur | dirty
		c.hits++
		return true
	}
	for w := 1; cur != 0 && w < len(set); w++ {
		next := set[w]
		set[w] = cur
		if next&^1 == key {
			set[0] = next | dirty
			c.hits++
			return true
		}
		cur = next
	}
	c.misses++
	if cur != 0 {
		c.evicts++
		if cur&1 != 0 {
			c.wbBytes += LineSize
		}
	}
	set[0] = key | dirty
	return false
}

// dirtyFront marks line dirty; it must be the most recently used line
// of its set, as after an access to it.
func (c *Cache) dirtyFront(line uint64) {
	c.words[int(c.set(line))*c.ways] |= 1
}

// settle finishes a sweep over the lines first, first+1, ...,
// first+n-1 whose first sets·ways lines, and only those, have been
// probed with access; n must exceed sets·ways. Consecutive lines cycle
// through the sets, so the probed lines left exactly ways sweep lines
// in every set, and each later line misses and evicts the sweep line
// sets·ways before it. settle books those misses and evictions, a
// writeback for every evicted line that is dirty (every one on a write
// sweep; on a read sweep only probed lines can be), and leaves each set
// as the probes would: its last later lines, most recent first, ahead
// of the probed lines that survive. It visits each set once.
func (c *Cache) settle(first uint64, n int, write bool) {
	later := uint64(n - len(c.words))
	c.misses += later
	c.evicts += later
	var dirty uint64
	if write {
		dirty = 1
		c.wbBytes += later * LineSize
	}
	ways, start := uint64(c.ways), first+uint64(len(c.words))
	// The sweep's last min(sets, later) lines are the most recent lines
	// of as many sets, the only sets a later line reached.
	last := first + uint64(n) - 1
	for d := range min(c.sets, later) {
		line := last - d
		m := min(ways, (line-start)/c.sets+1) // later lines the set keeps
		base := int(c.set(line)) * c.ways
		set := c.words[base : base+c.ways]
		if !write {
			for _, e := range set[ways-m:] {
				c.wbBytes += LineSize * (e & 1)
			}
		}
		copy(set[m:], set[:ways-m])
		for k := range m {
			set[k] = (line-k*c.sets+1)<<1 | dirty
		}
	}
}

// Access touches every line covered by [addr, addr+size) and reports
// whether all of them hit. Statistics count one probe per line.
func (c *Cache) Access(addr uint64, size int, write bool) (allHit bool) {
	if size <= 0 {
		return true
	}
	first := addr / LineSize
	last := (addr + uint64(size) - 1) / LineSize
	allHit = true
	for line := first; line <= last; line++ {
		if !c.access(line, write) {
			allHit = false
		}
	}
	return allHit
}

// Flush invalidates every line, counting dirty lines as written back.
// Only valid ways are written, so flushing does not make the host
// pages of untouched sets resident either.
func (c *Cache) Flush() {
	for i, e := range c.words {
		if e != 0 {
			c.wbBytes += LineSize * (e & 1)
			c.words[i] = 0
		}
	}
}

// Hits returns the number of line probes that hit.
func (c *Cache) Hits() uint64 { return c.hits }

// Misses returns the number of line probes that missed.
func (c *Cache) Misses() uint64 { return c.misses }

// Evictions returns the number of valid lines replaced.
func (c *Cache) Evictions() uint64 { return c.evicts }

// WritebackBytes returns the number of dirty bytes written back.
func (c *Cache) WritebackBytes() uint64 { return c.wbBytes }

// Size returns the capacity in bytes.
func (c *Cache) Size() int { return c.sizeByte }

// Ways returns the associativity.
func (c *Cache) Ways() int { return c.ways }

// Sets returns the number of sets.
func (c *Cache) Sets() int { return int(c.sets) }

// HitRate returns hits/(hits+misses), or 0 with no traffic.
func (c *Cache) HitRate() float64 {
	total := c.hits + c.misses
	if total == 0 {
		return 0
	}
	return float64(c.hits) / float64(total)
}
