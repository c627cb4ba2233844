package mem

import (
	"fmt"
	"math/rand"
	"testing"
	"testing/quick"
)

func TestMemoryReadWriteRoundTrip(t *testing.T) {
	m := NewMemory()
	for _, size := range []int{1, 2, 4, 8} {
		addr := uint64(0x1000 + size*64)
		want := uint64(0x1122334455667788) & (1<<(8*size) - 1)
		m.WriteUint(addr, size, want)
		if got := m.ReadUint(addr, size); got != want {
			t.Errorf("size %d: got %#x, want %#x", size, got, want)
		}
	}
}

func TestMemoryZeroFill(t *testing.T) {
	m := NewMemory()
	if v := m.Uint64(0xDEADBEEF000); v != 0 {
		t.Errorf("unwritten memory = %#x, want 0", v)
	}
	var buf [16]byte
	m.ReadBytes(0x12345, buf[:])
	for i, b := range buf {
		if b != 0 {
			t.Errorf("byte %d = %#x, want 0", i, b)
		}
	}
}

func TestMemoryCrossPageAccess(t *testing.T) {
	m := NewMemory()
	addr := uint64(PageSize - 3) // straddles the first page boundary
	m.WriteUint(addr, 8, 0x0102030405060708)
	if got := m.ReadUint(addr, 8); got != 0x0102030405060708 {
		t.Errorf("cross-page read = %#x", got)
	}
	if m.Footprint() != 2 {
		t.Errorf("footprint = %d, want 2 pages", m.Footprint())
	}
}

func TestMemoryQuickRoundTrip(t *testing.T) {
	m := NewMemory()
	f := func(addr uint64, v uint64, szSel uint8) bool {
		size := []int{1, 2, 4, 8}[szSel%4]
		addr %= 1 << 40 // keep the page map small-ish
		want := v & (1<<(8*size) - 1)
		m.WriteUint(addr, size, v)
		return m.ReadUint(addr, size) == want
	}
	cfg := &quick.Config{MaxCount: 2000, Rand: rand.New(rand.NewSource(11))}
	if err := quick.Check(f, cfg); err != nil {
		t.Fatal(err)
	}
}

func TestMemoryLittleEndianLayout(t *testing.T) {
	m := NewMemory()
	m.PutUint32(0x100, 0x11223344)
	if b := m.ReadUint(0x100, 1); b != 0x44 {
		t.Errorf("LSB = %#x, want 0x44", b)
	}
	if b := m.ReadUint(0x103, 1); b != 0x11 {
		t.Errorf("MSB = %#x, want 0x11", b)
	}
}

func TestTLBHitMissLRU(t *testing.T) {
	tlb := NewTLB(2)
	if tlb.Lookup(0 * PageSize) {
		t.Error("first touch must miss")
	}
	if !tlb.Lookup(0 * PageSize) {
		t.Error("second touch must hit")
	}
	tlb.Lookup(1 * PageSize) // miss, fills
	tlb.Lookup(0 * PageSize) // hit, refreshes page 0
	tlb.Lookup(2 * PageSize) // miss, evicts LRU page 1
	if tlb.Lookup(1 * PageSize) {
		t.Error("page 1 should have been evicted (LRU)")
	}
	// That probe itself filled page 1, evicting LRU page 0.
	if !tlb.Lookup(2 * PageSize) {
		t.Error("page 2 should still be resident")
	}
	if tlb.Hits() == 0 || tlb.Misses() == 0 {
		t.Error("statistics not recorded")
	}
}

func TestTLBFlush(t *testing.T) {
	tlb := NewTLB(4)
	tlb.Lookup(0)
	tlb.Flush()
	if tlb.Lookup(0) {
		t.Error("flush must empty the TLB")
	}
}

// refTLB is the map-and-tick LRU the TLB was first written as, kept
// verbatim as the differential oracle: every lookup stamps the page
// with a fresh tick, and a miss on a full TLB scans all entries for the
// oldest stamp.
type refTLB struct {
	entries      int
	slots        map[uint64]uint64 // page number -> last-use tick
	tick         uint64
	hits, misses uint64
}

func newRefTLB(entries int) *refTLB {
	if entries <= 0 {
		entries = 1
	}
	return &refTLB{entries: entries, slots: make(map[uint64]uint64, entries)}
}

func (t *refTLB) Lookup(addr uint64) bool {
	pn := addr / PageSize
	t.tick++
	if _, ok := t.slots[pn]; ok {
		t.slots[pn] = t.tick
		t.hits++
		return true
	}
	t.misses++
	if len(t.slots) >= t.entries {
		var victim uint64
		oldest := ^uint64(0)
		for p, used := range t.slots {
			if used < oldest {
				oldest = used
				victim = p
			}
		}
		delete(t.slots, victim)
	}
	t.slots[pn] = t.tick
	return false
}

func (t *refTLB) Flush() { t.slots = make(map[uint64]uint64, t.entries) }

// TestTLBMatchesReference replays address traces through the TLB and
// the reference and demands the same answer to every lookup and the
// same counters: a streaming sweep (the same-page early-out), uniform
// random pages (GUPS), round-robin over exactly capacity and
// capacity+1 pages (always-hit and always-miss under LRU), and each of
// those again after a Flush mid-trace.
func TestTLBMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	traces := map[string]func(i int) uint64{
		"streaming": func(i int) uint64 { return uint64(i) * LineSize },
		"random":    func(int) uint64 { return uint64(rng.Intn(4096))*PageSize + uint64(rng.Intn(PageSize)) },
		"hot-cold": func(i int) uint64 {
			if i%3 == 0 {
				return uint64(rng.Intn(1<<16)) * PageSize
			}
			return uint64(rng.Intn(8)) * PageSize
		},
		"capacity":   func(i int) uint64 { return uint64(i%256) * PageSize },
		"capacity+1": func(i int) uint64 { return uint64(i%257) * PageSize },
	}
	for _, entries := range []int{0, 1, 2, 7, 256} {
		traces["colliding"] = collidingPages(entries, rng)
		for name, addr := range traces {
			tlb, ref := NewTLB(entries), newRefTLB(entries)
			const steps = 40_000
			for i := 0; i < steps; i++ {
				if i == steps/2 || i == steps/2+3 {
					tlb.Flush()
					ref.Flush()
				}
				a := addr(i)
				if got, want := tlb.Lookup(a), ref.Lookup(a); got != want {
					t.Fatalf("%s, %d entries: lookup %d of %#x hit=%v, reference %v", name, entries, i, a, got, want)
				}
			}
			if tlb.Hits() != ref.hits || tlb.Misses() != ref.misses {
				t.Errorf("%s, %d entries: %d hits / %d misses, reference %d / %d",
					name, entries, tlb.Hits(), tlb.Misses(), ref.hits, ref.misses)
			}
			if tlb.Entries() != ref.entries {
				t.Errorf("%d entries requested: capacity %d, reference %d", entries, tlb.Entries(), ref.entries)
			}
		}
	}
}

// collidingPages is a TLB trace over 1.5× capacity pages whose numbers
// all hash to the first two positions of a capacity-entries TLB's
// open-addressed index: every lookup walks one long probe run and every
// eviction backward-shifts it.
func collidingPages(entries int, rng *rand.Rand) func(int) uint64 {
	set := NewLRU(entries)
	var pages []uint64
	for pn := uint64(0); len(pages) < set.Cap()*3/2+2; pn++ {
		if set.Home(pn) <= 1 {
			pages = append(pages, pn)
		}
	}
	return func(int) uint64 { return pages[rng.Intn(len(pages))]*PageSize + uint64(rng.Intn(PageSize)) }
}

func TestCacheGeometryValidation(t *testing.T) {
	if _, err := NewCache("bad", 1000, 8); err == nil {
		t.Error("expected geometry error for non-line-multiple size")
	}
	if _, err := NewCache("bad", 0, 8); err == nil {
		t.Error("expected geometry error for zero size")
	}
	c := MustCache("L1", 16<<10, 8)
	if c.Sets() != 32 || c.Ways() != 8 || c.Size() != 16<<10 {
		t.Errorf("paper L1 geometry: sets=%d ways=%d size=%d", c.Sets(), c.Ways(), c.Size())
	}
	l2 := MustCache("L2", 8<<20, 8)
	if l2.Sets() != (8<<20)/LineSize/8 {
		t.Errorf("paper L2 geometry: sets=%d", l2.Sets())
	}
}

func TestCacheHitAfterFill(t *testing.T) {
	c := MustCache("c", 4096, 4)
	if c.Access(0x1000, 8, false) {
		t.Error("cold access must miss")
	}
	if !c.Access(0x1000, 8, false) {
		t.Error("warm access must hit")
	}
	if !c.Access(0x1004, 4, true) {
		t.Error("same line must hit")
	}
}

func TestCacheLRUWithinSet(t *testing.T) {
	// 2-way, line 64: lines mapping to the same set are spaced sets*64.
	c := MustCache("c", 2*2*LineSize, 2) // 2 sets, 2 ways
	stride := uint64(c.Sets() * LineSize)
	a, b, d := uint64(0), stride, 2*stride // all set 0
	c.Access(a, 1, false)                  // miss, fill
	c.Access(b, 1, false)                  // miss, fill
	c.Access(a, 1, false)                  // hit, refresh a
	c.Access(d, 1, false)                  // miss, evict b (LRU)
	if c.Access(b, 1, false) {
		t.Error("b should have been evicted")
	}
	// That probe filled b again, evicting LRU line a; d stays resident.
	if !c.Access(d, 1, false) {
		t.Error("d should still be resident")
	}
	if c.Evictions() == 0 {
		t.Error("evictions not counted")
	}
}

func TestCacheWritebackAccounting(t *testing.T) {
	c := MustCache("c", 2*LineSize, 1) // direct-mapped, 2 sets
	c.Access(0, 8, true)               // dirty line 0
	c.Access(uint64(2*LineSize*1), 8, false)
	// line 0 and line 2 map to set 0; second access evicts dirty line.
	if c.WritebackBytes() != LineSize {
		t.Errorf("writeback bytes = %d, want %d", c.WritebackBytes(), LineSize)
	}
	c2 := MustCache("c2", 2*LineSize, 1)
	c2.Access(0, 8, true)
	c2.Flush()
	if c2.WritebackBytes() != LineSize {
		t.Errorf("flush writeback = %d", c2.WritebackBytes())
	}
}

func TestCacheMultiLineAccess(t *testing.T) {
	c := MustCache("c", 4096, 4)
	// 128-byte access spans two lines: both must be probed.
	c.Access(0, 128, false)
	if c.Misses() != 2 {
		t.Errorf("misses = %d, want 2", c.Misses())
	}
	if !c.Access(0, 128, false) {
		t.Error("both lines should now hit")
	}
}

func TestHierarchyCosts(t *testing.T) {
	cfg := DefaultConfig()
	h := MustHierarchy(cfg)

	// Cold access: TLB miss + L1 miss + L2 miss.
	cold := h.Touch(0x10000, 8, false)
	want := cfg.L1Latency + cfg.TLBMissCost + cfg.L2Latency + cfg.MemLatency
	if cold != want {
		t.Errorf("cold cost = %d, want %d", cold, want)
	}
	// Warm access: pure L1 hit.
	warm := h.Touch(0x10000, 8, false)
	if warm != cfg.L1Latency {
		t.Errorf("warm cost = %d, want %d", warm, cfg.L1Latency)
	}
	if h.Accesses() != 2 || h.Cycles() != cold+warm {
		t.Errorf("stats: accesses=%d cycles=%d", h.Accesses(), h.Cycles())
	}
}

func TestHierarchyL2HitCost(t *testing.T) {
	cfg := DefaultConfig()
	h := MustHierarchy(cfg)
	base := uint64(0)
	// Stream a working set bigger than L1 (16 KB) but within L2: lines
	// re-touched after L1 eviction should cost L1+L2 only.
	span := uint64(64 << 10) // 64 KB > L1, << L2
	for a := base; a < base+span; a += LineSize {
		h.Touch(a, 8, false)
	}
	// Second pass: TLB covers 64 KB (16 pages of 256 entries), L1 misses,
	// L2 hits.
	cost := h.Touch(base, 8, false)
	want := cfg.L1Latency + cfg.L2Latency
	if cost != want {
		t.Errorf("L2-hit cost = %d, want %d", cost, want)
	}
}

func TestDefaultConfigMatchesPaper(t *testing.T) {
	cfg := DefaultConfig()
	if cfg.TLBEntries != 256 {
		t.Errorf("TLB entries = %d, paper says 256", cfg.TLBEntries)
	}
	if cfg.L1Size != 16<<10 || cfg.L1Ways != 8 {
		t.Errorf("L1 = %d bytes %d-way, paper says 16KB 8-way", cfg.L1Size, cfg.L1Ways)
	}
	if cfg.L2Size != 8<<20 || cfg.L2Ways != 8 {
		t.Errorf("L2 = %d bytes %d-way, paper says 8MB 8-way", cfg.L2Size, cfg.L2Ways)
	}
}

func TestCacheCapacityEffect(t *testing.T) {
	// The mechanism behind the paper's superlinear per-PE scaling: a
	// working set that thrashes a small cache fits after halving.
	c := MustCache("c", 1<<10, 8) // 1 KB
	working := uint64(2 << 10)    // 2 KB: thrashes
	for pass := 0; pass < 4; pass++ {
		for a := uint64(0); a < working; a += LineSize {
			c.Access(a, 8, false)
		}
	}
	thrashRate := c.HitRate()

	c2 := MustCache("c2", 1<<10, 8)
	working = 512 // fits
	for pass := 0; pass < 4; pass++ {
		for a := uint64(0); a < working; a += LineSize {
			c2.Access(a, 8, false)
		}
	}
	if c2.HitRate() <= thrashRate {
		t.Errorf("fitting working set must hit more: fit=%.2f thrash=%.2f",
			c2.HitRate(), thrashRate)
	}
}

func TestStreamPrefetcher(t *testing.T) {
	cfg := DefaultConfig()
	cfg.Prefetch = true
	h := MustHierarchy(cfg)
	// A sequential sweep: after the detector warms up (two adjacent
	// misses), subsequent lines are prefetched and hit in L1.
	var cold, warm uint64
	for a := uint64(0); a < 64*LineSize; a += LineSize {
		c := h.Touch(a, 8, false)
		if a < 2*LineSize {
			cold += c
		} else {
			warm += c
		}
	}
	if h.Prefetches() == 0 {
		t.Fatal("prefetcher never fired on a sequential sweep")
	}
	// Average warm cost must be far below a full miss chain.
	avgWarm := warm / 62
	full := cfg.L1Latency + cfg.L2Latency + cfg.MemLatency
	if avgWarm >= full {
		t.Errorf("prefetch ineffective: avg warm cost %d vs miss chain %d", avgWarm, full)
	}

	// Random access: the detector must not fire.
	h2 := MustHierarchy(cfg)
	x := uint64(12345)
	for i := 0; i < 256; i++ {
		x = x*6364136223846793005 + 1442695040888963407
		h2.Touch((x%(1<<26))&^7, 8, false)
	}
	if h2.Prefetches() > 8 {
		t.Errorf("prefetcher fired %d times on random access", h2.Prefetches())
	}
}

func TestPrefetchOffByDefault(t *testing.T) {
	h := MustHierarchy(DefaultConfig())
	for a := uint64(0); a < 32*LineSize; a += LineSize {
		h.Touch(a, 8, false)
	}
	if h.Prefetches() != 0 {
		t.Error("prefetcher must be off by default (paper §5.1 config)")
	}
}

// refCache is the three-array cache the model was first written as,
// kept verbatim as the differential oracle: tags (^0 = invalid), a
// last-use tick per way and a dirty bit per way; a miss fills the first
// invalid way, else the way with the oldest tick.
type refCache struct {
	sets    int
	ways    int
	tags    []uint64
	dirty   []bool
	lru     []uint64
	tick    uint64
	hits    uint64
	misses  uint64
	evicts  uint64
	wbBytes uint64
}

func newRefCache(size, ways int) *refCache {
	lines := size / LineSize
	c := &refCache{
		sets: lines / ways, ways: ways,
		tags:  make([]uint64, lines),
		dirty: make([]bool, lines),
		lru:   make([]uint64, lines),
	}
	for i := range c.tags {
		c.tags[i] = ^uint64(0)
	}
	return c
}

func (c *refCache) access(lineAddr uint64, write bool) (hit bool) {
	base := int(lineAddr%uint64(c.sets)) * c.ways
	tags := c.tags[base : base+c.ways]
	c.tick++
	for w, t := range tags {
		if t == lineAddr {
			c.lru[base+w] = c.tick
			if write {
				c.dirty[base+w] = true
			}
			c.hits++
			return true
		}
	}
	c.misses++
	// Fill: choose an invalid way, else the LRU way.
	victim := 0
	oldest := ^uint64(0)
	for w, t := range tags {
		if t == ^uint64(0) {
			victim = w
			oldest = 0
			break
		}
		if c.lru[base+w] < oldest {
			oldest = c.lru[base+w]
			victim = w
		}
	}
	if tags[victim] != ^uint64(0) {
		c.evicts++
		if c.dirty[base+victim] {
			c.wbBytes += LineSize
		}
	}
	tags[victim] = lineAddr
	c.dirty[base+victim] = write
	c.lru[base+victim] = c.tick
	return false
}

func (c *refCache) Access(addr uint64, size int, write bool) (allHit bool) {
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

func (c *refCache) Flush() {
	for i := range c.tags {
		if c.tags[i] != ^uint64(0) && c.dirty[i] {
			c.wbBytes += LineSize
		}
		c.tags[i] = ^uint64(0)
		c.dirty[i] = false
	}
}

// TestCacheMatchesReference replays access traces through the packed
// recency-ordered cache and the reference and demands the same answer
// to every access and the same four counters after it: a streaming
// sweep (every set in turn, the bulk path), a hot set (every way of a
// few sets, hits at every recency position), uniform random lines, and
// a mix of those with multi-line accesses — reads and writes, with two
// Flushes mid-trace. The geometries cover the mask and the modulo set
// index, one way and one set.
func TestCacheMatchesReference(t *testing.T) {
	geometries := []struct {
		name       string
		size, ways int
	}{
		{"paper L1", 16 << 10, 8},
		{"paper L2", 8 << 20, 8},
		{"3-way, 5 sets", 5 * 3 * LineSize, 3},
		{"direct-mapped", 64 * LineSize, 1},
		{"fully associative", 16 * LineSize, 16},
	}
	const steps = 60_000
	for _, g := range geometries {
		rng := rand.New(rand.NewSource(15))
		lines := uint64(g.size / LineSize)
		sets := lines / uint64(g.ways)
		streaming := func(i int) (uint64, int) { return uint64(i) * LineSize, LineSize }
		hotSet := func(int) (uint64, int) {
			// ways+2 lines in each of two sets: hits at every
			// recency position, and evictions.
			k := uint64(rng.Intn(g.ways + 2))
			set := uint64(rng.Intn(2)) % sets
			return (k*sets+set)*LineSize + uint64(rng.Intn(LineSize-8)), 8
		}
		random := func(int) (uint64, int) { return uint64(rng.Int63n(int64(4*lines))) * LineSize, 1 }
		traces := []struct {
			name string
			next func(i int) (addr uint64, size int)
		}{
			{"streaming", streaming},
			{"hot-set", hotSet},
			{"random", random},
			{"mixed", func(i int) (uint64, int) {
				switch rng.Intn(4) {
				case 0:
					return streaming(i)
				case 1:
					return hotSet(i)
				case 2:
					// Unaligned and up to three lines long.
					return uint64(rng.Int63n(int64(2*lines) * LineSize)), 1 + rng.Intn(2*LineSize)
				}
				return random(i)
			}},
		}
		for _, tr := range traces {
			c, ref := MustCache(g.name, g.size, g.ways), newRefCache(g.size, g.ways)
			if c.Sets() != ref.sets || c.Ways() != ref.ways {
				t.Fatalf("%s: %d sets × %d ways, reference %d × %d", g.name, c.Sets(), c.Ways(), ref.sets, ref.ways)
			}
			for i := 0; i < steps; i++ {
				if i == steps/2 || i == steps/2+5 {
					c.Flush()
					ref.Flush()
				}
				addr, size := tr.next(i)
				write := rng.Intn(3) == 0
				got, want := c.Access(addr, size, write), ref.Access(addr, size, write)
				if got != want {
					t.Fatalf("%s, %s: access %d of %#x+%d write=%v hit=%v, reference %v",
						g.name, tr.name, i, addr, size, write, got, want)
				}
				if c.Hits() != ref.hits || c.Misses() != ref.misses ||
					c.Evictions() != ref.evicts || c.WritebackBytes() != ref.wbBytes {
					t.Fatalf("%s, %s: after access %d: hits/misses/evictions/writeback %d/%d/%d/%d, reference %d/%d/%d/%d",
						g.name, tr.name, i, c.Hits(), c.Misses(), c.Evictions(), c.WritebackBytes(),
						ref.hits, ref.misses, ref.evicts, ref.wbBytes)
				}
			}
			if c.Evictions() == 0 && tr.name != "streaming" && g.name != "paper L2" {
				t.Errorf("%s, %s: trace never evicted", g.name, tr.name)
			}
		}
	}
}

// TestCacheTopLineIsNotTheInvalidMarker: the last line of the address
// space misses an empty cache and hits once filled — the invalid marker
// is not a line address.
func TestCacheTopLineIsNotTheInvalidMarker(t *testing.T) {
	c := MustCache("c", 4096, 4)
	top := ^uint64(0)
	if c.Access(top, 1, false) {
		t.Error("cold access to the top line hit an empty way")
	}
	if !c.Access(top, 1, true) {
		t.Error("warm access to the top line missed")
	}
	c.Flush()
	if c.WritebackBytes() != LineSize || c.Access(top, 1, false) {
		t.Errorf("after flush: writeback %d bytes, want %d, and the line must miss", c.WritebackBytes(), LineSize)
	}
}

// TestElemsMatchScalar checks the page-run codecs against loops of
// ReadUint/WriteUint: every element size, strides that repeat one
// address, pack elements, leave gaps, land once per page and drift
// across pages, starting within 8 bytes of a page end so runs begin
// with a straddling element, over mapped and unmapped pages.
func TestElemsMatchScalar(t *testing.T) {
	const n = 700
	const base = 16 * PageSize
	for _, size := range []int{1, 2, 4, 8} {
		for _, step := range []uint64{0, uint64(size), uint64(size) + 3, PageSize, 5000} {
			for back := uint64(0); back <= 8; back++ {
				start := uint64(base + PageSize - back)
				vals := make([]uint64, n)
				for i := range vals {
					vals[i] = uint64(i+1) * 0x9E3779B97F4A7C15
				}

				// Write: batch into one memory, scalar into another;
				// every page either touched must hold the same bytes.
				batch, scalar := NewMemory(), NewMemory()
				batch.WriteElems(start, size, step, n, vals)
				for i, v := range vals {
					scalar.WriteUint(start+uint64(i)*step, size, v)
				}
				if batch.Footprint() != scalar.Footprint() {
					t.Fatalf("size %d step %d start -%d: WriteElems mapped %d pages, scalar %d",
						size, step, back, batch.Footprint(), scalar.Footprint())
				}
				var got, want [PageSize]byte
				for pn := range scalar.pages {
					batch.ReadBytes(pn*PageSize, got[:])
					scalar.ReadBytes(pn*PageSize, want[:])
					if got != want {
						t.Fatalf("size %d step %d start -%d: page %#x differs after WriteElems", size, step, back, pn)
					}
				}

				// Read: over what was written, and over a memory where
				// only every other page is mapped.
				sparse := NewMemory()
				for pn := range scalar.pages {
					if pn%2 == 0 {
						scalar.ReadBytes(pn*PageSize, got[:])
						sparse.WriteBytes(pn*PageSize, got[:])
					}
				}
				for name, m := range map[string]*Memory{"mapped": scalar, "sparse": sparse, "empty": NewMemory()} {
					pages := m.Footprint()
					out := make([]uint64, n)
					for i := range out {
						out[i] = ^uint64(0) // unmapped elements must be overwritten with 0
					}
					m.ReadElems(start, size, step, n, out)
					for i := range out {
						if w := m.ReadUint(start+uint64(i)*step, size); out[i] != w {
							t.Fatalf("size %d step %d start -%d, %s: ReadElems[%d] = %#x, ReadUint %#x",
								size, step, back, name, i, out[i], w)
						}
					}
					if m.Footprint() != pages {
						t.Fatalf("size %d step %d start -%d, %s: reading mapped %d pages", size, step, back, name, m.Footprint()-pages)
					}
				}
			}
		}
	}
}

// TestTouchRangeMatchesTouch: TouchRange is n Touch calls — the same
// per-access costs, total, counters at every level and prefetches —
// for line sweeps, element streams, strides that skip lines and pages,
// and a size that spans two lines, with the prefetcher on and off.
func TestTouchRangeMatchesTouch(t *testing.T) {
	shapes := []struct {
		name       string
		addr       uint64
		size       int
		step       uint64
		n          int
		write      bool
		withoutOut bool
	}{
		{"line sweep", 0x100000, LineSize, LineSize, 40_000, false, false},
		{"line sweep, total only", 0x100000, LineSize, LineSize, 40_000, true, true},
		{"element stream", 0x100008, 8, 8, 30_000, true, false},
		{"stride 3 lines", 0x40, 8, 3 * LineSize, 20_000, false, false},
		{"page stride", 0, 4, PageSize, 2_000, true, false},
		{"two-line span", 0x100000 + LineSize - 4, 8, LineSize, 20_000, false, false},
		{"two-line span, unaligned step", LineSize - 3, 8, 72, 20_000, true, false},
		{"same address", 0x2000, 8, 0, 100, false, false},
	}
	for _, prefetch := range []bool{false, true} {
		for _, s := range shapes {
			cfg := DefaultConfig()
			cfg.Prefetch = prefetch
			ranged, single := MustHierarchy(cfg), MustHierarchy(cfg)
			// Two passes: the second runs over warm caches.
			for pass := 0; pass < 2; pass++ {
				var costs []uint64
				if !s.withoutOut {
					costs = make([]uint64, s.n)
				}
				total := ranged.TouchRange(s.addr, s.size, s.step, s.n, s.write, costs)
				var want uint64
				for i := 0; i < s.n; i++ {
					c := single.Touch(s.addr+uint64(i)*s.step, s.size, s.write)
					if costs != nil && costs[i] != c {
						t.Fatalf("%s, prefetch=%v, pass %d: cost[%d] = %d, Touch %d", s.name, prefetch, pass, i, costs[i], c)
					}
					want += c
				}
				if total != want {
					t.Errorf("%s, prefetch=%v, pass %d: total %d, sum of Touch %d", s.name, prefetch, pass, total, want)
				}
			}
			type counters struct {
				accesses, cycles, prefetches uint64
				tlbHit, tlbMiss              uint64
				l1Hit, l1Miss, l1Evict, l1WB uint64
				l2Hit, l2Miss, l2Evict, l2WB uint64
			}
			read := func(h *Hierarchy) counters {
				return counters{
					h.Accesses(), h.Cycles(), h.Prefetches(),
					h.TLB().Hits(), h.TLB().Misses(),
					h.L1().Hits(), h.L1().Misses(), h.L1().Evictions(), h.L1().WritebackBytes(),
					h.L2().Hits(), h.L2().Misses(), h.L2().Evictions(), h.L2().WritebackBytes(),
				}
			}
			if got, want := read(ranged), read(single); got != want {
				t.Errorf("%s, prefetch=%v: counters %+v, n Touch calls %+v", s.name, prefetch, got, want)
			}
			if prefetch && s.name == "line sweep" && ranged.Prefetches() == 0 {
				t.Error("line sweep with the prefetcher on never prefetched")
			}
		}
	}
	if h := MustHierarchy(DefaultConfig()); h.TouchRange(0, 0, 8, 4, false, nil) != 0 || h.TouchRange(0, 8, 8, 0, false, nil) != 0 || h.Accesses() != 0 {
		t.Error("empty TouchRange must cost nothing and count nothing")
	}
}

// hierState is every statistic of a Hierarchy and the stream
// prefetcher's state.
type hierState struct {
	accesses, cycles, prefetches, lastMissLine uint64
	tlbHit, tlbMiss                            uint64
	l1Hit, l1Miss, l1Evict, l1WB               uint64
	l2Hit, l2Miss, l2Evict, l2WB               uint64
}

func readHierState(h *Hierarchy) hierState {
	return hierState{
		h.Accesses(), h.Cycles(), h.Prefetches(), h.lastMissLine,
		h.TLB().Hits(), h.TLB().Misses(),
		h.L1().Hits(), h.L1().Misses(), h.L1().Evictions(), h.L1().WritebackBytes(),
		h.L2().Hits(), h.L2().Misses(), h.L2().Evictions(), h.L2().WritebackBytes(),
	}
}

// copyCall is one TouchCopy call.
type copyCall struct {
	dst, src         uint64
	size             int
	dstStep, srcStep uint64
	n                int
}

// touchCopyLoop is TouchCopy's definition: a read and a write Touch per
// element.
func touchCopyLoop(h *Hierarchy, c copyCall) (total uint64) {
	for i := 0; i < c.n; i++ {
		total += h.Touch(c.src+uint64(i)*c.srcStep, c.size, false)
		total += h.Touch(c.dst+uint64(i)*c.dstStep, c.size, true)
	}
	return total
}

// checkTouchCopy issues calls through TouchCopy on one hierarchy and
// through the Touch loop on a twin, then compares every total and
// counter, and finally the costs of a random probe trace run on both,
// which differ if any TLB, cache or prefetcher state does.
func checkTouchCopy(t *testing.T, name string, cfg Config, calls []copyCall, rng *rand.Rand) {
	t.Helper()
	folded, looped := MustHierarchy(cfg), MustHierarchy(cfg)
	for k, c := range calls {
		if got, want := folded.TouchCopy(c.dst, c.src, c.size, c.dstStep, c.srcStep, c.n), touchCopyLoop(looped, c); got != want {
			t.Fatalf("%s: call %d %+v: TouchCopy %d, Touch loop %d", name, k, c, got, want)
		}
		if got, want := readHierState(folded), readHierState(looped); got != want {
			t.Fatalf("%s: after call %d %+v:\nTouchCopy  %+v\nTouch loop %+v", name, k, c, got, want)
		}
	}
	for i := 0; i < 2000; i++ {
		addr := uint64(rng.Intn(8 * PageSize))
		size := 1 << rng.Intn(4)
		write := rng.Intn(2) == 0
		if got, want := folded.Touch(addr, size, write), looped.Touch(addr, size, write); got != want {
			t.Fatalf("%s: probe %d (%#x, %d, %v) after the copies: cost %d, twin %d", name, i, addr, size, write, got, want)
		}
	}
	if got, want := readHierState(folded), readHierState(looped); got != want {
		t.Fatalf("%s: after the probe trace:\nTouchCopy  %+v\nTouch loop %+v", name, got, want)
	}
}

func TestTouchCopyMatchesTouch(t *testing.T) {
	tiny := Config{TLBEntries: 1, L1Size: LineSize, L1Ways: 1, L2Size: 4 * LineSize, L2Ways: 2,
		L1Latency: 2, L2Latency: 18, MemLatency: 200, TLBMissCost: 60}
	named := []struct {
		name string
		cfg  Config
		c    copyCall
	}{
		// A 4-byte element straddling a line: the read at LineSize+2-4
		// starts in the line of the read before it but ends in the
		// next, so a fold that looks only at where accesses start
		// counts the straddling pair as two hits.
		{"4-byte element straddling a line", DefaultConfig(), copyCall{0x10000, LineSize - 6, 4, 4, 4, 64}},
		{"8-byte stride 1", DefaultConfig(), copyCall{0x40000, 0x10000, 8, 8, 8, 4096}},
		{"dst == src", DefaultConfig(), copyCall{0x10000, 0x10000, 4, 4, 4, 512}},
		{"dst one element above src", DefaultConfig(), copyCall{0x10004, 0x10000, 4, 4, 4, 512}},
		{"dst two elements below src", DefaultConfig(), copyCall{0x10000, 0x10010, 8, 8, 8, 512}},
		{"same page, 1-entry TLB", tiny, copyCall{0x100, 0x800, 8, 8, 8, 300}},
		{"pages alternate, 1-entry TLB", tiny, copyCall{0x1100, 0x100, 8, 8, 8, 300}},
		{"one set, one way", tiny, copyCall{0x1000, 0x1040, 4, 4, 4, 300}},
		{"one set, one way, one line", tiny, copyCall{0x1000, 0x1020, 2, 2, 2, 16}},
		{"strided source", DefaultConfig(), copyCall{0x40000, 0x10000, 4, 4, 12, 2048}},
		{"zero steps", DefaultConfig(), copyCall{0x40000, 0x10000, 8, 0, 0, 100}},
	}
	for _, prefetch := range []bool{false, true} {
		for _, tc := range named {
			cfg := tc.cfg
			cfg.Prefetch = prefetch
			checkTouchCopy(t, fmt.Sprintf("%s, prefetch=%v", tc.name, prefetch), cfg, []copyCall{tc.c, tc.c}, rand.New(rand.NewSource(1)))
		}
	}

	// Random geometries and calls over a few pages, so lines, sets and
	// pages collide, ranges overlap and the prefetcher fires.
	rng := rand.New(rand.NewSource(32))
	for trial := 0; trial < 400; trial++ {
		ways := []int{1, 2, 8}[rng.Intn(3)]
		cfg := Config{
			TLBEntries: []int{1, 2, 256}[rng.Intn(3)],
			L1Size:     ways * (1 + rng.Intn(32)) * LineSize, L1Ways: ways,
			L2Size: 4 * 64 * LineSize, L2Ways: 4,
			L1Latency: 2, L2Latency: 18, MemLatency: 200, TLBMissCost: 60,
			Prefetch: rng.Intn(2) == 0,
		}
		calls := make([]copyCall, 1+rng.Intn(4))
		for k := range calls {
			size := 1 << rng.Intn(4)
			c := copyCall{
				src: uint64(rng.Intn(6 * PageSize)), size: size,
				srcStep: uint64(size * rng.Intn(4)), dstStep: uint64(size * rng.Intn(4)),
				n: 1 + rng.Intn(400),
			}
			if rng.Intn(4) == 0 { // a byte step, not a whole element
				c.srcStep = uint64(rng.Intn(3 * LineSize))
			}
			switch rng.Intn(3) {
			case 0:
				c.dst = c.src
			case 1:
				c.dst = c.src + uint64((rng.Intn(7)-3)*size)
			default:
				c.dst = uint64(rng.Intn(6 * PageSize))
			}
			calls[k] = c
		}
		checkTouchCopy(t, fmt.Sprintf("trial %d (%+v)", trial, cfg), cfg, calls, rng)
	}

	if h := MustHierarchy(DefaultConfig()); h.TouchCopy(0, 64, 0, 8, 8, 4) != 0 || h.TouchCopy(0, 64, 8, 8, 8, 0) != 0 || h.Accesses() != 0 {
		t.Error("empty TouchCopy must cost nothing and count nothing")
	}
}
