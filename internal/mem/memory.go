package mem

import (
	"encoding/binary"
	"fmt"
)

// PageSize is the granularity of the sparse backing store and of TLB
// translations.
const PageSize = 4096

// recentPages is the size of Memory's direct-mapped recent-page table.
const recentPages = 64

// Memory is a sparse byte-addressable physical memory. The zero value is
// an empty memory ready for use. Memory performs no synchronisation, and
// reads too rewrite its recent-page table, so the owner (a simulated
// node, under its memory lock) serialises every access.
type Memory struct {
	pages map[uint64]*[PageSize]byte
	// recent holds resident pages in front of the map: page pn, once
	// looked up, sits at recent[pn%recentPages] tagged pn+1.
	recent [recentPages]struct {
		tag uint64
		p   *[PageSize]byte
	}
}

// NewMemory returns an empty memory.
func NewMemory() *Memory {
	return &Memory{pages: make(map[uint64]*[PageSize]byte)}
}

func (m *Memory) page(addr uint64, create bool) *[PageSize]byte {
	pn := addr / PageSize
	r := &m.recent[pn%recentPages]
	if r.tag != pn+1 {
		p := m.pages[pn]
		if p == nil {
			if !create {
				return nil // an unwritten page stays out of the table and the map
			}
			if m.pages == nil {
				m.pages = make(map[uint64]*[PageSize]byte)
			}
			p = new([PageSize]byte)
			m.pages[pn] = p
		}
		r.tag, r.p = pn+1, p
	}
	return r.p
}

// ReadBytes copies len(dst) bytes starting at addr into dst. Unwritten
// memory reads as zero.
func (m *Memory) ReadBytes(addr uint64, dst []byte) {
	for len(dst) > 0 {
		off := addr % PageSize
		chunk := PageSize - off
		if uint64(len(dst)) < chunk {
			chunk = uint64(len(dst))
		}
		if p := m.page(addr, false); p != nil {
			copy(dst[:chunk], p[off:off+chunk])
		} else {
			clear(dst[:chunk])
		}
		dst = dst[chunk:]
		addr += chunk
	}
}

// WriteBytes copies src into memory starting at addr.
func (m *Memory) WriteBytes(addr uint64, src []byte) {
	for len(src) > 0 {
		off := addr % PageSize
		chunk := PageSize - off
		if uint64(len(src)) < chunk {
			chunk = uint64(len(src))
		}
		p := m.page(addr, true)
		copy(p[off:off+chunk], src[:chunk])
		src = src[chunk:]
		addr += chunk
	}
}

// Copy copies n bytes from src to dst, a run within one source and one
// destination page at a time. The ranges must not overlap. Unwritten
// source memory copies as zeros, and the destination pages become
// resident, as a ReadBytes into a buffer and a WriteBytes from it would.
func (m *Memory) Copy(dst, src, n uint64) {
	for n > 0 {
		do, so := dst%PageSize, src%PageSize
		k := min(n, PageSize-do, PageSize-so)
		d := m.page(dst, true)
		if s := m.page(src, false); s != nil {
			copy(d[do:do+k], s[so:so+k])
		} else {
			clear(d[do : do+k])
		}
		dst, src, n = dst+k, src+k, n-k
	}
}

// validSize reports whether size is 1, 2, 4, or 8.
func validSize(size int) bool { return size > 0 && size <= 8 && size&(size-1) == 0 }

func badSize(size int) { panic(fmt.Sprintf("mem: bad access size %d", size)) }

// ReadUint reads a size-byte little-endian unsigned integer at addr.
// size must be 1, 2, 4, or 8.
func (m *Memory) ReadUint(addr uint64, size int) uint64 {
	if !validSize(size) {
		badSize(size)
	}
	if off := addr % PageSize; off <= PageSize-8 { // decode in place
		if p := m.page(addr, false); p != nil {
			return binary.LittleEndian.Uint64(p[off:]) & (1<<(8*size) - 1)
		}
		return 0
	}
	var buf [8]byte
	m.ReadBytes(addr, buf[:size])
	return binary.LittleEndian.Uint64(buf[:])
}

// WriteUint writes a size-byte little-endian unsigned integer at addr.
// size must be 1, 2, 4, or 8.
func (m *Memory) WriteUint(addr uint64, size int, v uint64) {
	if !validSize(size) {
		badSize(size)
	}
	if off := addr % PageSize; off <= PageSize-8 { // encode in place
		p, mask := m.page(addr, true), uint64(1)<<(8*size)-1
		binary.LittleEndian.PutUint64(p[off:], binary.LittleEndian.Uint64(p[off:])&^mask|v&mask)
		return
	}
	var buf [8]byte
	binary.LittleEndian.PutUint64(buf[:], v)
	m.WriteBytes(addr, buf[:size])
}

// Uint64 reads an 8-byte value at addr.
func (m *Memory) Uint64(addr uint64) uint64 { return m.ReadUint(addr, 8) }

// PutUint64 writes an 8-byte value at addr.
func (m *Memory) PutUint64(addr uint64, v uint64) { m.WriteUint(addr, 8, v) }

// Uint32 reads a 4-byte value at addr.
func (m *Memory) Uint32(addr uint64) uint32 { return uint32(m.ReadUint(addr, 4)) }

// PutUint32 writes a 4-byte value at addr.
func (m *Memory) PutUint32(addr uint64, v uint32) { m.WriteUint(addr, 4, uint64(v)) }

// pageRun returns how many of the rest elements at a, a+step, ... lie
// wholly on a's page (0 when the first one straddles the page end).
func pageRun(a uint64, size int, step uint64, rest int) int {
	off := a % PageSize
	if PageSize-off < uint64(size) {
		return 0
	}
	if step == 0 {
		return rest
	}
	if k := (PageSize-off-uint64(size))/step + 1; k < uint64(rest) {
		return int(k)
	}
	return rest
}

// ReadElems reads n size-byte little-endian elements at addr,
// addr+step, ..., into dst[:n]. It is the strided batch form of
// ReadUint, decoded one on-page run at a time: one page lookup and one
// dispatch on size per run, not per element. size must be 1, 2, 4, or
// 8.
func (m *Memory) ReadElems(addr uint64, size int, step uint64, n int, dst []uint64) {
	for i := 0; i < n; {
		a := addr + uint64(i)*step
		k := pageRun(a, size, step, n-i)
		if k == 0 {
			dst[i] = m.ReadUint(a, size)
			i++
			continue
		}
		run := dst[i : i+k]
		i += k
		p := m.page(a, false)
		if p == nil {
			clear(run)
			continue
		}
		off := a % PageSize
		switch size {
		case 8:
			for j := range run {
				run[j] = binary.LittleEndian.Uint64(p[off:])
				off += step
			}
		case 4:
			for j := range run {
				run[j] = uint64(binary.LittleEndian.Uint32(p[off:]))
				off += step
			}
		case 2:
			for j := range run {
				run[j] = uint64(binary.LittleEndian.Uint16(p[off:]))
				off += step
			}
		case 1:
			for j := range run {
				run[j] = uint64(p[off])
				off += step
			}
		default:
			badSize(size)
		}
	}
}

// WriteElems writes n size-byte little-endian elements from src[:n] to
// addr, addr+step, ... — the strided batch form of WriteUint, encoded
// one on-page run at a time like ReadElems. size must be 1, 2, 4, or 8.
func (m *Memory) WriteElems(addr uint64, size int, step uint64, n int, src []uint64) {
	for i := 0; i < n; {
		a := addr + uint64(i)*step
		k := pageRun(a, size, step, n-i)
		if k == 0 {
			m.WriteUint(a, size, src[i])
			i++
			continue
		}
		run := src[i : i+k]
		i += k
		p := m.page(a, true)
		off := a % PageSize
		// Closed slices p[off:off+size]: with p[off:] the 8-byte loop spills.
		switch size {
		case 8:
			for _, v := range run {
				binary.LittleEndian.PutUint64(p[off:off+8], v)
				off += step
			}
		case 4:
			for _, v := range run {
				binary.LittleEndian.PutUint32(p[off:off+4], uint32(v))
				off += step
			}
		case 2:
			for _, v := range run {
				binary.LittleEndian.PutUint16(p[off:off+2], uint16(v))
				off += step
			}
		case 1:
			for _, v := range run {
				p[off] = byte(v)
				off += step
			}
		default:
			badSize(size)
		}
	}
}

// Footprint reports the number of resident (ever-written) pages.
func (m *Memory) Footprint() int { return len(m.pages) }
