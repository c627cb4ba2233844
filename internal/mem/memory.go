package mem

import (
	"encoding/binary"
	"fmt"
)

// PageSize is the granularity of the sparse backing store and of TLB
// translations.
const PageSize = 4096

// Memory is a sparse byte-addressable physical memory. The zero value is
// an empty memory ready for use. Memory performs no synchronisation; the
// owner (a simulated node) serialises access.
type Memory struct {
	pages map[uint64]*[PageSize]byte
}

// NewMemory returns an empty memory.
func NewMemory() *Memory {
	return &Memory{pages: make(map[uint64]*[PageSize]byte)}
}

func (m *Memory) page(addr uint64, create bool) *[PageSize]byte {
	if m.pages == nil {
		if !create {
			return nil
		}
		m.pages = make(map[uint64]*[PageSize]byte)
	}
	pn := addr / PageSize
	p := m.pages[pn]
	if p == nil && create {
		p = new([PageSize]byte)
		m.pages[pn] = p
	}
	return p
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

// ReadUint reads a size-byte little-endian unsigned integer at addr.
// size must be 1, 2, 4, or 8.
func (m *Memory) ReadUint(addr uint64, size int) uint64 {
	var buf [8]byte
	m.ReadBytes(addr, buf[:size])
	switch size {
	case 1:
		return uint64(buf[0])
	case 2:
		return uint64(binary.LittleEndian.Uint16(buf[:2]))
	case 4:
		return uint64(binary.LittleEndian.Uint32(buf[:4]))
	case 8:
		return binary.LittleEndian.Uint64(buf[:8])
	}
	panic(fmt.Sprintf("mem: bad access size %d", size))
}

// WriteUint writes a size-byte little-endian unsigned integer at addr.
// size must be 1, 2, 4, or 8.
func (m *Memory) WriteUint(addr uint64, size int, v uint64) {
	var buf [8]byte
	switch size {
	case 1:
		buf[0] = byte(v)
	case 2:
		binary.LittleEndian.PutUint16(buf[:2], uint16(v))
	case 4:
		binary.LittleEndian.PutUint32(buf[:4], uint32(v))
	case 8:
		binary.LittleEndian.PutUint64(buf[:8], v)
	default:
		panic(fmt.Sprintf("mem: bad access size %d", size))
	}
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
			panic(fmt.Sprintf("mem: bad access size %d", size))
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
		switch size {
		case 8:
			for _, v := range run {
				binary.LittleEndian.PutUint64(p[off:], v)
				off += step
			}
		case 4:
			for _, v := range run {
				binary.LittleEndian.PutUint32(p[off:], uint32(v))
				off += step
			}
		case 2:
			for _, v := range run {
				binary.LittleEndian.PutUint16(p[off:], uint16(v))
				off += step
			}
		case 1:
			for _, v := range run {
				p[off] = byte(v)
				off += step
			}
		default:
			panic(fmt.Sprintf("mem: bad access size %d", size))
		}
	}
}

// Footprint reports the number of resident (ever-written) pages.
func (m *Memory) Footprint() int { return len(m.pages) }
