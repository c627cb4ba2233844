package mem

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"math/rand"
	"testing"
)

// refMemory is the map-only Memory as it stood before the recent-page
// table and the in-place ReadUint/WriteUint, kept verbatim as the
// differential oracle: every access looks its page up in the map and
// every scalar goes through ReadBytes/WriteBytes.
type refMemory struct {
	pages map[uint64]*[PageSize]byte
}

func newRefMemory() *refMemory {
	return &refMemory{pages: make(map[uint64]*[PageSize]byte)}
}

func (m *refMemory) page(addr uint64, create bool) *[PageSize]byte {
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

func (m *refMemory) ReadBytes(addr uint64, dst []byte) {
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

func (m *refMemory) WriteBytes(addr uint64, src []byte) {
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

func (m *refMemory) ReadUint(addr uint64, size int) uint64 {
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

func (m *refMemory) WriteUint(addr uint64, size int, v uint64) {
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

func (m *refMemory) ReadElems(addr uint64, size int, step uint64, n int, dst []uint64) {
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

func (m *refMemory) WriteElems(addr uint64, size int, step uint64, n int, src []uint64) {
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

func (m *refMemory) Footprint() int { return len(m.pages) }

// TestMemoryMatchesReference drives Memory and refMemory with the same
// random mix of scalar reads and writes (every size; aligned, unaligned
// and straddling a page end), strided element batches and byte copies,
// over 160 pages whose numbers fall on four recent-page table slots,
// and demands equal values and an equal footprint after every step —
// including that reading a page nobody wrote never makes it resident.
func TestMemoryMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(25))
	var pages []uint64
	for k := uint64(0); k < 40; k++ {
		for j := uint64(0); j < 4; j++ {
			pages = append(pages, 0x4000+k*recentPages+j)
		}
	}
	sizes := []int{1, 2, 4, 8}
	addr := func(size int) uint64 {
		a := pages[rng.Intn(len(pages))] * PageSize
		switch rng.Intn(3) {
		case 0: // aligned
			return a + uint64(rng.Intn(PageSize/size)*size)
		case 1: // within 8 bytes of the page end: straddles for most sizes
			return a + PageSize - 1 - uint64(rng.Intn(8))
		}
		return a + uint64(rng.Intn(PageSize))
	}
	m, ref := NewMemory(), newRefMemory()
	const steps = 30_000
	for i := 0; i < steps; i++ {
		size := sizes[rng.Intn(len(sizes))]
		a := addr(size)
		resident := ref.Footprint()
		// Packed, gapped, and one table period apart: the last lands
		// every element on the same recent-page slot.
		strides := [3]uint64{uint64(size), uint64(size) + 3, recentPages * PageSize}
		var op string
		switch rng.Intn(7) {
		case 0:
			op = "WriteUint"
			v := rng.Uint64()
			m.WriteUint(a, size, v)
			ref.WriteUint(a, size, v)
		case 1:
			op = "WriteElems"
			n, step := 1+rng.Intn(48), strides[rng.Intn(3)]
			src := make([]uint64, n)
			for j := range src {
				src[j] = rng.Uint64()
			}
			m.WriteElems(a, size, step, n, src)
			ref.WriteElems(a, size, step, n, src)
		case 2:
			op = "WriteBytes"
			src := make([]byte, rng.Intn(2*PageSize+16))
			rng.Read(src)
			m.WriteBytes(a, src)
			ref.WriteBytes(a, src)
		case 3:
			op = "ReadElems"
			n, step := 1+rng.Intn(48), strides[rng.Intn(3)]
			got, want := make([]uint64, n), make([]uint64, n)
			m.ReadElems(a, size, step, n, got)
			ref.ReadElems(a, size, step, n, want)
			for j := range got {
				if got[j] != want[j] {
					t.Fatalf("step %d: ReadElems(%#x, %d, %d)[%d] = %#x, reference %#x", i, a, size, step, j, got[j], want[j])
				}
			}
		case 4:
			op = "ReadBytes"
			n := rng.Intn(2*PageSize + 16)
			got, want := make([]byte, n), make([]byte, n)
			m.ReadBytes(a, got)
			ref.ReadBytes(a, want)
			if !bytes.Equal(got, want) {
				t.Fatalf("step %d: ReadBytes(%#x, %d) differs from the reference", i, a, n)
			}
		case 5:
			op = "Copy"
			n := uint64(rng.Intn(2*PageSize + 16))
			src := addr(1)
			if a+n > src && src+n > a {
				break // overlapping ranges are outside Copy's contract
			}
			m.Copy(a, src, n)
			buf := make([]byte, n)
			ref.ReadBytes(src, buf)
			ref.WriteBytes(a, buf)
		default:
			op = "ReadUint"
			if got, want := m.ReadUint(a, size), ref.ReadUint(a, size); got != want {
				t.Fatalf("step %d: ReadUint(%#x, %d) = %#x, reference %#x", i, a, size, got, want)
			}
		}
		if m.Footprint() != ref.Footprint() {
			t.Fatalf("step %d: %s(%#x) left %d pages resident, reference %d", i, op, a, m.Footprint(), ref.Footprint())
		}
		if op[:4] == "Read" && m.Footprint() != resident {
			t.Fatalf("step %d: %s(%#x) mapped %d pages", i, op, a, m.Footprint()-resident)
		}
	}
	var got, want [PageSize]byte
	for pn := range ref.pages {
		m.ReadBytes(pn*PageSize, got[:])
		ref.ReadBytes(pn*PageSize, want[:])
		if got != want {
			t.Fatalf("page %#x differs from the reference at the end of the trace", pn)
		}
	}
	if m.Footprint() < len(pages) {
		t.Errorf("trace made %d pages resident, want at least the %d it aims at", m.Footprint(), len(pages))
	}
}

// TestMemoryBadAccessSize: ReadUint and WriteUint reject every size but
// 1, 2, 4 and 8 with the documented panic, before touching memory.
func TestMemoryBadAccessSize(t *testing.T) {
	for _, size := range []int{-1, 0, 3, 5, 6, 7, 9, 16} {
		for _, op := range []string{"ReadUint", "WriteUint"} {
			m := NewMemory()
			func() {
				defer func() {
					want := fmt.Sprintf("mem: bad access size %d", size)
					if r := recover(); r != want {
						t.Errorf("%s size %d: panic %v, want %q", op, size, r, want)
					}
				}()
				if op == "ReadUint" {
					m.ReadUint(PageSize-2, size)
				} else {
					m.WriteUint(PageSize-2, size, ^uint64(0))
				}
			}()
			if m.Footprint() != 0 {
				t.Errorf("%s size %d: %d pages mapped before the panic", op, size, m.Footprint())
			}
		}
	}
}
