package xbrtime

import (
	"bytes"
	"testing"

	"xbgas/internal/mem"
)

// The test payload is an unaligned range spanning several staging blocks
// with a ragged tail, so the bounded staging loop's block boundaries
// and last partial block are all exercised.
const (
	chunkElems  = 3*stagingBytes/8 + 5
	chunkOffset = 24 // bytes into the allocation: not line-aligned
)

// TestChunkAccessorsMoveBytes checks that each bulk accessor lands the
// source range byte for byte and nothing beyond it, and that the local
// copy touches the hierarchy once per line of each range — the bounded
// staging block changes how the host moves the bytes, not what the
// model is charged.
func TestChunkAccessorsMoveBytes(t *testing.T) {
	const size = chunkElems*8 + 2*mem.LineSize
	rt := MustNew(Config{NumPEs: 2, Deterministic: true})
	defer rt.Close()
	err := rt.Run(func(pe *PE) error {
		src, err := pe.Malloc(size)
		if err != nil {
			return err
		}
		dst, err := pe.Malloc(size)
		if err != nil {
			return err
		}
		want := make([]byte, size)
		for i := range want {
			want[i] = byte(i*7 + pe.MyPE())
		}
		pe.PokeBytes(src, want)
		peer := 1 - pe.MyPE()
		peerWant := make([]byte, size)
		for i := range peerWant {
			peerWant[i] = byte(i*7 + peer)
		}

		moves := []struct {
			name string
			from []byte // expected content of the moved range
			run  func(d, s uint64) error
		}{
			{"CopyChunk", want, func(d, s uint64) error {
				h := pe.node.Hier
				before := h.Accesses()
				pe.CopyChunk(TypeULong, d, s, chunkElems)
				_, ls := ChunkLines(s, chunkElems*8)
				_, ld := ChunkLines(d, chunkElems*8)
				if got := h.Accesses() - before; got != uint64(ls+ld) {
					t.Errorf("CopyChunk made %d hierarchy accesses, want %d (one per line)", got, ls+ld)
				}
				return nil
			}},
			{"GetChunk", peerWant, func(d, s uint64) error {
				return pe.GetChunk(TypeULong, d, s, chunkElems, peer)
			}},
			{"GetChunkNB", peerWant, func(d, s uint64) error {
				h, err := pe.GetChunkNB(TypeULong, d, s, chunkElems, peer)
				if err != nil {
					return err
				}
				if !h.Pending() || h.completeAt <= pe.Now() {
					t.Errorf("GetChunkNB returned at %d with completion %d: not overlapped", pe.Now(), h.completeAt)
				}
				pe.Wait(h)
				return nil
			}},
		}
		got := make([]byte, size)
		for _, m := range moves {
			zero := make([]byte, size)
			pe.PokeBytes(dst, zero)
			if err := pe.Barrier(); err != nil {
				return err
			}
			if err := m.run(dst+chunkOffset, src+chunkOffset); err != nil {
				return err
			}
			pe.PeekBytes(dst, got)
			lo, hi := chunkOffset, chunkOffset+chunkElems*8
			if !bytes.Equal(got[lo:hi], m.from[lo:hi]) {
				t.Errorf("%s on PE %d: moved range differs from the source", m.name, pe.MyPE())
			}
			if !bytes.Equal(got[:lo], zero[:lo]) || !bytes.Equal(got[hi:], zero[hi:]) {
				t.Errorf("%s on PE %d: wrote outside the range", m.name, pe.MyPE())
			}
			if err := pe.Barrier(); err != nil {
				return err
			}
		}

		// PutChunk writes the peer's dst; each PE then checks its own.
		pe.PokeBytes(dst, make([]byte, size))
		if err := pe.Barrier(); err != nil {
			return err
		}
		if err := pe.PutChunk(TypeULong, dst+chunkOffset, src+chunkOffset, chunkElems, peer); err != nil {
			return err
		}
		if err := pe.Barrier(); err != nil {
			return err
		}
		pe.PeekBytes(dst, got)
		lo, hi := chunkOffset, chunkOffset+chunkElems*8
		if !bytes.Equal(got[lo:hi], peerWant[lo:hi]) {
			t.Errorf("PutChunk into PE %d: moved range differs from the source", pe.MyPE())
		}
		if cap(pe.byteBuf) > stagingBytes {
			t.Errorf("staging block grew to %d bytes, bound is %d", cap(pe.byteBuf), stagingBytes)
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}
