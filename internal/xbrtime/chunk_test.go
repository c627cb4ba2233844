package xbrtime

import (
	"bytes"
	"fmt"
	"hash/fnv"
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

// TestChunkTransfersPinned pins what the four chunk transfers cost and
// move on a lockstep runtime: the sum of the PEs' clocks after the call,
// the sum of the non-blocking handles' completion times, the fabric's
// messages, bytes and contention, the hierarchies' accesses and cycles,
// and a hash of every PE's destination block. Each case is a fresh
// runtime in which every PE moves one unaligned range with a ragged
// tail (the widest crosses a staging block) to or from a peer — PE 0
// for every other PE, PE 1 for PE 0, so streams meet at one NIC — or to
// or from itself. Each PE lands its range in its own slot of the
// destination block, so the bytes do not depend on the order of
// arrival.
func TestChunkTransfersPinned(t *testing.T) {
	const nelems = 4096 + 5
	type chunkOp func(pe *PE, dt DType, dest, src uint64, target int) (Handle, error)
	ops := []struct {
		name string
		run  chunkOp
	}{
		{"PutChunk", func(pe *PE, dt DType, dest, src uint64, target int) (Handle, error) {
			return Handle{}, pe.PutChunk(dt, dest, src, nelems, target)
		}},
		{"PutChunkNB", func(pe *PE, dt DType, dest, src uint64, target int) (Handle, error) {
			return pe.PutChunkNB(dt, dest, src, nelems, target)
		}},
		{"GetChunk", func(pe *PE, dt DType, dest, src uint64, target int) (Handle, error) {
			return Handle{}, pe.GetChunk(dt, dest, src, nelems, target)
		}},
		{"GetChunkNB", func(pe *PE, dt DType, dest, src uint64, target int) (Handle, error) {
			return pe.GetChunkNB(dt, dest, src, nelems, target)
		}},
	}
	want := map[string]string{
		"n2/w1/PutChunk":        "clock 33488 done 0 msgs 134 bytes 9392 cont 45 acc 130 cyc 28840 mem 3b03f25fb16f748d",
		"n2/w1/PutChunkNB":      "clock 32764 done 33488 msgs 134 bytes 9392 cont 45 acc 130 cyc 28840 mem 3b03f25fb16f748d",
		"n2/w1/GetChunk":        "clock 14256 done 0 msgs 264 bytes 10432 cont 40384 acc 130 cyc 28840 mem 3b03f25fb16f748d",
		"n2/w1/GetChunkNB":      "clock 11816 done 14256 msgs 264 bytes 10432 cont 40384 acc 130 cyc 28840 mem 3b03f25fb16f748d",
		"n2/w1/PutChunk/self":   "clock 107466 done 0 msgs 4 bytes 32 cont 0 acc 16404 cyc 89908 mem 4ef3edbc34759c75",
		"n2/w1/PutChunkNB/self": "clock 107466 done 107466 msgs 4 bytes 32 cont 0 acc 16404 cyc 89908 mem 4ef3edbc34759c75",
		"n2/w1/GetChunk/self":   "clock 107466 done 0 msgs 4 bytes 32 cont 0 acc 16404 cyc 89908 mem 4ef3edbc34759c75",
		"n2/w1/GetChunkNB/self": "clock 107466 done 107466 msgs 4 bytes 32 cont 0 acc 16404 cyc 89908 mem 4ef3edbc34759c75",
		"n2/w4/PutChunk":        "clock 126392 done 0 msgs 518 bytes 37040 cont 589 acc 514 cyc 113680 mem 1245b562f5a179fd",
		"n2/w4/PutChunkNB":      "clock 125668 done 126392 msgs 518 bytes 37040 cont 589 acc 514 cyc 113680 mem 1245b562f5a179fd",
		"n2/w4/GetChunk":        "clock 51408 done 0 msgs 1034 bytes 41232 cont 185729 acc 515 cyc 113900 mem 1245b562f5a179fd",
		"n2/w4/GetChunkNB":      "clock 48928 done 51408 msgs 1034 bytes 41232 cont 185729 acc 515 cyc 113900 mem 1245b562f5a179fd",
		"n2/w4/PutChunk/self":   "clock 275828 done 0 msgs 4 bytes 32 cont 0 acc 16404 cyc 258270 mem 0b933a35a5757335",
		"n2/w4/PutChunkNB/self": "clock 275828 done 275828 msgs 4 bytes 32 cont 0 acc 16404 cyc 258270 mem 0b933a35a5757335",
		"n2/w4/GetChunk/self":   "clock 275828 done 0 msgs 4 bytes 32 cont 0 acc 16404 cyc 258270 mem 0b933a35a5757335",
		"n2/w4/GetChunkNB/self": "clock 275828 done 275828 msgs 4 bytes 32 cont 0 acc 16404 cyc 258270 mem 0b933a35a5757335",
		"n2/w8/PutChunk":        "clock 250264 done 0 msgs 1030 bytes 73904 cont 1707 acc 1026 cyc 226800 mem 294e17ce4a84beb0",
		"n2/w8/PutChunkNB":      "clock 249540 done 250264 msgs 1030 bytes 73904 cont 1707 acc 1026 cyc 226800 mem 294e17ce4a84beb0",
		"n2/w8/GetChunk":        "clock 101828 done 0 msgs 2058 bytes 82192 cont 379092 acc 1027 cyc 227020 mem 294e17ce4a84beb0",
		"n2/w8/GetChunkNB":      "clock 99348 done 101828 msgs 2058 bytes 82192 cont 379092 acc 1027 cyc 227020 mem 294e17ce4a84beb0",
		"n2/w8/PutChunk/self":   "clock 500020 done 0 msgs 4 bytes 32 cont 0 acc 16404 cyc 482462 mem 20bdd9982d4ba6b2",
		"n2/w8/PutChunkNB/self": "clock 500020 done 500020 msgs 4 bytes 32 cont 0 acc 16404 cyc 482462 mem 20bdd9982d4ba6b2",
		"n2/w8/GetChunk/self":   "clock 500020 done 0 msgs 4 bytes 32 cont 0 acc 16404 cyc 482462 mem 20bdd9982d4ba6b2",
		"n2/w8/GetChunkNB/self": "clock 500020 done 500020 msgs 4 bytes 32 cont 0 acc 16404 cyc 482462 mem 20bdd9982d4ba6b2",
		"n8/w1/PutChunk":        "clock 210473 done 0 msgs 548 bytes 37664 cont 115780 acc 520 cyc 115360 mem f87997b25320be4e",
		"n8/w1/PutChunkNB":      "clock 207577 done 210473 msgs 548 bytes 37664 cont 115780 acc 520 cyc 115360 mem f87997b25320be4e",
		"n8/w1/GetChunk":        "clock 106680 done 0 msgs 1068 bytes 41824 cont 239085 acc 520 cyc 115360 mem 2f60084269bbd05b",
		"n8/w1/GetChunkNB":      "clock 96760 done 106680 msgs 1068 bytes 41824 cont 239085 acc 520 cyc 115360 mem 2f60084269bbd05b",
		"n8/w4/PutChunk":        "clock 813125 done 0 msgs 2084 bytes 148256 cont 455136 acc 2056 cyc 454720 mem 6cdd2d53515d781f",
		"n8/w4/PutChunkNB":      "clock 810229 done 813125 msgs 2084 bytes 148256 cont 455136 acc 2056 cyc 454720 mem 6cdd2d53515d781f",
		"n8/w4/GetChunk":        "clock 405828 done 0 msgs 4154 bytes 165264 cont 993466 acc 2063 cyc 456260 mem dbb223ee08a330e3",
		"n8/w4/GetChunkNB":      "clock 395908 done 405828 msgs 4154 bytes 165264 cont 993466 acc 2063 cyc 456260 mem dbb223ee08a330e3",
		"n8/w8/PutChunk":        "clock 1617318 done 0 msgs 4132 bytes 295712 cont 911467 acc 4104 cyc 907200 mem c1cfe053851ec94b",
		"n8/w8/PutChunkNB":      "clock 1614422 done 1617318 msgs 4132 bytes 295712 cont 911467 acc 4104 cyc 907200 mem c1cfe053851ec94b",
		"n8/w8/GetChunk":        "clock 807712 done 0 msgs 8238 bytes 328624 cont 1994574 acc 4105 cyc 907420 mem 2b63a6d42b60df90",
		"n8/w8/GetChunkNB":      "clock 798116 done 807712 msgs 8238 bytes 328624 cont 1994574 acc 4105 cyc 907420 mem 2b63a6d42b60df90",
	}
	for _, n := range []int{2, 8} {
		for _, dt := range []DType{TypeUChar, TypeUInt, TypeULong} {
			for _, self := range []bool{false, true} {
				if self && n != 2 {
					continue // the self path does not depend on the PE count
				}
				for _, op := range ops {
					name := fmt.Sprintf("n%d/w%d/%s", n, dt.Width, op.name)
					if self {
						name += "/self"
					}
					put := op.name[:3] == "Put"
					got := chunkPinRun(t, n, dt, nelems, put, self, op.run)
					if got != want[name] {
						t.Errorf("%s: %s\n\twant %s", name, got, want[name])
					}
				}
			}
		}
	}
}

// chunkPinRun runs one case of TestChunkTransfersPinned and returns its
// fingerprint.
func chunkPinRun(t *testing.T, n int, dt DType, nelems int, put, self bool, run func(*PE, DType, uint64, uint64, int) (Handle, error)) string {
	t.Helper()
	slot := uint64(nelems*dt.Width) + 2*mem.LineSize
	rt := MustNew(Config{NumPEs: n, Deterministic: true})
	defer rt.Close()
	clocks, done := make([]uint64, n), make([]uint64, n)
	digests := make([]uint64, n)
	err := rt.Run(func(pe *PE) error {
		me := pe.MyPE()
		src, err := pe.Malloc(slot)
		if err != nil {
			return err
		}
		dst, err := pe.Malloc(uint64(n) * slot)
		if err != nil {
			return err
		}
		fill := make([]byte, slot)
		for i := range fill {
			fill[i] = byte(i*13 + me*29 + 1)
		}
		pe.PokeBytes(src, fill)
		target := 0
		switch {
		case self:
			target = me
		case me == 0:
			target = 1
		}
		// A put lands in the target's slot for this PE; a get lands in
		// this PE's own slot for the target.
		d := dst + uint64(me)*slot + chunkOffset
		if !put {
			d = dst + uint64(target)*slot + chunkOffset
		}
		if err := pe.Barrier(); err != nil {
			return err
		}
		h, err := run(pe, dt, d, src+chunkOffset, target)
		if err != nil {
			return err
		}
		clocks[me], done[me] = pe.Now(), h.completeAt
		pe.Wait(h)
		if err := pe.Barrier(); err != nil {
			return err
		}
		block := make([]byte, uint64(n)*slot)
		pe.PeekBytes(dst, block)
		f := fnv.New64a()
		f.Write(block)
		digests[me] = f.Sum64()
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	var clock, completion, acc, cyc uint64
	sum := fnv.New64a()
	for r := 0; r < n; r++ {
		clock += clocks[r]
		completion += done[r]
		h := rt.Machine().Nodes[r].Hier
		acc += h.Accesses()
		cyc += h.Cycles()
		fmt.Fprintf(sum, "%x,", digests[r])
	}
	fab := rt.Machine().Fabric
	return fmt.Sprintf("clock %d done %d msgs %d bytes %d cont %d acc %d cyc %d mem %016x",
		clock, completion, fab.Messages(), fab.Bytes(), fab.ContentionCycles(), acc, cyc, sum.Sum64())
}

// benchChunk drives PE 0 of an 8-PE runtime directly (no Run): one op
// is one blocking chunk transfer of 4096 int64 (32 KiB, core's default
// segment) between PE 0 and PE 1 — the shape of the harness's
// putchunk32k/getchunk32k probes. It must allocate nothing.
func benchChunk(b *testing.B, transfer func(pe *PE, dest, src uint64) error) {
	const nelems = 4096
	rt := MustNew(Config{NumPEs: 8})
	defer rt.Close()
	pe := rt.PE(0)
	src, err := pe.Malloc(nelems * 8)
	if err != nil {
		b.Fatal(err)
	}
	dst, err := pe.Malloc(nelems * 8)
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.SetBytes(nelems * 8)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := transfer(pe, dst, src); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkPutChunk(b *testing.B) {
	benchChunk(b, func(pe *PE, dest, src uint64) error { return pe.PutChunk(TypeInt64, dest, src, 4096, 1) })
}

func BenchmarkGetChunk(b *testing.B) {
	benchChunk(b, func(pe *PE, dest, src uint64) error { return pe.GetChunk(TypeInt64, dest, src, 4096, 1) })
}
