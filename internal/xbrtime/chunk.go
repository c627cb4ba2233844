package xbrtime

// Chunk transfers: the line granule of the one put/get path
// (putget.go). The element granule models the paper's xBGAS stubs — a
// scalar load and a remote store per element, one packet each behind an
// 8-byte header — and the paper's unsegmented trees keep it. A
// core.Plan.Chunked plan moves every stride-1 range on the line granule,
// as a chunked protocol engine would: the same transfer with a 64-byte
// cache line as its element, priced once per line the range spans and
// booked as one line behind one header per packet, so the host prices
// one cache line, not eight element loads. The granule changes what a
// transfer is charged, never what it moves; strided ranges stay on the
// element granule.

// PutChunk is the blocking form of PutChunkNB: it streams nelems
// contiguous elements to PE target on the line granule and waits for
// delivery.
func (pe *PE) PutChunk(dt DType, dest, src uint64, nelems, target int) error {
	h, err := pe.PutChunkNB(dt, dest, src, nelems, target)
	if err != nil {
		return err
	}
	pe.Wait(h)
	return nil
}

// PutChunkNB streams nelems contiguous elements of type dt from local
// address src to dest on PE target on the line granule and returns
// without waiting for delivery: PutNB(dt, dest, src, nelems, 1, target)
// charged per cache line.
func (pe *PE) PutChunkNB(dt DType, dest, src uint64, nelems, target int) (Handle, error) {
	return pe.put(dt, dest, src, nelems, 1, target, true, true)
}

// GetChunk is the blocking form of GetChunkNB: it pulls nelems
// contiguous elements from PE target on the line granule and waits
// until the data has landed.
func (pe *PE) GetChunk(dt DType, dest, src uint64, nelems, target int) error {
	h, err := pe.GetChunkNB(dt, dest, src, nelems, target)
	if err != nil {
		return err
	}
	pe.Wait(h)
	return nil
}

// GetChunkNB pulls nelems contiguous elements of type dt from address
// src on PE target into local dest on the line granule and returns
// without waiting for the data to land: GetNB(dt, dest, src, nelems, 1,
// target) charged per cache line.
func (pe *PE) GetChunkNB(dt DType, dest, src uint64, nelems, target int) (Handle, error) {
	return pe.get(dt, dest, src, nelems, 1, target, true, true)
}
