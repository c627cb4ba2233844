package fabric

import "testing"

// The fabric row of the layered host-cost ledger (docs/PERF.md): what
// booking one batched element stream costs the host. The shape is the
// one the harness probes (benchmarks/perf/probes.go): a 4096-element
// stream between two PEs of an 8-PE fully-connected fabric under the
// default configuration, pipelined with the runtime's default in-flight
// depth, each stream issued where the previous one ended. The first two
// rows book zero-cost streams into idle windows; the Lines and
// Contended rows book the shapes the runtime's bulk path sends: a
// line-granule put priced by a memory sweep, and a get whose NIC and
// switch windows are already loaded by another stream.

const (
	benchStreamElems = 4096
	benchInflight    = 16 // xbrtime.DefaultInflightDepth
	benchLineBytes   = 72 // a 64-byte line behind an 8-byte header
)

func benchFabric(b *testing.B) (*Fabric, Config) {
	cfg := DefaultConfig()
	f, err := New(FullyConnected{N: 8}, cfg)
	if err != nil {
		b.Fatal(err)
	}
	return f, cfg
}

// BenchmarkSendStream books a put's data stream: 4096 16-byte messages
// from PE 0 to PE 1. One op is one stream.
func BenchmarkSendStream(b *testing.B) {
	f, cfg := benchFabric(b)
	costs := make([]uint64, benchStreamElems)
	var now, cycles uint64
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_, last, err := f.SendStream(Stream{
			Src: 0, Dst: 1, ElemBytes: 16, Start: now, PreCost: costs,
			Gap: cfg.IssueGap, FlowWindow: benchInflight * cfg.IssueGap, Unrolled: true,
		})
		if err != nil {
			b.Fatal(err)
		}
		cycles += last - now
		now = last
	}
	b.StopTimer()
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N)/benchStreamElems, "ns/msg")
	b.ReportMetric(float64(cycles)/float64(b.N), "simCycles/op")
}

// BenchmarkFetchStream books a get's round trips: 4096 8-byte requests
// from PE 0 to PE 1, each answered with 16 bytes, two messages per
// element. One op is one stream.
func BenchmarkFetchStream(b *testing.B) {
	f, cfg := benchFabric(b)
	costs := make([]uint64, benchStreamElems)
	var now, cycles uint64
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_, last, err := f.FetchStream(Fetch{
			Src: 0, Dst: 1, ReqBytes: 8, RespBytes: 16, Start: now, PostCost: costs,
			Gap: cfg.IssueGap, FlowWindow: benchInflight * cfg.IssueGap, Unrolled: true,
		})
		if err != nil {
			b.Fatal(err)
		}
		cycles += last - now
		now = last
	}
	b.StopTimer()
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N)/(2*benchStreamElems), "ns/msg")
	b.ReportMetric(float64(cycles)/float64(b.N), "simCycles/op")
}

// sweepCosts is the per-line PreCost of a 4096-line sweep as the memory
// hierarchy prices it (mem.DefaultConfig, plus one load instruction):
// an L2 hit per line (21), a page walk on every 64th line (+60), and a
// 512-line run that misses to DRAM (221).
func sweepCosts() []uint64 {
	costs := make([]uint64, benchStreamElems)
	for i := range costs {
		costs[i] = 21
		if i >= 2048 && i < 2560 {
			costs[i] = 221
		}
		if i%64 == 0 {
			costs[i] += 60
		}
	}
	return costs
}

// BenchmarkSendStreamLines books a line-granule put: 4096 72-byte
// packets from PE 0 to PE 1 whose PreCost is a memory sweep's
// (sweepCosts), so the issue clock does not advance by a constant.
// One op is one stream.
func BenchmarkSendStreamLines(b *testing.B) {
	f, cfg := benchFabric(b)
	costs := sweepCosts()
	var now, cycles uint64
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_, last, err := f.SendStream(Stream{
			Src: 0, Dst: 1, ElemBytes: benchLineBytes, Start: now, PreCost: costs,
			Gap: cfg.IssueGap, FlowWindow: benchInflight * cfg.IssueGap, Unrolled: true,
		})
		if err != nil {
			b.Fatal(err)
		}
		cycles += last - now
		now = last
	}
	b.StopTimer()
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N)/benchStreamElems, "ns/msg")
	b.ReportMetric(float64(cycles)/float64(b.N), "simCycles/op")
}

// BenchmarkFetchStreamContended books a line-granule get from PE 0 to
// PE 1 into windows another stream has loaded first: a line stream
// from PE 2 into PE 0 (untimed) books PE 0's NIC, which receives the
// get's data, and the shared switch, so the get's bookings start
// queued and its flow throttle engages. One op is the get.
func BenchmarkFetchStreamContended(b *testing.B) {
	f, cfg := benchFabric(b)
	costs := make([]uint64, benchStreamElems)
	var now, cycles uint64
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		_, loaded, err := f.SendStream(Stream{
			Src: 2, Dst: 0, ElemBytes: benchLineBytes, Start: now, PreCost: costs,
			Gap: cfg.IssueGap, FlowWindow: benchInflight * cfg.IssueGap, Unrolled: true,
		})
		if err != nil {
			b.Fatal(err)
		}
		b.StartTimer()
		_, last, err := f.FetchStream(Fetch{
			Src: 0, Dst: 1, ReqBytes: 8, RespBytes: benchLineBytes, Start: now, ReqCost: 1,
			PostCost: costs, Gap: cfg.IssueGap, FlowWindow: benchInflight * cfg.IssueGap, Unrolled: true,
		})
		if err != nil {
			b.Fatal(err)
		}
		cycles += last - now
		now = max(last, loaded)
	}
	b.StopTimer()
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N)/(2*benchStreamElems), "ns/msg")
	b.ReportMetric(float64(cycles)/float64(b.N), "simCycles/op")
}
