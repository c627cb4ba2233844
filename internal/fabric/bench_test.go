package fabric

import "testing"

// The fabric row of the layered host-cost ledger (docs/PERF.md): what
// booking one batched element stream costs the host. The shape is the
// one the harness probes (benchmarks/perf/probes.go): a 4096-element
// stream between two PEs of an 8-PE fully-connected fabric under the
// default configuration, pipelined with the runtime's default in-flight
// depth, each stream issued where the previous one ended.

const (
	benchStreamElems = 4096
	benchInflight    = 16 // xbrtime.DefaultInflightDepth
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
