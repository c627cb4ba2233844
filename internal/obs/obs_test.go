package obs_test

import (
	"bytes"
	"encoding/json"
	"testing"

	"xbgas/internal/core"
	"xbgas/internal/obs"
	"xbgas/internal/xbrtime"
)

// runWorkload drives a small deterministic SPMD program that exercises
// every span family: a broadcast (tree rounds), a reduction, explicit
// puts, and barriers. Deterministic mode makes the resulting trace a
// pure function of the program, which TestDeterministicTraceReproducible
// relies on.
func runWorkload(t *testing.T, rec *obs.Recorder) {
	t.Helper()
	rt := xbrtime.MustNew(xbrtime.Config{NumPEs: 4, Deterministic: true, Obs: rec})
	defer rt.Close()
	err := rt.Run(func(pe *xbrtime.PE) error {
		const nelems = 8
		w := uint64(xbrtime.TypeLong.Width)
		dest, err := pe.Malloc(nelems * w)
		if err != nil {
			return err
		}
		src, err := pe.PrivateAlloc(nelems * w)
		if err != nil {
			return err
		}
		for i := 0; i < nelems; i++ {
			pe.Poke(xbrtime.TypeLong, src+uint64(i)*w, uint64(int64(100*pe.MyPE()+i)))
		}
		if err := core.Broadcast(pe, xbrtime.TypeLong, dest, src, nelems, 1, 0); err != nil {
			return err
		}
		if err := pe.Barrier(); err != nil {
			return err
		}
		out, err := pe.PrivateAlloc(nelems * w)
		if err != nil {
			return err
		}
		if err := core.Reduce(pe, xbrtime.TypeLong, core.OpSum, out, dest, nelems, 1, 0); err != nil {
			return err
		}
		// One explicit put to the right neighbour on top of the
		// collectives' internal traffic.
		if err := pe.Put(xbrtime.TypeLong, dest, src, nelems, 1, (pe.MyPE()+1)%pe.NumPEs()); err != nil {
			return err
		}
		return pe.Barrier()
	})
	if err != nil {
		t.Fatal(err)
	}
}

type traceEvent struct {
	Name string         `json:"name"`
	Ph   string         `json:"ph"`
	Pid  int            `json:"pid"`
	Tid  int            `json:"tid"`
	Ts   float64        `json:"ts"`
	Dur  float64        `json:"dur"`
	Args map[string]any `json:"args"`
}

type traceFile struct {
	TraceEvents     []traceEvent `json:"traceEvents"`
	DisplayTimeUnit string       `json:"displayTimeUnit"`
}

func exportTrace(t *testing.T, rec *obs.Recorder) traceFile {
	t.Helper()
	var buf bytes.Buffer
	if err := rec.WriteTrace(&buf); err != nil {
		t.Fatal(err)
	}
	var tf traceFile
	if err := json.Unmarshal(buf.Bytes(), &tf); err != nil {
		t.Fatalf("exported trace is not valid JSON: %v", err)
	}
	return tf
}

func TestTraceExportValidAndMonotonic(t *testing.T) {
	rec := obs.NewRecorder(obs.Options{Trace: true, Metrics: true})
	runWorkload(t, rec)
	tf := exportTrace(t, rec)

	if tf.DisplayTimeUnit != "ns" {
		t.Errorf("displayTimeUnit = %q, want %q", tf.DisplayTimeUnit, "ns")
	}
	if len(tf.TraceEvents) == 0 {
		t.Fatal("trace has no events")
	}

	names := make(map[string]bool)
	last := make(map[[2]int]float64)
	for _, ev := range tf.TraceEvents {
		names[ev.Name] = true
		if ev.Ph != "X" {
			continue
		}
		if ev.Dur < 0 {
			t.Errorf("event %q on pid=%d tid=%d has negative dur %v", ev.Name, ev.Pid, ev.Tid, ev.Dur)
		}
		key := [2]int{ev.Pid, ev.Tid}
		if ev.Ts < last[key] {
			t.Errorf("track pid=%d tid=%d: ts %v after %v — not monotonic", ev.Pid, ev.Tid, ev.Ts, last[key])
		}
		last[key] = ev.Ts
	}
	for _, want := range []string{
		"process_name", "thread_name", // Perfetto metadata
		"broadcast", "broadcast.round", "reduce", "reduce.round",
		"put", "barrier",
	} {
		if !names[want] {
			t.Errorf("trace is missing %q events", want)
		}
	}
}

func TestHistogramBucketSumsMatchCounters(t *testing.T) {
	rec := obs.NewRecorder(obs.Options{Trace: true, Metrics: true})
	runWorkload(t, rec)
	runs := rec.Runs()
	if len(runs) != 1 {
		t.Fatalf("got %d runs, want 1", len(runs))
	}
	run := runs[0]

	bucketSum := func(h *obs.Histogram) uint64 {
		var s uint64
		for _, n := range h.Buckets {
			s += n
		}
		return s
	}

	var sawSamples bool
	for rank := 0; rank < run.NumPEs(); rank++ {
		m := run.PEMetrics(rank)
		if m == nil {
			t.Fatalf("PE %d has no metrics", rank)
		}
		pairs := []struct {
			name    string
			counter uint64
			hist    *obs.Histogram
		}{
			{"puts/put_latency", m.Puts.Value(), &m.PutLatency},
			{"gets/get_latency", m.Gets.Value(), &m.GetLatency},
			{"barriers/barrier_latency", m.Barriers.Value(), &m.BarrierLatency},
			{"collectives/collective_latency", m.Collectives.Value(), &m.CollectiveLatency},
			{"rounds/round_latency", m.Rounds.Value(), &m.RoundLatency},
		}
		for _, p := range pairs {
			if s := bucketSum(p.hist); s != p.hist.Count {
				t.Errorf("PE %d %s: bucket sum %d != histogram count %d", rank, p.name, s, p.hist.Count)
			}
			if p.hist.Count != p.counter {
				t.Errorf("PE %d %s: histogram count %d != counter %d (lockstep broken)",
					rank, p.name, p.hist.Count, p.counter)
			}
			if p.hist.Count > 0 {
				sawSamples = true
			}
		}
		if m.Collectives.Value() == 0 {
			t.Errorf("PE %d recorded no collectives", rank)
		}
	}
	if !sawSamples {
		t.Fatal("no histogram recorded any sample")
	}

	// Fabric side: one StreamStall observation per booked stream.
	fm := run.FabricMetrics()
	if fm == nil {
		t.Fatal("run has no fabric metrics")
	}
	if s := bucketSum(&fm.StreamStall); s != fm.StreamStall.Count {
		t.Errorf("fabric stream_stall: bucket sum %d != count %d", s, fm.StreamStall.Count)
	}
	if got, want := fm.StreamStall.Count, fm.Streams.Value()+fm.Fetches.Value(); got != want {
		t.Errorf("fabric stream_stall count %d != streams+fetches %d", got, want)
	}

	// Cluster merge preserves totals.
	total := run.ClusterMetrics()
	if total == nil {
		t.Fatal("ClusterMetrics returned nil with metrics enabled")
	}
	var wantPuts, wantRounds uint64
	for rank := 0; rank < run.NumPEs(); rank++ {
		wantPuts += run.PEMetrics(rank).Puts.Value()
		wantRounds += run.PEMetrics(rank).RoundLatency.Count
	}
	if total.Puts.Value() != wantPuts {
		t.Errorf("cluster puts %d != per-PE sum %d", total.Puts.Value(), wantPuts)
	}
	if total.RoundLatency.Count != wantRounds {
		t.Errorf("cluster round_latency count %d != per-PE sum %d", total.RoundLatency.Count, wantRounds)
	}
}

func TestDeterministicTraceReproducible(t *testing.T) {
	export := func() []byte {
		rec := obs.NewRecorder(obs.Options{Trace: true, Metrics: true})
		runWorkload(t, rec)
		var buf bytes.Buffer
		if err := rec.WriteTrace(&buf); err != nil {
			t.Fatal(err)
		}
		return buf.Bytes()
	}
	a, b := export(), export()
	if !bytes.Equal(a, b) {
		t.Error("two Config.Deterministic runs exported different traces")
	}
}

func TestHistogramObserveMergeQuantile(t *testing.T) {
	var h obs.Histogram
	vals := []uint64{0, 1, 2, 3, 7, 100, 1 << 20}
	var sum uint64
	for _, v := range vals {
		h.Observe(v)
		sum += v
	}
	if h.Count != uint64(len(vals)) || h.Sum != sum {
		t.Errorf("count/sum = %d/%d, want %d/%d", h.Count, h.Sum, len(vals), sum)
	}
	if h.MinV != 0 || h.MaxV != 1<<20 {
		t.Errorf("min/max = %d/%d, want 0/%d", h.MinV, h.MaxV, 1<<20)
	}
	var bsum uint64
	for _, n := range h.Buckets {
		bsum += n
	}
	if bsum != h.Count {
		t.Errorf("bucket sum %d != count %d", bsum, h.Count)
	}
	if q := h.Quantile(1.0); q != h.MaxV {
		t.Errorf("Quantile(1.0) = %d, want max %d", q, h.MaxV)
	}

	// Splitting the observations across two histograms and merging
	// must reproduce the single-histogram state.
	var a, b obs.Histogram
	for i, v := range vals {
		if i%2 == 0 {
			a.Observe(v)
		} else {
			b.Observe(v)
		}
	}
	a.Merge(&b)
	if a != h {
		t.Errorf("merged histogram %+v != direct %+v", a, h)
	}
}
