package obs_test

import (
	"bytes"
	"encoding/json"
	"testing"

	"xbgas/internal/obs"
	"xbgas/internal/xbrtime"
)

// fullTraceFile extends the shared traceFile shape with the otherData
// header the model-identity satellite writes.
type fullTraceFile struct {
	TraceEvents []traceEvent   `json:"traceEvents"`
	OtherData   map[string]any `json:"otherData"`
}

// TestTraceCountersAndMetadata drives cross-node traffic on a grouped
// fabric and checks the exported trace carries the three per-NIC
// counter tracks, the per-run run_metadata record, and the recorder's
// model identity in otherData.
func TestTraceCountersAndMetadata(t *testing.T) {
	rec := obs.NewRecorder(obs.Options{Trace: true})
	rec.SetModelMeta(obs.ModelMeta{
		TuningVersion: 7,
		ChunkBytes:    256,
	})
	rt := xbrtime.MustNew(xbrtime.Config{NumPEs: 4, TopoSpec: "grouped:2", Deterministic: true, Obs: rec})
	defer rt.Close()
	err := rt.Run(func(pe *xbrtime.PE) error {
		const nelems = 16
		w := uint64(xbrtime.TypeLong.Width)
		dest, err := pe.Malloc(nelems * w)
		if err != nil {
			return err
		}
		src, err := pe.PrivateAlloc(nelems * w)
		if err != nil {
			return err
		}
		// One intra-node put (rank^1 shares the node on grouped:2) and
		// one inter-node put (rank+2 mod 4 is on the other node).
		if err := pe.Put(xbrtime.TypeLong, dest, src, nelems, 1, pe.MyPE()^1); err != nil {
			return err
		}
		if err := pe.Put(xbrtime.TypeLong, dest, src, nelems, 1, (pe.MyPE()+2)%4); err != nil {
			return err
		}
		return pe.Barrier()
	})
	if err != nil {
		t.Fatal(err)
	}

	var buf bytes.Buffer
	if err := rec.WriteTrace(&buf); err != nil {
		t.Fatal(err)
	}
	var tf fullTraceFile
	if err := json.Unmarshal(buf.Bytes(), &tf); err != nil {
		t.Fatalf("exported trace is not valid JSON: %v", err)
	}

	if got := tf.OtherData["tool"]; got != "xbgas-bench" {
		t.Errorf("otherData tool = %v", got)
	}
	if got := tf.OtherData["tuning_version"]; got != float64(7) {
		t.Errorf("otherData tuning_version = %v, want 7", got)
	}
	if got := tf.OtherData["chunk_bytes"]; got != float64(256) {
		t.Errorf("otherData chunk_bytes = %v, want 256", got)
	}

	var haveRunMeta bool
	counterNames := map[string]bool{}
	counterSeries := map[string]map[string]bool{}
	for _, ev := range tf.TraceEvents {
		switch {
		case ev.Ph == "M" && ev.Name == "run_metadata":
			haveRunMeta = true
			if got := ev.Args["pes"]; got != float64(4) {
				t.Errorf("run_metadata pes = %v, want 4", got)
			}
			if got := ev.Args["topo"]; got != "grouped:2" {
				t.Errorf("run_metadata topo = %v, want grouped:2", got)
			}
			if got := ev.Args["deterministic"]; got != true {
				t.Errorf("run_metadata deterministic = %v, want true", got)
			}
		case ev.Ph == "C":
			counterNames[ev.Name] = true
			if counterSeries[ev.Name] == nil {
				counterSeries[ev.Name] = map[string]bool{}
			}
			for k := range ev.Args {
				counterSeries[ev.Name][k] = true
			}
		}
	}
	if !haveRunMeta {
		t.Error("trace has no run_metadata record")
	}
	for _, want := range []string{"NIC 0 queue", "NIC 0 stall", "NIC 0 load"} {
		if !counterNames[want] {
			t.Errorf("trace has no %q counter events; counters seen: %v", want, counterNames)
		}
	}
	// The stall and load counters are split by link class.
	for _, name := range []string{"NIC 0 stall", "NIC 0 load"} {
		if s := counterSeries[name]; !s["intra"] || !s["inter"] {
			t.Errorf("%q series = %v, want intra+inter", name, s)
		}
	}
}

// TestRunMetaNilSafe pins the nil-safety of the Run metadata accessors
// that the runtime calls unconditionally.
func TestRunMetaNilSafe(t *testing.T) {
	var run *obs.Run
	run.SetMeta(obs.RunMeta{PEs: 3})
	if got := run.Meta(); got != (obs.RunMeta{}) {
		t.Errorf("nil run Meta = %+v", got)
	}
	if run.StepLog(0) != nil {
		t.Error("nil run StepLog != nil")
	}
	if run.FabricCounters(0) != nil {
		t.Error("nil run FabricCounters != nil")
	}
}
