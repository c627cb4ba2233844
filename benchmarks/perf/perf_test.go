package main

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"reflect"
	"regexp"
	"strings"
	"testing"

	"xbgas/internal/xbrtime"
)

// small returns a copy of w cut down so that both kinds of run finish
// in about a second: the same cells and layers, smaller payloads and
// kernels. The self-test checks the instrument, not the numbers.
func small(w *workload) *workload {
	s := *w
	s.cells = append([]cell(nil), w.cells...)
	for i := range s.cells {
		if s.cells[i].nelems > 1024 {
			s.cells[i].nelems = 1024
		}
	}
	s.batchCycles = 1
	if w.gups != nil {
		p := *w.gups
		p.TableWords, p.UpdatesPerPE = 1<<15, 128
		s.gups = &p
	}
	if w.is != nil {
		p := *w.is
		p.TotalKeys, p.MaxKey, p.Iterations = 1<<11, 1<<8, 1
		s.is = &p
	}
	return &s
}

var tiny = options{seed: 7, seconds: 0.05, lockCycles: 1, setups: 1, setupFor: 1e-9, probeReps: 0.002}

var nameRE = regexp.MustCompile(`^[A-Za-z0-9_.-]+$`)

// checkMetrics holds a result to the contract: every declared metric
// once, with its unit, nothing undeclared.
func checkMetrics(t *testing.T, res *runResult, defs []metricDef) {
	t.Helper()
	if !res.Correct || res.Failed != 0 || res.Attempted < 1 {
		t.Errorf("correct=%v attempted=%d failed=%d", res.Correct, res.Attempted, res.Failed)
	}
	if len(res.Metrics) != len(defs) {
		t.Errorf("%d metrics reported, %d declared", len(res.Metrics), len(defs))
	}
	for _, d := range defs {
		m, ok := res.Metrics[d.Name]
		if !ok {
			t.Errorf("metric %s missing", d.Name)
			continue
		}
		if m.Unit != d.Unit || m.Unit == "" {
			t.Errorf("metric %s has unit %q, want %q", d.Name, m.Unit, d.Unit)
		}
		if !nameRE.MatchString(d.Name) || len(d.Name) > 64 {
			t.Errorf("metric name %q breaks the contract", d.Name)
		}
	}
}

func TestEveryWorkloadReportsEveryMetric(t *testing.T) {
	for _, w := range workloads {
		w := small(w)
		t.Run(w.name, func(t *testing.T) {
			res, err := runEndToEnd(w, tiny)
			if err != nil {
				t.Fatal(err)
			}
			checkMetrics(t, res, endToEnd)
			for _, d := range endToEnd {
				if res.Metrics[d.Name].Value <= 0 {
					t.Errorf("end-to-end metric %s is %v; it must never be 0", d.Name, res.Metrics[d.Name].Value)
				}
			}

			opt := tiny
			opt.outDir = t.TempDir()
			opt.seconds = 0.6 // 0.15 s a pass: enough for the 100 Hz profile to take samples
			res, err = runTraced(w, opt)
			if err != nil {
				t.Fatal(err)
			}
			checkMetrics(t, res, perLayer())
			if res.pprofCoverage < 0.95 {
				t.Errorf("layer buckets cover %.3f of the CPU samples, want >= 0.95: %v", res.pprofCoverage, res.notes)
			}
			var shares, crit float64
			for _, l := range layers {
				shares += res.Metrics[l+".host_self_share"].Value
			}
			for _, c := range critCats {
				crit += res.Metrics["core.crit_"+c+"_share"].Value
			}
			if shares < 0.98 || shares > 1.02 {
				t.Errorf("host self-time shares sum to %.3f", shares)
			}
			if crit < 0.999 || crit > 1.001 {
				t.Errorf("critical-path shares sum to %.4f", crit)
			}
			checkSpanFile(t, filepath.Join(opt.outDir, "trace-"+w.name+".json"))
		})
	}
}

func checkSpanFile(t *testing.T, path string) {
	t.Helper()
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var spans []spanRec
	if err := json.Unmarshal(data, &spans); err != nil {
		t.Fatal(err)
	}
	if len(spans) == 0 {
		t.Fatal("no spans written")
	}
	for i, s := range spans {
		if s.Name == "" || s.End < s.Start || s.Parent < -1 || s.Parent >= i {
			t.Fatalf("span %d malformed: %+v", i, s)
		}
	}
}

// Two lockstep passes on fresh runtimes must agree bit for bit: that is
// what lets a host-only change be held to "no sim metric moved".
func TestLockstepRepeatsExactly(t *testing.T) {
	for _, name := range []string{"tree_small_8pe", "gups_8pe"} {
		w := small(findWorkload(name))
		var passes [2]lockResult
		for i := range passes {
			r, err := newRunner(newOracle(w, 3), true, nil)
			if err != nil {
				t.Fatal(err)
			}
			if passes[i], err = r.lockstep(3, nil); err != nil {
				t.Fatal(err)
			}
			passes[i].samplesUs = nil
		}
		if !reflect.DeepEqual(passes[0], passes[1]) {
			t.Errorf("%s: lockstep passes differ:\n%+v\n%+v", name, passes[0], passes[1])
		}
		if passes[0].makespan == 0 || passes[0].counts.msgs == 0 {
			t.Errorf("%s: lockstep pass measured nothing: %+v", name, passes[0])
		}
	}
}

// A destination damaged between a call's return and its check must be
// counted as a failed op and make the run incorrect.
func TestCorruptedDestinationFails(t *testing.T) {
	w := small(findWorkload("tree_small_8pe"))
	r, err := newRunner(newOracle(w, tiny.seed), true, nil)
	if err != nil {
		t.Fatal(err)
	}
	env := r.(*collEnv)
	corrupt := func(pe *xbrtime.PE, ci int) {
		if pe.MyPE() == 3 && w.cells[ci].name == "allreduce64" {
			pe.Poke(dtI64, env.dst[ci], 12345)
		}
	}
	lr, err := env.lockstep(2, corrupt)
	if err != nil {
		t.Fatal(err)
	}
	if lr.failed != 4 { // one cell in each of the 2 counted and 2 checked cycles
		t.Errorf("failed = %d of %d ops, want 4", lr.failed, lr.ops)
	}

	// Symmetric allocation is deterministic, so the same address is the
	// same buffer in the runtimes a whole run builds.
	opt := tiny
	opt.corrupt = corrupt
	res, err := runEndToEnd(w, opt)
	if err != nil {
		t.Fatal(err)
	}
	if res.Correct || res.Failed == 0 {
		t.Errorf("run with a corrupted destination: correct=%v failed=%d", res.Correct, res.Failed)
	}
}

func TestLayerBuckets(t *testing.T) {
	for fn, want := range map[string]string{
		"xbgas/internal/mem.(*Hierarchy).TouchRange":    "mem",
		"xbgas/internal/fabric.(*Fabric).SendStream":    "fabric",
		"xbgas/internal/xbrtime.(*PE).putImpl":          "xbrtime",
		"xbgas/internal/core.(*execEnv).step":           "core",
		"xbgas/internal/bench.RunGUPS.func1":            "bench",
		"main.(*collEnv).cycle":                         "bench",
		"xbgas/benchmarks/perf.(*collEnv).call":         "bench",
		"xbgas/internal/sim.(*Node).LockedReadElems":    "sim",
		"xbgas/internal/olb.(*OLB).Translate":           "sim",
		"xbgas/internal/obs.(*StepLog).Note":            "obs",
		"runtime.futex":                                 "goruntime",
		"sync.(*Mutex).Lock":                            "goruntime",
		"memeqbody":                                     "goruntime",
		"internal/runtime/atomic.(*Uint32).Load":        "goruntime",
		"github.com/someone/else.Func":                  "",
		"xbgas/internal/asm.(*Assembler).encodeOperand": "",
	} {
		if got := layerOf(fn); got != want {
			t.Errorf("layerOf(%q) = %q, want %q", fn, got, want)
		}
	}
}

func TestVerdicts(t *testing.T) {
	wall := metricDef{Name: "host_wall_us_per_op", Unit: "us", Better: "lower", Bound: 0.10}
	mm := func(v float64, runs ...float64) mergedMetric { return mergedMetric{Value: v, Unit: "us", Runs: runs} }
	for _, c := range []struct {
		name string
		d    metricDef
		a, b mergedMetric
		want string
	}{
		{"within bound", wall, mm(100), mm(108), "same"},
		{"past bound", wall, mm(100), mm(112), "worse"},
		{"gain", wall, mm(100), mm(80), "better"},
		{"noisy and overlapping", wall, mm(100, 80, 95, 105, 130), mm(112, 90, 108, 116, 140), "unresolved"},
		{"noisy but separated", wall, mm(100, 80, 95, 105, 130), mm(60, 50, 58, 62, 70), "better"},
		{"missing", wall, mergedMetric{}, mm(1), "unresolved"},
		{"set-up under the floor", endToEnd[0], mergedMetric{Value: 0.010, Unit: "s"}, mergedMetric{Value: 0.020, Unit: "s"}, "same"},
		{"noisy set-up under the floor", endToEnd[0], mergedMetric{Value: 0.010, Unit: "s", Runs: []float64{0.005, 0.010, 0.010, 0.015}},
			mergedMetric{Value: 0.003, Unit: "s", Runs: []float64{0.002, 0.003, 0.003, 0.004}}, "same"},
		{"higher is better", metricDef{Name: "x", Unit: "1/s", Better: "higher", Bound: 0.1}, mm(100), mm(80), "worse"},
	} {
		if got, _ := verdict(c.d, c.a, c.b); got != c.want {
			t.Errorf("%s: verdict = %s, want %s", c.name, got, c.want)
		}
	}
}

// BENCHMARK.json is generated from the harness's own tables; this keeps
// the checked-in copy from drifting and holds it to the contract's limits.
func TestManifest(t *testing.T) {
	m, err := manifest(runSeconds)
	if err != nil {
		t.Fatal(err)
	}
	if onDisk, err := os.ReadFile(filepath.Join("..", "..", "BENCHMARK.json")); err == nil {
		if !bytes.Equal(onDisk, m) {
			t.Error("BENCHMARK.json differs from `perf -manifest`; regenerate it")
		}
	}
	if len(m) > 64<<10 {
		t.Errorf("manifest is %d bytes, over 64 KiB", len(m))
	}
	defs := perLayer()
	if len(endToEnd) < 1 || len(endToEnd) > 16 || len(defs) < 1 || len(defs) > 128 {
		t.Errorf("%d end-to-end and %d per-layer metrics", len(endToEnd), len(defs))
	}
	if len(workloads) < 2 || len(workloads) > 8 {
		t.Errorf("%d workloads", len(workloads))
	}
	seen := map[string]bool{}
	unitRE := regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)
	for _, d := range append(append([]metricDef{}, endToEnd...), defs...) {
		if seen[d.Name] || !nameRE.MatchString(d.Name) || len(d.Name) > 64 || !unitRE.MatchString(d.Unit) {
			t.Errorf("metric %q (unit %q) repeats or breaks the naming rules", d.Name, d.Unit)
		}
		seen[d.Name] = true
		if d.Better != "lower" && d.Better != "higher" {
			t.Errorf("metric %q: better = %q", d.Name, d.Better)
		}
	}
	hasSetup := false
	for _, d := range endToEnd {
		if d.Bound <= 0 || d.Bound > 0.25 {
			t.Errorf("metric %q: bound %v", d.Name, d.Bound)
		}
		hasSetup = hasSetup || (d.Name == "setup_s" && d.Unit == "s" && d.Better == "lower")
	}
	if !hasSetup {
		t.Error("no setup_s metric")
	}
	for _, w := range workloads {
		if seen[w.name] || !nameRE.MatchString(w.name) || len(w.why) > 200 || strings.Contains(w.why, "\n") {
			t.Errorf("workload %q repeats a name or has a bad why (%d chars)", w.name, len(w.why))
		}
		seen[w.name] = true
	}
}
