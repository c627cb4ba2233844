package bench

import (
	"fmt"
	"os"
	"strings"
	"testing"

	"xbgas/internal/xbrtime"
)

// fastGUPS/fastIS keep report tests quick.
func fastGUPS() GUPSParams {
	p := DefaultGUPSParams()
	p.TableWords = 1 << 14
	p.UpdatesPerPE = 256
	return p
}

func fastIS() ISParams {
	p := DefaultISParams()
	p.TotalKeys = 1 << 11
	p.MaxKey = 1 << 7
	p.Iterations = 1
	return p
}

func TestTable1Report(t *testing.T) {
	var b strings.Builder
	if err := Table1(&b); err != nil {
		t.Fatal(err)
	}
	out := b.String()
	for _, want := range []string{"TYPENAME", "longdouble", "long double", "ptrdiff_t", "uint64_t"} {
		if !strings.Contains(out, want) {
			t.Errorf("Table 1 missing %q", want)
		}
	}
	if got := strings.Count(out, "\n"); got != 26 { // header x2 + 24 types
		t.Errorf("Table 1 has %d lines, want 26", got)
	}
}

// TestAPISurfaceDoc pins docs/API_SURFACE.md to the renderer behind
// xbgas-bench -table 1. After adding a DType, a ReduceOp or an entry
// point, refresh it with
//
//	UPDATE_API_SURFACE=1 go test ./internal/bench -run TestAPISurfaceDoc
func TestAPISurfaceDoc(t *testing.T) {
	var b strings.Builder
	if err := APISurface(&b); err != nil {
		t.Fatal(err)
	}
	const path = "../../docs/API_SURFACE.md"
	if os.Getenv("UPDATE_API_SURFACE") != "" {
		if err := os.WriteFile(path, []byte(b.String()), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	onDisk, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if string(onDisk) != b.String() {
		t.Errorf("%s is stale; refresh with UPDATE_API_SURFACE=1 go test ./internal/bench -run TestAPISurfaceDoc", path)
	}
	for _, want := range []string{"| **total** | | **693** |", "`xbrtime_TYPE_reduce_scatter_OP`", "| `ptrdiff` | `ptrdiff_t` | 8 | Int |", "| `float` | ✓ | ✓ | ✓ | ✓ | — | — | — |"} {
		if !strings.Contains(b.String(), want) {
			t.Errorf("rendered surface is missing %q", want)
		}
	}
}

func TestTable2Report(t *testing.T) {
	var b strings.Builder
	if err := Table2(&b); err != nil {
		t.Fatal(err)
	}
	// The paper's exact instance: log 0 -> vir 3 ... log 4 -> vir 0.
	for _, want := range []string{"n_pes=7, root=4", "       4         0", "       0         3"} {
		if !strings.Contains(b.String(), want) {
			t.Errorf("Table 2 missing %q:\n%s", want, b.String())
		}
	}
}

func TestFigureReports(t *testing.T) {
	var b strings.Builder
	if err := Figure1(&b); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(b.String(), "e31") {
		t.Error("Figure 1 missing extended registers")
	}
	b.Reset()
	if err := Figure2(&b); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(b.String(), "symmetric") || strings.Count(b.String(), "PE ") < 2 {
		t.Errorf("Figure 2 output:\n%s", b.String())
	}
	b.Reset()
	if err := Figure3(&b); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(b.String(), "0->4") {
		t.Errorf("Figure 3 output:\n%s", b.String())
	}
}

func TestFigure4Report(t *testing.T) {
	var b strings.Builder
	if err := Figure4(&b, fastGUPS()); err != nil {
		t.Fatal(err)
	}
	out := b.String()
	if !strings.Contains(out, "GUPS") || !strings.Contains(out, "per-PE") {
		t.Errorf("Figure 4 output:\n%s", out)
	}
	// One row per sweep point.
	if lines := strings.Count(out, "\n"); lines < 6 {
		t.Errorf("Figure 4 too short:\n%s", out)
	}
}

func TestFigure5Report(t *testing.T) {
	var b strings.Builder
	if err := Figure5(&b, fastIS()); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(b.String(), "Integer Sort") {
		t.Errorf("Figure 5 output:\n%s", b.String())
	}
}

func TestCollectiveMicrobench(t *testing.T) {
	for _, op := range []CollectiveOp{OpBroadcast, OpReduce, OpScatter, OpGather, OpBarrier} {
		r, err := RunCollective(CollectiveSpec{Op: op, PEs: 4, Nelems: 16, Iters: 2})
		if err != nil {
			t.Fatalf("%s: %v", op, err)
		}
		if r.Cycles == 0 {
			t.Errorf("%s: zero cycles", op)
		}
	}
	if _, err := RunCollective(CollectiveSpec{Op: "bogus", PEs: 2, Nelems: 1, Iters: 1}); err == nil {
		t.Error("unknown op must fail")
	}
	if _, err := RunCollective(CollectiveSpec{Op: OpBroadcast, PEs: 0}); err == nil {
		t.Error("zero PEs must fail")
	}
	if _, err := RunCollective(CollectiveSpec{Op: OpBroadcast, PEs: 2, Root: 5}); err == nil {
		t.Error("bad root must fail")
	}
}

func TestComparisonShowsXBGASAdvantage(t *testing.T) {
	var b strings.Builder
	if err := Comparison(&b); err != nil {
		t.Fatal(err)
	}
	out := b.String()
	if !strings.Contains(out, "speedup") {
		t.Fatalf("comparison output:\n%s", out)
	}
	// Every speedup row must favour xBGAS (value > 1).
	for _, line := range strings.Split(out, "\n") {
		if strings.HasSuffix(line, "x") && !strings.Contains(line, "speedup") {
			var frac float64
			fields := strings.Fields(line)
			if len(fields) < 4 {
				continue
			}
			if _, err := sscan(fields[len(fields)-1], &frac); err != nil {
				continue
			}
			if frac <= 1.0 {
				t.Errorf("xBGAS slower than message passing: %q", line)
			}
		}
	}
}

func sscan(s string, f *float64) (int, error) {
	s = strings.TrimSuffix(s, "x")
	var v float64
	n, err := fmtSscan(s, &v)
	*f = v
	return n, err
}

func TestAblationReports(t *testing.T) {
	for name, fn := range map[string]func(w *strings.Builder) error{
		"tree-vs-linear": func(w *strings.Builder) error { return AblationTreeVsLinear(w) },
		"message-size":   func(w *strings.Builder) error { return AblationMessageSize(w) },
		"topology":       func(w *strings.Builder) error { return AblationTopology(w) },
		"unroll":         func(w *strings.Builder) error { return AblationUnroll(w) },
		"root":           func(w *strings.Builder) error { return AblationRoot(w) },
		"olb":            func(w *strings.Builder) error { return AblationOLB(w) },
		"barrier":        func(w *strings.Builder) error { return AblationBarrier(w) },
		"prefetch":       func(w *strings.Builder) error { return AblationPrefetch(w) },
	} {
		var b strings.Builder
		if err := fn(&b); err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if len(b.String()) < 40 {
			t.Errorf("%s: suspiciously short output:\n%s", name, b.String())
		}
	}
}

func TestUnrollAblationShowsBenefit(t *testing.T) {
	var b strings.Builder
	if err := AblationUnroll(&b); err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSpace(b.String()), "\n")
	// last two lines: unrolled then element-wise; element-wise slower.
	var unrolled, element uint64
	if _, err := fmtSscan(strings.Fields(lines[len(lines)-2])[len(strings.Fields(lines[len(lines)-2]))-1], &unrolled); err != nil {
		t.Fatal(err)
	}
	if _, err := fmtSscan(strings.Fields(lines[len(lines)-1])[len(strings.Fields(lines[len(lines)-1]))-1], &element); err != nil {
		t.Fatal(err)
	}
	if unrolled >= element {
		t.Errorf("unrolled (%d) should beat element-wise (%d)", unrolled, element)
	}
}

func TestOLBAblationShowsThrashing(t *testing.T) {
	var b strings.Builder
	if err := AblationOLB(&b); err != nil {
		t.Fatal(err)
	}
	out := b.String()
	if !strings.Contains(out, "256") || !strings.Contains(out, "1 ") {
		t.Errorf("OLB ablation output:\n%s", out)
	}
}

func TestTopologyAblationOrders(t *testing.T) {
	// Denser topologies must not be slower than sparser ones for the
	// same collective.
	var b strings.Builder
	if err := AblationTopology(&b); err != nil {
		t.Fatal(err)
	}
	var full, ring float64
	for _, line := range strings.Split(b.String(), "\n") {
		f := strings.Fields(line)
		if len(f) < 2 {
			continue
		}
		switch f[0] {
		case "fully-connected":
			fmtSscan(f[1], &full) //nolint:errcheck
		case "ring":
			fmtSscan(f[1], &ring) //nolint:errcheck
		}
	}
	if full == 0 || ring == 0 {
		t.Fatalf("missing topology rows:\n%s", b.String())
	}
	if full > ring {
		t.Errorf("fully connected (%v) slower than ring (%v)", full, ring)
	}
}

func TestRuntimeOverrideInSpecs(t *testing.T) {
	// A spec carrying a runtime override must flow through.
	r, err := RunCollective(CollectiveSpec{
		Op: OpBroadcast, PEs: 4, Nelems: 8, Iters: 1,
		Runtime: xbrtime.Config{UnrollThreshold: 4},
	})
	if err != nil {
		t.Fatal(err)
	}
	if r.PEs != 4 {
		t.Errorf("result PEs = %d", r.PEs)
	}
}

// fmtSscan avoids importing fmt at the top for a single helper.
func fmtSscan(s string, v interface{}) (int, error) { return fmt.Sscan(s, v) }

func TestTrafficMatrixReport(t *testing.T) {
	var b strings.Builder
	if err := TrafficMatrix(&b); err != nil {
		t.Fatal(err)
	}
	out := b.String()
	if !strings.Contains(out, "src\\dst") || strings.Count(out, "\n") < 5 {
		t.Errorf("traffic matrix:\n%s", out)
	}
	// The diagonal must be zero (self-puts are local, never fabric).
	lines := strings.Split(strings.TrimSpace(out), "\n")
	row0 := strings.Fields(lines[2])
	if row0[1] != "0/0" {
		t.Errorf("diagonal not empty: %q", row0[1])
	}
}

func TestFigureCSV(t *testing.T) {
	var b strings.Builder
	if err := FigureCSV(&b, 4, fastGUPS(), fastIS()); err != nil {
		t.Fatal(err)
	}
	out := b.String()
	if !strings.HasPrefix(out, "figure,pes,") || strings.Count(out, "\n") != 5 {
		t.Errorf("CSV output:\n%s", out)
	}
	if err := FigureCSV(&b, 3, fastGUPS(), fastIS()); err == nil {
		t.Error("figure 3 has no CSV form")
	}
}
