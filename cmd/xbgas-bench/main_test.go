package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"xbgas/internal/core"
)

func TestRunTables(t *testing.T) {
	var out, errBuf strings.Builder
	if code := run([]string{"-table", "1"}, &out, &errBuf); code != 0 {
		t.Fatalf("exit %d: %s", code, errBuf.String())
	}
	if !strings.Contains(out.String(), "ptrdiff_t") {
		t.Errorf("table 1 output: %s", out.String())
	}
	// The 24 TYPENAME rows come first, then the C call surface they span.
	if types, surface := strings.Index(out.String(), "ptrdiff      ptrdiff_t"),
		strings.Index(out.String(), "| **total** | | **693** |"); types < 0 || surface < types {
		t.Errorf("table 1 must be followed by the 693-function surface (offsets %d, %d)", types, surface)
	}
	out.Reset()
	if code := run([]string{"-table", "2"}, &out, &errBuf); code != 0 {
		t.Fatalf("exit %d", code)
	}
	if !strings.Contains(out.String(), "vir_rank") {
		t.Errorf("table 2 output: %s", out.String())
	}
}

func TestRunFigureStatic(t *testing.T) {
	var out, errBuf strings.Builder
	if code := run([]string{"-figure", "3"}, &out, &errBuf); code != 0 {
		t.Fatalf("exit %d", code)
	}
	if !strings.Contains(out.String(), "0->4") {
		t.Errorf("figure 3 output: %s", out.String())
	}
}

func TestRunCSVSweep(t *testing.T) {
	var out, errBuf strings.Builder
	args := []string{"-csv", "-figure", "4", "-gups-table", "16384", "-gups-updates", "128"}
	if code := run(args, &out, &errBuf); code != 0 {
		t.Fatalf("exit %d: %s", code, errBuf.String())
	}
	if !strings.HasPrefix(out.String(), "figure,pes,") {
		t.Errorf("CSV output: %s", out.String())
	}
}

func TestRunUsageAndErrors(t *testing.T) {
	var out, errBuf strings.Builder
	if code := run(nil, &out, &errBuf); code != 2 {
		t.Errorf("no selection: exit %d", code)
	}
	if code := run([]string{"-ablation", "bogus"}, &out, &errBuf); code != 2 {
		t.Errorf("unknown ablation: exit %d", code)
	}
	if code := run([]string{"-nonsense"}, &out, &errBuf); code != 2 {
		t.Errorf("bad flag: exit %d", code)
	}
	// Invalid workload parameters surface as exit 1.
	errBuf.Reset()
	if code := run([]string{"-figure", "4", "-gups-table", "1000"}, &out, &errBuf); code != 1 {
		t.Errorf("bad table size: exit %d (%s)", code, errBuf.String())
	}
}

func TestRunAlgoFlag(t *testing.T) {
	var out, errBuf strings.Builder
	if code := run([]string{"-algo", "list"}, &out, &errBuf); code != 0 {
		t.Fatalf("-algo list: exit %d: %s", code, errBuf.String())
	}
	for _, name := range []string{"binomial", "linear", "scatter-allgather", "direct"} {
		if !strings.Contains(out.String(), name) {
			t.Errorf("-algo list output missing %q:\n%s", name, out.String())
		}
	}
	errBuf.Reset()
	if code := run([]string{"-algo", "bogus", "-table", "1"}, &out, &errBuf); code != 2 {
		t.Errorf("unknown algorithm: exit %d", code)
	}
	if !strings.Contains(errBuf.String(), "registered:") {
		t.Errorf("unknown-algorithm error must list the registry: %s", errBuf.String())
	}
	out.Reset()
	args := []string{"-algo", "linear", "-gups", "2", "-gups-table", "4096", "-gups-updates", "64"}
	if code := run(args, &out, &errBuf); code != 0 {
		t.Fatalf("-algo linear gups: exit %d: %s", code, errBuf.String())
	}
}

// TestRunChunkFlagOutlivesKernels: -chunk is one process-wide
// override, so it still holds after the GUPS and IS runs for whatever
// the driver does next (-compare, ablations, sweeps, -audit).
func TestRunChunkFlagOutlivesKernels(t *testing.T) {
	defer core.SetChunkBytes(0)
	var out, errBuf strings.Builder
	for _, args := range [][]string{
		{"-chunk", "4096", "-figure", "4", "-gups-table", "1024", "-gups-updates", "64"},
		{"-chunk", "4096", "-figure", "5", "-is-keys", "1024", "-is-maxkey", "256", "-is-iters", "1"},
	} {
		if code := run(args, &out, &errBuf); code != 0 {
			t.Fatalf("%v: exit %d: %s", args, code, errBuf.String())
		}
		if got := core.ChunkBytes(); got != 4096 {
			t.Errorf("%v: chunk override after the run = %d, want 4096", args, got)
		}
	}
}

func TestRunAlgoListPerCollective(t *testing.T) {
	var out, errBuf strings.Builder
	if code := run([]string{"-algo", "list"}, &out, &errBuf); code != 0 {
		t.Fatalf("-algo list: exit %d: %s", code, errBuf.String())
	}
	checks := map[string][]string{
		"broadcast:":      {"binomial [seg]", "ring [seg]", "scatter-allgather"},
		"allreduce:":      {"binomial [seg]", "rabenseifner", "ring"},
		"reduce_scatter:": {"rabenseifner", "ring"},
		"allgather:":      {"binomial", "rabenseifner", "ring"},
		"alltoall:":       {"direct"},
	}
	for line, wants := range checks {
		var found string
		for _, l := range strings.Split(out.String(), "\n") {
			if strings.HasPrefix(l, line) {
				found = l
				break
			}
		}
		if found == "" {
			t.Errorf("-algo list output has no %q line:\n%s", line, out.String())
			continue
		}
		for _, w := range wants {
			if !strings.Contains(found, w) {
				t.Errorf("%q line missing %q: %s", line, w, found)
			}
		}
	}
}

func TestRunExplainFlag(t *testing.T) {
	var out, errBuf strings.Builder
	args := []string{"-explain", "allreduce", "-n", "8", "-bytes", "64"}
	if code := run(args, &out, &errBuf); code != 0 {
		t.Fatalf("-explain: exit %d: %s", code, errBuf.String())
	}
	for _, want := range []string{
		"auto for allreduce, 8 PEs on flat, 64 B",
		"allreduce/binomial", "allreduce/ring", "dry-run cycles",
		"critical path of allreduce/", "barrier-wait",
	} {
		if !strings.Contains(out.String(), want) {
			t.Errorf("-explain output missing %q:\n%s", want, out.String())
		}
	}
	if strings.Count(out.String(), "\n* ") != 1 {
		t.Errorf("-explain must mark exactly one winner:\n%s", out.String())
	}
	errBuf.Reset()
	if code := run([]string{"-explain", "bogus"}, &out, &errBuf); code != 1 {
		t.Errorf("unknown -explain collective: exit %d (%s)", code, errBuf.String())
	}
	// Nothing is calibrated or loaded any more: the flags are gone.
	for _, gone := range []string{"-tune", "-tuning=x.json"} {
		errBuf.Reset()
		if code := run([]string{gone, "-table", "1"}, &out, &errBuf); code != 2 {
			t.Errorf("%s: exit %d, want 2 (unknown flag)", gone, code)
		}
	}
	errBuf.Reset()
	if code := run([]string{"-sweep", "bogus"}, &out, &errBuf); code != 2 {
		t.Errorf("unknown sweep op: exit %d", code)
	}
	if !strings.Contains(errBuf.String(), "allreduce|allgather|reduce_scatter") {
		t.Errorf("sweep error must list valid ops: %s", errBuf.String())
	}
}

func TestRunGUPSWithTraceAndMetrics(t *testing.T) {
	var out, errBuf strings.Builder
	path := filepath.Join(t.TempDir(), "gups.json")
	args := []string{"-gups", "2", "-gups-table", "4096", "-gups-updates", "64",
		"-trace", path, "-metrics"}
	if code := run(args, &out, &errBuf); code != 0 {
		t.Fatalf("exit %d: %s", code, errBuf.String())
	}
	if !strings.Contains(out.String(), "metrics: run") {
		t.Errorf("metrics report missing: %s", out.String())
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var tf struct {
		TraceEvents []map[string]any `json:"traceEvents"`
	}
	if err := json.Unmarshal(data, &tf); err != nil {
		t.Fatalf("trace is not valid JSON: %v", err)
	}
	var sawPut bool
	for _, ev := range tf.TraceEvents {
		if ev["name"] == "put" || ev["name"] == "get" {
			sawPut = true
			break
		}
	}
	if !sawPut {
		t.Errorf("GUPS trace has no put/get spans (%d events)", len(tf.TraceEvents))
	}
}
