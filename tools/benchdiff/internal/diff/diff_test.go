package diff

import (
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

const oldOut = `goos: linux
goarch: amd64
pkg: xbgas/internal/bench
BenchmarkPutElem-8        	  100000	      1200.0 ns/op	       5 B/op	       2 allocs/op
BenchmarkPutStream4096-8  	     100	   1200000 ns/op	  27.31 MB/s	   65536 B/op	    4096 allocs/op
BenchmarkGUPS8PE-8        	      10	 100000000 ns/op	  500000 B/op	    9000 allocs/op
PASS
`

const newOut = `goos: linux
goarch: amd64
pkg: xbgas/internal/bench
BenchmarkPutElem-16       	  500000	       300.0 ns/op	       0 B/op	       0 allocs/op
BenchmarkPutStream4096-16 	     600	    400000 ns/op	  81.92 MB/s	     164 B/op	       0 allocs/op
BenchmarkGUPS8PE-16       	      30	  40000000 ns/op	  250000 B/op	    1000 allocs/op
BenchmarkGetElem-16       	  400000	       350.0 ns/op	       0 B/op	       0 allocs/op
PASS
`

func TestParse(t *testing.T) {
	got, err := Parse([]byte(newOut))
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 4 {
		t.Fatalf("parsed %d benches, want 4", len(got))
	}
	b := got["BenchmarkPutStream4096"]
	if b.NsPerOp != 400000 || b.AllocsOp != 0 || b.BPerOp != 164 || b.MBPerSec != 81.92 {
		t.Fatalf("bad parse: %+v", b)
	}
}

// TestParseTakesMedianRun pins how repeated runs (-count) of one
// benchmark collapse: to the median run by ns/op, its other fields
// with it, and to the lower middle run for an even count.
func TestParseTakesMedianRun(t *testing.T) {
	const out = `BenchmarkGUPS8PE-2   3   30000000 ns/op   300 B/op   3 allocs/op
BenchmarkGUPS8PE-2   3   10000000 ns/op   100 B/op   1 allocs/op
BenchmarkGUPS8PE-2   3   20000000 ns/op   200 B/op   2 allocs/op
BenchmarkPutElem-2   9   400 ns/op
BenchmarkPutElem-2   9   100 ns/op
BenchmarkPutElem-2   9   300 ns/op
BenchmarkPutElem-2   9   200 ns/op
`
	got, err := Parse([]byte(out))
	if err != nil {
		t.Fatal(err)
	}
	if b := got["BenchmarkGUPS8PE"]; b.NsPerOp != 20000000 || b.BPerOp != 200 || b.AllocsOp != 2 {
		t.Errorf("odd count: %+v, want the 20 ms run", b)
	}
	if b := got["BenchmarkPutElem"]; b.NsPerOp != 200 {
		t.Errorf("even count: %v ns/op, want the lower middle run, 200", b.NsPerOp)
	}
}

func TestParseRejectsEmpty(t *testing.T) {
	if _, err := Parse([]byte("no benchmarks here\n")); err == nil {
		t.Fatal("want error for output without benchmark lines")
	}
}

func TestCompare(t *testing.T) {
	r, err := Compare([]byte(oldOut), []byte(newOut), "test")
	if err != nil {
		t.Fatal(err)
	}
	if len(r.Entries) != 4 {
		t.Fatalf("got %d entries, want 4", len(r.Entries))
	}
	byName := map[string]Entry{}
	for _, e := range r.Entries {
		byName[e.Name] = e
	}
	e := byName["BenchmarkPutElem"]
	if e.Old == nil || e.Speedup < 3.99 || e.Speedup > 4.01 {
		t.Fatalf("PutElem speedup: %+v", e)
	}
	if d := *e.AllocDelta; d != -2 {
		t.Fatalf("PutElem alloc delta %v, want -2", d)
	}
	if g := byName["BenchmarkGetElem"]; g.Old != nil || g.Speedup != 0 {
		t.Fatalf("GetElem should have no baseline: %+v", g)
	}
}

func TestCompareWithoutBaseline(t *testing.T) {
	r, err := Compare(nil, []byte(newOut), "")
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range r.Entries {
		if e.Old != nil {
			t.Fatalf("unexpected baseline on %s", e.Name)
		}
	}
	if r.Label == "" {
		t.Fatal("label should default to the date")
	}
}

func TestParseBaselineJSON(t *testing.T) {
	// A BENCH_*.json report written by a prior run serves as the
	// baseline: its entries' "new" numbers are what we compare against.
	prior, err := Compare([]byte(oldOut), []byte(newOut), "prior")
	if err != nil {
		t.Fatal(err)
	}
	data, err := json.MarshalIndent(prior, "", "  ")
	if err != nil {
		t.Fatal(err)
	}
	base, err := ParseBaseline(data)
	if err != nil {
		t.Fatal(err)
	}
	if b := base["BenchmarkGUPS8PE"]; b.NsPerOp != 40000000 {
		t.Fatalf("JSON baseline GUPS ns/op = %v, want the prior run's new value", b.NsPerOp)
	}
	// Raw bench output still parses through the same entry point.
	raw, err := ParseBaseline([]byte(oldOut))
	if err != nil {
		t.Fatal(err)
	}
	if b := raw["BenchmarkGUPS8PE"]; b.NsPerOp != 100000000 {
		t.Fatalf("raw baseline GUPS ns/op = %v", b.NsPerOp)
	}
	// And Compare accepts the JSON form directly on the old side.
	r, err := Compare(data, []byte(newOut), "vs-json")
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range r.Entries {
		if e.Name == "BenchmarkGUPS8PE" && (e.Old == nil || e.Speedup < 0.99 || e.Speedup > 1.01) {
			t.Fatalf("self-comparison should be ~1x: %+v", e)
		}
	}
	if _, err := ParseBaseline([]byte("{\"label\":\"x\",\"benches\":[]}")); err == nil {
		t.Fatal("empty JSON baseline must error")
	}
}

func TestWriteJSONRoundTrip(t *testing.T) {
	r, err := Compare([]byte(oldOut), []byte(newOut), "rt")
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "BENCH_test.json")
	if err := r.WriteJSON(path); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var back Report
	if err := json.Unmarshal(data, &back); err != nil {
		t.Fatal(err)
	}
	if back.Label != "rt" || len(back.Entries) != len(r.Entries) {
		t.Fatalf("round trip mismatch: %+v", back)
	}
}

func TestRegressions(t *testing.T) {
	const base = `BenchmarkGUPS8PE-8    10   100000000 ns/op
BenchmarkBcast1MB8PE-8    50    20000000 ns/op
`
	cases := []struct {
		name    string
		current string
		tol     float64
		want    []string
	}{
		{
			// 50% slower GUPS trips a 10% gate; Bcast within tolerance.
			name: "regression caught",
			current: `BenchmarkGUPS8PE-8    10   150000000 ns/op
BenchmarkBcast1MB8PE-8    50    21000000 ns/op
`,
			tol:  0.10,
			want: []string{"BenchmarkGUPS8PE"},
		},
		{
			// 5% slower sits inside the 10% band.
			name: "within tolerance",
			current: `BenchmarkGUPS8PE-8    10   105000000 ns/op
BenchmarkBcast1MB8PE-8    50    20000000 ns/op
`,
			tol:  0.10,
			want: nil,
		},
		{
			// A benchmark with no baseline can never fail the gate,
			// however slow — that is how new benchmarks get seeded.
			name: "new benchmark exempt",
			current: `BenchmarkGUPS8PE-8    10   100000000 ns/op
BenchmarkBrandNew-8    1   999000000000 ns/op
`,
			tol:  0.10,
			want: nil,
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			r, err := Compare([]byte(base), []byte(tc.current), "gate")
			if err != nil {
				t.Fatal(err)
			}
			regs := r.Regressions(tc.tol)
			var got []string
			for _, e := range regs {
				got = append(got, e.Name)
			}
			if len(got) != len(tc.want) {
				t.Fatalf("regressions = %v, want %v", got, tc.want)
			}
			for i := range got {
				if got[i] != tc.want[i] {
					t.Fatalf("regressions = %v, want %v", got, tc.want)
				}
			}
		})
	}
}

func TestTableRenders(t *testing.T) {
	r, err := Compare([]byte(oldOut), []byte(newOut), "tbl")
	if err != nil {
		t.Fatal(err)
	}
	tab := r.Table()
	for _, want := range []string{"BenchmarkPutElem", "4.00x", "speedup"} {
		if !strings.Contains(tab, want) {
			t.Fatalf("table missing %q:\n%s", want, tab)
		}
	}
}

func TestScaleOf(t *testing.T) {
	cases := []struct {
		name string
		pes  int
		topo string
	}{
		{"BenchmarkGUPS8PE", 8, "flat"},
		{"BenchmarkAllreduce1MB8PEBinomial", 8, "flat"},
		{"BenchmarkAllreduce1MB64PEGrouped", 64, "grouped"},
		{"BenchmarkAllgather1MB256PETorus", 256, "torus"},
		{"BenchmarkAllreduce1MB8PERing", 8, "flat"}, // ring algorithm, flat fabric
		{"BenchmarkPutElem", 0, ""},
	}
	for _, c := range cases {
		pes, topo := scaleOf(c.name)
		if pes != c.pes || topo != c.topo {
			t.Errorf("scaleOf(%q) = %d/%q, want %d/%q", c.name, pes, topo, c.pes, c.topo)
		}
	}
}

func TestCompareScaleMismatch(t *testing.T) {
	// Same benchmark name, but the baseline JSON records it at another
	// scale: the comparison must be flagged, not silently averaged in.
	base := &Report{Label: "old", Entries: []Entry{{
		Name: "BenchmarkAllreduce1MBGrouped",
		New: Bench{Name: "BenchmarkAllreduce1MBGrouped", PEs: 64, Topo: "grouped",
			NsPerOp: 1000},
	}}}
	data, err := json.Marshal(base)
	if err != nil {
		t.Fatal(err)
	}
	// The current run's name carries no PE token, so it parses as a
	// different (unknown) scale.
	cur := "BenchmarkAllreduce1MBGrouped-8    100    3000 ns/op\n"
	r, err := Compare(data, []byte(cur), "mm")
	if err != nil {
		t.Fatal(err)
	}
	e := r.Entries[0]
	if e.ScaleMismatch == "" || e.Speedup != 0 {
		t.Fatalf("want scale mismatch, got %+v", e)
	}
	if regs := r.Regressions(0.10); len(regs) != 0 {
		t.Fatalf("mismatched scales must not gate: %+v", regs)
	}
	if tab := r.Table(); !strings.Contains(tab, "SCALE!") || !strings.Contains(tab, "not comparable") {
		t.Fatalf("table should flag the mismatch:\n%s", tab)
	}
}
