// Package diff parses `go test -bench` output and compares two runs.
package diff

import (
	"encoding/json"
	"fmt"
	"os"
	"regexp"
	"sort"
	"strconv"
	"strings"
	"time"
)

// Bench is one parsed benchmark line. PEs and Topo are the benchmark's
// scale, parsed from its name (see scaleOf) and persisted in the JSON so
// reports state what fabric each number was measured on.
type Bench struct {
	Name     string  `json:"name"`
	PEs      int     `json:"pes,omitempty"`
	Topo     string  `json:"topo,omitempty"`
	NsPerOp  float64 `json:"ns_per_op"`
	BPerOp   float64 `json:"b_per_op,omitempty"`
	AllocsOp float64 `json:"allocs_per_op,omitempty"`
	MBPerSec float64 `json:"mb_per_s,omitempty"`
}

// Entry is one benchmark's before/after record.
type Entry struct {
	Name       string   `json:"name"`
	Old        *Bench   `json:"old,omitempty"`
	New        Bench    `json:"new"`
	Speedup    float64  `json:"speedup,omitempty"` // old ns/op ÷ new ns/op
	AllocDelta *float64 `json:"alloc_delta,omitempty"`
	// ScaleMismatch flags a baseline recorded at a different PE count or
	// topology than the current run: the numbers are not comparable, so
	// no speedup is computed and the table says why.
	ScaleMismatch string `json:"scale_mismatch,omitempty"`
}

// topoTokens are the topology markers recognised in benchmark names, in
// matching order. "Ring" is deliberately absent: name suffixes like
// Allreduce1MB8PERing name the ring *algorithm*, not a ring fabric.
var topoTokens = []string{"Dragonfly", "Grouped", "Torus", "Hypercube"}

var peRe = regexp.MustCompile(`(\d+)PE`)

// scaleOf parses a benchmark's scale from its name: the last "<n>PE"
// token gives the PE count, a topology token (Grouped, Torus, ...)
// gives the fabric, defaulting to flat when a PE count is present.
func scaleOf(name string) (pes int, topo string) {
	if m := peRe.FindAllStringSubmatch(name, -1); len(m) > 0 {
		pes, _ = strconv.Atoi(m[len(m)-1][1])
	}
	for _, t := range topoTokens {
		if strings.Contains(name, t) {
			return pes, strings.ToLower(t)
		}
	}
	if pes > 0 {
		topo = "flat"
	}
	return pes, topo
}

// Report is the full comparison, serialised to BENCH_*.json.
type Report struct {
	Label   string  `json:"label"`
	Entries []Entry `json:"benches"`
}

// Parse extracts benchmark lines from `go test -bench` output. A line
// looks like:
//
//	BenchmarkPutStream4096-8   598   415030 ns/op   78.95 MB/s   164 B/op   0 allocs/op
//
// The -N GOMAXPROCS suffix is stripped so runs from different hosts
// compare by benchmark name. A benchmark run several times (-count)
// is its median run by ns/op, the lower middle one for an even count,
// so one run slowed by the host does not stand for the benchmark.
func Parse(out []byte) (map[string]Bench, error) {
	runs := make(map[string][]Bench)
	for _, line := range strings.Split(string(out), "\n") {
		fields := strings.Fields(line)
		if len(fields) < 4 || !strings.HasPrefix(fields[0], "Benchmark") {
			continue
		}
		name := fields[0]
		if i := strings.LastIndex(name, "-"); i > 0 {
			if _, err := strconv.Atoi(name[i+1:]); err == nil {
				name = name[:i]
			}
		}
		b := Bench{Name: name}
		b.PEs, b.Topo = scaleOf(name)
		ok := false
		for i := 2; i+1 < len(fields); i += 2 {
			v, err := strconv.ParseFloat(fields[i], 64)
			if err != nil {
				continue
			}
			switch fields[i+1] {
			case "ns/op":
				b.NsPerOp = v
				ok = true
			case "B/op":
				b.BPerOp = v
			case "allocs/op":
				b.AllocsOp = v
			case "MB/s":
				b.MBPerSec = v
			}
		}
		if ok {
			runs[name] = append(runs[name], b)
		}
	}
	if len(runs) == 0 {
		return nil, fmt.Errorf("no benchmark lines found")
	}
	res := make(map[string]Bench, len(runs))
	for name, bs := range runs {
		sort.SliceStable(bs, func(i, j int) bool { return bs[i].NsPerOp < bs[j].NsPerOp })
		res[name] = bs[(len(bs)-1)/2]
	}
	return res, nil
}

// ParseBaseline extracts benchmarks from a baseline in either format:
// raw `go test -bench` output, or a Report JSON written by a previous
// benchdiff run (a BENCH_*.json file — its entries' "new" numbers are
// the baseline). JSON is detected by a leading '{'.
func ParseBaseline(out []byte) (map[string]Bench, error) {
	trimmed := strings.TrimSpace(string(out))
	if !strings.HasPrefix(trimmed, "{") {
		return Parse(out)
	}
	var r Report
	if err := json.Unmarshal(out, &r); err != nil {
		return nil, fmt.Errorf("baseline JSON: %w", err)
	}
	if len(r.Entries) == 0 {
		return nil, fmt.Errorf("baseline JSON has no benchmark entries")
	}
	res := make(map[string]Bench, len(r.Entries))
	for _, e := range r.Entries {
		b := e.New
		// Baselines written before the scale fields existed derive them
		// from the name, same as a fresh parse.
		if b.PEs == 0 && b.Topo == "" {
			b.PEs, b.Topo = scaleOf(b.Name)
		}
		res[e.Name] = b
	}
	return res, nil
}

// Compare builds a report from a baseline (may be nil/empty; raw bench
// output or a prior Report JSON) and a current run. label defaults to
// today's date.
func Compare(oldOut, newOut []byte, label string) (*Report, error) {
	newB, err := Parse(newOut)
	if err != nil {
		return nil, fmt.Errorf("new output: %w", err)
	}
	var oldB map[string]Bench
	if len(oldOut) > 0 {
		oldB, err = ParseBaseline(oldOut)
		if err != nil {
			return nil, fmt.Errorf("old output: %w", err)
		}
	}
	if label == "" {
		label = time.Now().Format("2006-01-02")
	}
	r := &Report{Label: label}
	names := make([]string, 0, len(newB))
	for n := range newB {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		e := Entry{Name: n, New: newB[n]}
		if o, found := oldB[n]; found {
			oc := o
			e.Old = &oc
			if o.PEs != e.New.PEs || o.Topo != e.New.Topo {
				e.ScaleMismatch = fmt.Sprintf("baseline %dPE/%s vs current %dPE/%s",
					o.PEs, orDash(o.Topo), e.New.PEs, orDash(e.New.Topo))
			} else {
				if e.New.NsPerOp > 0 {
					e.Speedup = o.NsPerOp / e.New.NsPerOp
				}
				d := e.New.AllocsOp - o.AllocsOp
				e.AllocDelta = &d
			}
		}
		r.Entries = append(r.Entries, e)
	}
	return r, nil
}

func orDash(s string) string {
	if s == "" {
		return "-"
	}
	return s
}

// Table renders the report for terminals. Entries whose baseline was
// recorded at a different scale print SCALE! in the speedup column and
// the mismatch detail after the row.
func (r *Report) Table() string {
	var b strings.Builder
	fmt.Fprintf(&b, "%-28s %6s %10s %14s %14s %9s %12s %12s\n",
		"benchmark", "PEs", "topo", "old ns/op", "new ns/op", "speedup", "old allocs", "new allocs")
	for _, e := range r.Entries {
		oldNs, oldAllocs, speed := "-", "-", "-"
		if e.Old != nil {
			oldNs = fmt.Sprintf("%.0f", e.Old.NsPerOp)
			oldAllocs = fmt.Sprintf("%.0f", e.Old.AllocsOp)
			if e.ScaleMismatch != "" {
				speed = "SCALE!"
			} else {
				speed = fmt.Sprintf("%.2fx", e.Speedup)
			}
		}
		pes := "-"
		if e.New.PEs > 0 {
			pes = strconv.Itoa(e.New.PEs)
		}
		fmt.Fprintf(&b, "%-28s %6s %10s %14s %14.0f %9s %12s %12.0f\n",
			e.Name, pes, orDash(e.New.Topo), oldNs, e.New.NsPerOp, speed, oldAllocs, e.New.AllocsOp)
		if e.ScaleMismatch != "" {
			fmt.Fprintf(&b, "  ^ not comparable: %s\n", e.ScaleMismatch)
		}
	}
	return b.String()
}

// Regressions returns the entries whose ns/op worsened by more than
// tol (a fraction: 0.10 = 10%) against their baseline. Entries without
// a baseline never count — adding a new benchmark cannot fail a gate.
// The CI regression gate (-max-regress) is built on this.
func (r *Report) Regressions(tol float64) []Entry {
	var out []Entry
	for _, e := range r.Entries {
		if e.Old == nil || e.Old.NsPerOp <= 0 || e.ScaleMismatch != "" {
			continue
		}
		if e.New.NsPerOp > e.Old.NsPerOp*(1+tol) {
			out = append(out, e)
		}
	}
	return out
}

// WriteJSON writes the report to path, replacing any previous content.
func (r *Report) WriteJSON(path string) error {
	data, err := json.MarshalIndent(r, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}
