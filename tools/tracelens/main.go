// Command tracelens replays recorded observability artifacts against
// the collective cost model.
//
// Trace mode re-prices a Perfetto timeline:
//
//	tracelens -trace trace.json [-force] [-json out.json]
//
// Every collective span that carries a "plan" arg (the compiled plan
// identity xbgas-bench exports) is grouped per {run, plan, payload},
// the plan is recompiled for the run's recorded geometry, and the
// measured virtual cost is compared against PlanCostShape, the plan's
// dry run. The trace header's model identity (machine-description
// version, chunk override) must match what tracelens prices with; a
// mismatch is refused loudly unless -force, because comparing a trace
// against a machine it was not recorded on produces numbers that look
// like model error but are just skew.
//
// Audit mode gates on an xbgas-bench -audit-json report:
//
//	tracelens -audit audit.json [-warn 0.25] [-strict]
//
// Cells whose relative error exceeds the -warn threshold are listed;
// -strict makes any such cell a non-zero exit (the CI gate).
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"sort"
	"strconv"
	"strings"

	"xbgas/internal/bench"
	"xbgas/internal/core"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("tracelens", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		tracePath = fs.String("trace", "", "Perfetto trace JSON to re-price against the cost model")
		force     = fs.Bool("force", false, "analyze even when the trace's model identity mismatches the machine priced on")
		jsonOut   = fs.String("json", "", "write the trace analysis as JSON to `file`")
		auditPath = fs.String("audit", "", "xbgas-bench -audit-json report to threshold-check")
		warn      = fs.Float64("warn", 0.25, "audit mode: flag cells whose |err| exceeds this fraction")
		strict    = fs.Bool("strict", false, "audit mode: exit nonzero when any cell exceeds -warn")
	)
	if err := fs.Parse(args); err != nil {
		return 2
	}
	switch {
	case *auditPath != "":
		return runAuditGate(*auditPath, *warn, *strict, stdout, stderr)
	case *tracePath != "":
		return runTraceLens(*tracePath, *force, *jsonOut, stdout, stderr)
	}
	fs.Usage()
	return 2
}

// ---- audit gate mode ----

func runAuditGate(path string, warn float64, strict bool, stdout, stderr io.Writer) int {
	data, err := os.ReadFile(path)
	if err != nil {
		fmt.Fprintf(stderr, "tracelens: %v\n", err)
		return 1
	}
	var rep bench.AuditReport
	if err := json.Unmarshal(data, &rep); err != nil {
		fmt.Fprintf(stderr, "tracelens: parsing audit report %s: %v\n", path, err)
		return 1
	}
	var bad []bench.AuditCell
	for _, c := range rep.Cells {
		if math.Abs(c.RelErr) > warn {
			bad = append(bad, c)
		}
	}
	sort.Slice(bad, func(i, j int) bool {
		return math.Abs(bad[i].RelErr) > math.Abs(bad[j].RelErr)
	})
	fmt.Fprintf(stdout, "audit %s: %d PEs, %d cells, worst |err| %.1f%%\n",
		path, rep.PEs, len(rep.Cells), 100*rep.MaxErr())
	if len(bad) == 0 {
		fmt.Fprintf(stdout, "no cell exceeds the %.0f%% threshold\n", 100*warn)
		return 0
	}
	fmt.Fprintf(stdout, "%d cells exceed the %.0f%% threshold:\n", len(bad), 100*warn)
	for _, c := range bad {
		fmt.Fprintf(stdout, "  %s/%s on %s, %d B: err %+.1f%% (predicted %.0f, measured %.0f cycles)\n",
			c.Collective, c.Algo, c.Topo, c.Bytes, 100*c.RelErr, c.Predicted, c.MeasuredCycles)
	}
	if strict {
		return 1
	}
	return 0
}

// ---- trace analysis mode ----

// traceIn mirrors the exporter's file format, loosely typed: tracelens
// only needs the span events with a "plan" arg, the per-run
// run_metadata records, and the otherData model identity.
type traceIn struct {
	TraceEvents []struct {
		Name string         `json:"name"`
		Ph   string         `json:"ph"`
		Pid  int            `json:"pid"`
		Args map[string]any `json:"args"`
	} `json:"traceEvents"`
	OtherData map[string]any `json:"otherData"`
}

// runGeo is a run's recorded geometry from its run_metadata record.
type runGeo struct {
	pes  int
	topo string
}

// planCell aggregates the spans of one {run, plan label, payload}.
type planCell struct {
	Pid    int    `json:"pid"`
	Plan   string `json:"plan"`
	Topo   string `json:"topo"`
	PEs    int    `json:"pes"`
	Nelems int    `json:"nelems"`
	Spans  int    `json:"spans"`
	// MeasuredCycles is the per-invocation makespan estimate: the
	// per-rank mean span duration, maximised over ranks.
	MeasuredCycles float64 `json:"measured_cycles"`
	Predicted      float64 `json:"predicted_cycles"`
	RelErr         float64 `json:"rel_err"`

	perRank map[int]*rankAgg
}

type rankAgg struct {
	cycles uint64
	n      int
}

type lensOut struct {
	Trace         string     `json:"trace"`
	TuningVersion int        `json:"tuning_version"`
	Cells         []planCell `json:"cells"`
}

func runTraceLens(path string, force bool, jsonOut string, stdout, stderr io.Writer) int {
	data, err := os.ReadFile(path)
	if err != nil {
		fmt.Fprintf(stderr, "tracelens: %v\n", err)
		return 1
	}
	var tf traceIn
	if err := json.Unmarshal(data, &tf); err != nil {
		fmt.Fprintf(stderr, "tracelens: parsing trace %s: %v\n", path, err)
		return 1
	}

	tn := core.CurrentTuning()
	if msg := modelMismatch(tf.OtherData, tn); msg != "" {
		if !force {
			fmt.Fprintf(stderr, "tracelens: REFUSING to analyze %s: %s\n"+
				"tracelens: the trace was recorded under a different cost model; "+
				"re-record it or pass -force to override\n",
				path, msg)
			return 1
		}
		fmt.Fprintf(stderr, "tracelens: warning: %s (continuing under -force; errors below include model skew)\n", msg)
	}

	geos := map[int]runGeo{}
	for _, ev := range tf.TraceEvents {
		if ev.Ph == "M" && ev.Name == "run_metadata" {
			geos[ev.Pid] = runGeo{
				pes:  asInt(ev.Args["pes"]),
				topo: asString(ev.Args["topo"]),
			}
		}
	}

	cells := map[string]*planCell{}
	var order []string
	for _, ev := range tf.TraceEvents {
		if ev.Ph != "X" {
			continue
		}
		plan := asString(ev.Args["plan"])
		if plan == "" {
			continue
		}
		nelems := asInt(ev.Args["nelems"])
		key := fmt.Sprintf("%d|%s|%d", ev.Pid, plan, nelems)
		c, ok := cells[key]
		if !ok {
			geo := geos[ev.Pid]
			c = &planCell{
				Pid: ev.Pid, Plan: plan, Topo: geo.topo, PEs: geo.pes,
				Nelems: nelems, perRank: map[int]*rankAgg{},
			}
			cells[key] = c
			order = append(order, key)
		}
		rank := asInt(ev.Args["rank"])
		agg := c.perRank[rank]
		if agg == nil {
			agg = &rankAgg{}
			c.perRank[rank] = agg
		}
		agg.cycles += uint64(asInt(ev.Args["end_cycle"]) - asInt(ev.Args["start_cycle"]))
		agg.n++
		c.Spans++
	}
	if len(cells) == 0 {
		fmt.Fprintf(stderr, "tracelens: %s has no collective spans with a plan identity (record it with xbgas-bench -trace)\n", path)
		return 1
	}

	out := lensOut{Trace: path, TuningVersion: tn.Version}
	for _, key := range order {
		c := cells[key]
		for _, agg := range c.perRank {
			if agg.n == 0 {
				continue
			}
			m := float64(agg.cycles) / float64(agg.n)
			if m > c.MeasuredCycles {
				c.MeasuredCycles = m
			}
		}
		c.Predicted = priceLabel(c.Plan, c.PEs, c.Nelems, c.Topo, tn)
		if c.MeasuredCycles > 0 && c.Predicted > 0 {
			c.RelErr = c.Predicted/c.MeasuredCycles - 1
		}
		c.perRank = nil
		out.Cells = append(out.Cells, *c)
	}

	fmt.Fprintf(stdout, "trace %s: %d plan cells (machine description v%d)\n", path, len(out.Cells), tn.Version)
	fmt.Fprintf(stdout, "%-36s %-16s %6s %8s %6s %14s %14s %9s\n",
		"plan", "topo", "pes", "nelems", "spans", "measured(cyc)", "predicted(cyc)", "err")
	for _, c := range out.Cells {
		errCell := "-"
		if c.Predicted > 0 && c.MeasuredCycles > 0 {
			errCell = fmt.Sprintf("%+.1f%%", 100*c.RelErr)
		}
		fmt.Fprintf(stdout, "%-36s %-16s %6d %8d %6d %14.0f %14.0f %9s\n",
			c.Plan, c.Topo, c.PEs, c.Nelems, c.Spans, c.MeasuredCycles, c.Predicted, errCell)
	}

	if jsonOut != "" {
		f, err := os.Create(jsonOut)
		if err != nil {
			fmt.Fprintf(stderr, "tracelens: %v\n", err)
			return 1
		}
		enc := json.NewEncoder(f)
		enc.SetIndent("", "  ")
		if err := enc.Encode(out); err != nil {
			f.Close() //nolint:errcheck // write error wins
			fmt.Fprintf(stderr, "tracelens: %v\n", err)
			return 1
		}
		if err := f.Close(); err != nil {
			fmt.Fprintf(stderr, "tracelens: %v\n", err)
			return 1
		}
	}
	return 0
}

// modelMismatch compares the trace header's model identity against the
// machine description tracelens will price with; "" means compatible.
func modelMismatch(other map[string]any, tn core.Tuning) string {
	if other == nil {
		return "trace has no otherData model identity (recorded by an older exporter?)"
	}
	if v := asInt(other["tuning_version"]); v != tn.Version {
		return fmt.Sprintf("trace tuning_version %d != machine description version %d", v, tn.Version)
	}
	if cb := asInt(other["chunk_bytes"]); cb != core.ChunkBytes() {
		return fmt.Sprintf("trace chunk_bytes %d != current chunk override %d", cb, core.ChunkBytes())
	}
	return ""
}

// priceLabel recompiles the plan a span's identity names —
// "collective/algo" or "collective/algo[seg=N]" — for the recorded
// geometry and prices it; 0 when the label does not resolve (foreign
// plan name, geometry the planner refuses).
func priceLabel(label string, pes, nelems int, topo string, tn core.Tuning) float64 {
	base := label
	seg := 1
	if i := strings.Index(base, "[seg="); i >= 0 {
		if j := strings.Index(base[i:], "]"); j >= 0 {
			if v, err := strconv.Atoi(base[i+5 : i+j]); err == nil {
				seg = v
			}
			base = base[:i]
		}
	}
	slash := strings.Index(base, "/")
	if slash < 0 || pes <= 0 {
		return 0
	}
	collName, algoName := base[:slash], base[slash+1:]
	var coll core.Collective
	found := false
	for _, c := range core.Collectives() {
		if c.String() == collName {
			coll, found = c, true
			break
		}
	}
	if !found {
		return 0
	}
	// The recorder stores the -topo spec when one was given; programmatic
	// topologies store a display name that may not parse and price as flat.
	sh := bench.TopoShape(topo, pes)
	p, err := core.CompilePlanFor(coll, core.Algorithm(algoName), pes, seg, sh)
	if err != nil {
		return 0
	}
	const width = 8 // every audited collective moves 8-byte elements
	return core.PlanCostShape(p, tn, sh, nelems, width)
}

func asInt(v any) int {
	switch x := v.(type) {
	case float64:
		return int(x)
	case int:
		return x
	case json.Number:
		n, _ := x.Int64()
		return int(n)
	}
	return 0
}

func asString(v any) string {
	s, _ := v.(string)
	return s
}
