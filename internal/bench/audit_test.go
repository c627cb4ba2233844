package bench

import (
	"bytes"
	"encoding/json"
	"math"
	"strings"
	"testing"

	"xbgas/internal/core"
)

// A small deterministic audit the structural assertions run against:
// one collective, two sizes, 4 PEs in lockstep, flat fabric only.
func smallAudit(t *testing.T) *AuditReport {
	t.Helper()
	rep, err := RunAudit(AuditOptions{
		PEs:   4,
		Topos: []string{""},
		Sizes: []int{64, 1024},
		Colls: []CollectiveOp{OpBroadcast},
	})
	if err != nil {
		t.Fatal(err)
	}
	return rep
}

func TestRunAuditStructure(t *testing.T) {
	rep := smallAudit(t)
	if !rep.Lockstep {
		t.Error("4-PE audit should run in lockstep")
	}
	if rep.PEs != 4 {
		t.Errorf("PEs = %d, want 4", rep.PEs)
	}
	if want := core.CurrentTuning().Version; rep.TuningVersion != want {
		t.Errorf("TuningVersion = %d, want %d", rep.TuningVersion, want)
	}
	if len(rep.Cells) == 0 {
		t.Fatal("audit produced no cells")
	}
	algos := map[string]bool{}
	for _, c := range rep.Cells {
		algos[c.Algo] = true
		if c.Collective != "broadcast" || c.Topo != "flat" || c.PEs != 4 {
			t.Errorf("unexpected cell coordinates: %+v", c)
		}
		if c.Bytes != c.Nelems*8 {
			t.Errorf("cell bytes %d != nelems %d * 8", c.Bytes, c.Nelems)
		}
		if c.Predicted <= 0 || c.MeasuredCycles <= 0 {
			t.Errorf("cell has non-positive cost: %+v", c)
		}
	}
	// Every planner is a candidate of auto on every shape, so every
	// planner is audited on every shape.
	for _, want := range []string{"binomial", "linear", "ring", "hierarchical"} {
		if !algos[want] {
			t.Errorf("flat broadcast audit is missing %s: %v", want, algos)
		}
	}
	if len(rep.Series) != len(algos) {
		t.Fatalf("audit produced %d series for %d planners", len(rep.Series), len(algos))
	}
}

func TestRunAuditDeterministicMeasurement(t *testing.T) {
	// Lockstep cells are schedule-independent: two runs must measure
	// identical virtual cycles for every cell.
	a, b := smallAudit(t), smallAudit(t)
	if len(a.Cells) != len(b.Cells) {
		t.Fatalf("cell counts differ: %d vs %d", len(a.Cells), len(b.Cells))
	}
	for i := range a.Cells {
		if a.Cells[i].MeasuredCycles != b.Cells[i].MeasuredCycles {
			t.Errorf("cell %s/%s n=%d: measured %v then %v — lockstep audit not deterministic",
				a.Cells[i].Collective, a.Cells[i].Algo, a.Cells[i].Nelems,
				a.Cells[i].MeasuredCycles, b.Cells[i].MeasuredCycles)
		}
	}
}

func TestAuditWorstCells(t *testing.T) {
	rep := smallAudit(t)
	for _, c := range rep.Cells {
		if want := c.Predicted/c.MeasuredCycles - 1; c.RelErr != want {
			t.Errorf("%s/%s %d B: RelErr %v, want predicted/measured-1 = %v", c.Collective, c.Algo, c.Bytes, c.RelErr, want)
		}
		// The dry run replays the plan the cell ran: a 4-PE broadcast it
		// misprices by a quarter would be a replay bug, not model error.
		if math.Abs(c.RelErr) > 0.25 {
			t.Errorf("%s/%s %d B: predicted %.0f vs measured %.0f cycles", c.Collective, c.Algo, c.Bytes, c.Predicted, c.MeasuredCycles)
		}
	}
	worst := rep.WorstCells(3)
	for i := 1; i < len(worst); i++ {
		if math.Abs(worst[i].RelErr) > math.Abs(worst[i-1].RelErr) {
			t.Error("WorstCells is not sorted by |err|")
		}
	}
	if got := rep.MaxErr(); len(worst) > 0 && got != math.Abs(worst[0].RelErr) {
		t.Errorf("MaxErr %v != worst cell %v", got, math.Abs(worst[0].RelErr))
	}
	for _, s := range rep.Series {
		if s.MaxErr > rep.MaxErr() {
			t.Errorf("series %s max err %v exceeds the report's %v", s.Algo, s.MaxErr, rep.MaxErr())
		}
	}
}

// TestAuditReportRendering is the golden-structure test for the two
// report formats: every section marker of the markdown and every JSON
// field tracelens -audit depends on.
func TestAuditReportRendering(t *testing.T) {
	rep := smallAudit(t)
	md := rep.Markdown()
	for _, want := range []string{
		"# Cost-model audit: 4 PEs (lockstep)",
		"Machine description version",
		"## Topology flat",
		"| collective | algo | bytes | predicted (cyc) | measured (cyc) | err |",
		"## Per-series α–β fits",
		"## Worst mispriced cells",
		"| broadcast | binomial |",
	} {
		if !strings.Contains(md, want) {
			t.Errorf("markdown missing %q:\n%s", want, md)
		}
	}

	var buf bytes.Buffer
	if err := rep.WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	var back AuditReport
	if err := json.Unmarshal(buf.Bytes(), &back); err != nil {
		t.Fatalf("JSON does not round-trip: %v", err)
	}
	if len(back.Cells) != len(rep.Cells) || len(back.Series) != len(rep.Series) {
		t.Errorf("round-trip lost rows: %d/%d cells, %d/%d series",
			len(back.Cells), len(rep.Cells), len(back.Series), len(rep.Series))
	}
	if back.Cells[0].RelErr != rep.Cells[0].RelErr || back.Cells[0].Predicted != rep.Cells[0].Predicted {
		t.Error("round-trip lost rel_err or predicted_cycles")
	}
}

func TestDefaultGroupedSpec(t *testing.T) {
	cases := []struct {
		pes  int
		want string
	}{
		{8, "grouped:4"},
		{256, "grouped:16"},
		{2, ""},
		{4, "grouped:2"},
	}
	for _, c := range cases {
		if got := defaultGroupedSpec(c.pes); got != c.want {
			t.Errorf("defaultGroupedSpec(%d) = %q, want %q", c.pes, got, c.want)
		}
	}
}

func TestLinFit(t *testing.T) {
	// y = 3 + 2x exactly.
	a, b := linFit([][2]float64{{1, 5}, {2, 7}, {4, 11}})
	if math.Abs(a-3) > 1e-9 || math.Abs(b-2) > 1e-9 {
		t.Errorf("linFit = (%v, %v), want (3, 2)", a, b)
	}
	if a, b := linFit(nil); a != 0 || b != 0 {
		t.Errorf("empty linFit = (%v, %v)", a, b)
	}
	// One distinct x: mean, slope 0.
	if a, b := linFit([][2]float64{{2, 4}, {2, 6}}); a != 5 || b != 0 {
		t.Errorf("degenerate linFit = (%v, %v), want (5, 0)", a, b)
	}
}
