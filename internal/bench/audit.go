package bench

import (
	"encoding/json"
	"fmt"
	"io"
	"math"
	"sort"
	"strings"

	"xbgas/internal/core"
)

// Cost-model accuracy auditor (xbgas-bench -audit): replay a grid of
// {collective, algorithm, size, topology} cells on the simulator,
// compare each measured completion interval against what
// PlanCostShape — a dry run of the same plan — predicted, and report
// where the model is mispriced. Both sides are virtual cycles, so the
// raw relative error is the number: there is no unit scale to fit.
// Cells run warm (one untimed call first) because the dry run prices a
// warm machine.

// AuditSizes is the default payload grid, in 8-byte elements: one
// latency-bound point, one near the tuned crossovers, one
// bandwidth-bound.
var AuditSizes = []int{64, 1024, 16384}

// AuditCollectives is the default collective grid: the rooted
// broadcast plus the three rootless collectives with
// bandwidth-optimal planners, where mispricing moves selection.
var AuditCollectives = []CollectiveOp{OpBroadcast, OpAllReduce, OpAllGather, OpReduceScatter}

// auditLockstepMax is the largest PE count audited in deterministic
// lockstep mode: the default grid at 256 PEs (the CI smoke-256pe audit)
// takes 44 s of wall time on a 2-core box, against 28 s free-running,
// and repeats bit for bit. Above it the audit falls back to
// free-running measurement (still virtual-clock, just admitting
// scheduler-dependent overlap).
const auditLockstepMax = 256

// AuditOptions parameterises RunAudit. Zero values take defaults.
type AuditOptions struct {
	PEs   int            // PE count; default 8
	Topos []string       // -topo specs; default {"", defaultGroupedSpec(PEs)}
	Sizes []int          // payloads in elements; default AuditSizes
	Colls []CollectiveOp // default AuditCollectives
}

// AuditCell is one audited grid point.
type AuditCell struct {
	Collective string `json:"collective"`
	Algo       string `json:"algo"`
	Topo       string `json:"topo"` // "flat" or the -topo spec
	PEs        int    `json:"pes"`
	Nelems     int    `json:"nelems"`
	Bytes      int    `json:"bytes"`
	// Predicted is PlanCostShape's price for the compiled plan, in
	// cycles; MeasuredCycles the mean lockstep (or free-running)
	// completion interval of an invocation, first PE in to last PE out.
	Predicted      float64 `json:"predicted_cycles"`
	MeasuredCycles float64 `json:"measured_cycles"`
	// RelErr is predicted/measured − 1.
	RelErr float64 `json:"rel_err"`
}

// AuditSeries summarises one {topo, collective, algo} size series:
// α–β linear fits of both sides over bytes, whose comparison localises
// mispricing to the latency or the bandwidth term.
type AuditSeries struct {
	Topo       string `json:"topo"`
	Collective string `json:"collective"`
	Algo       string `json:"algo"`
	// Measured and predicted α–β fits: cost ≈ Alpha + Beta·bytes,
	// least squares over the size grid, in cycles.
	MeasAlpha       float64 `json:"meas_alpha_cycles"`
	MeasBetaPerByte float64 `json:"meas_beta_per_byte"`
	PredAlpha       float64 `json:"pred_alpha_cycles"`
	PredBetaPerByte float64 `json:"pred_beta_per_byte"`
	// MaxErr is the series' worst |RelErr|.
	MaxErr float64 `json:"max_err"`
}

// AuditReport is the full -audit output: the model identity it was
// run against, every cell, and the per-series summaries.
type AuditReport struct {
	PEs           int  `json:"pes"`
	Lockstep      bool `json:"lockstep"`
	TuningVersion int  `json:"tuning_version"`
	ChunkBytes    int  `json:"chunk_bytes,omitempty"`

	Cells  []AuditCell   `json:"cells"`
	Series []AuditSeries `json:"series"`
}

// defaultGroupedSpec picks the grouped topology the audit pairs with
// the flat fabric: near-square nodes, P = 2^⌈log₂(n)/2⌉ PEs per node
// (grouped:4 at 8 PEs, grouped:16 at 256).
func defaultGroupedSpec(pes int) string {
	if pes < 4 {
		return ""
	}
	p := 1 << ((core.CeilLog2(pes) + 1) / 2)
	if p >= pes {
		p = pes / 2
	}
	return fmt.Sprintf("grouped:%d", p)
}

// auditAlgos returns the fixed algorithms audited for a collective:
// every registered planner that implements it — each is a candidate of
// auto on every shape — minus the opt-in scatter-allgather and the
// degenerate direct.
func auditAlgos(op CollectiveOp) []core.Algorithm {
	coll, ok := collOf(op)
	if !ok {
		return nil
	}
	var algos []core.Algorithm
	for _, name := range core.PlannerNames() {
		a := core.Algorithm(name)
		if a == core.AlgoScatterAllgather || a == core.AlgoDirect {
			continue
		}
		if pl, ok := core.LookupPlanner(a); ok && pl.Supports(coll) {
			algos = append(algos, a)
		}
	}
	return algos
}

// RunAudit measures the audit grid and assembles the report. PE
// counts up to auditLockstepMax run in deterministic lockstep, so the
// measured makespans are schedule-independent and the comparison is
// exactly reproducible.
func RunAudit(opt AuditOptions) (*AuditReport, error) {
	pes := opt.PEs
	if pes <= 0 {
		pes = 8
	}
	topos := opt.Topos
	if topos == nil {
		topos = []string{""}
		if g := defaultGroupedSpec(pes); g != "" {
			topos = append(topos, g)
		}
	}
	sizes := opt.Sizes
	if len(sizes) == 0 {
		sizes = AuditSizes
	}
	colls := opt.Colls
	if len(colls) == 0 {
		colls = AuditCollectives
	}
	lockstep := pes <= auditLockstepMax
	tn := core.CurrentTuning()
	rep := &AuditReport{
		PEs:           pes,
		Lockstep:      lockstep,
		TuningVersion: tn.Version,
		ChunkBytes:    core.ChunkBytes(),
	}

	const width = 8
	for _, topo := range topos {
		sh := TopoShape(topo, pes)
		topoLabel := topo
		if topoLabel == "" {
			topoLabel = "flat"
		}
		for _, op := range colls {
			coll, _ := collOf(op)
			for _, algo := range auditAlgos(op) {
				for _, nelems := range sizes {
					seg := core.SelectSegments(coll, algo, pes, nelems, width)
					p, err := core.CompilePlanFor(coll, algo, pes, seg, sh)
					if err != nil || p == nil {
						// Planner declined this geometry (e.g. needs more
						// PEs); not a model error, just not a cell.
						continue
					}
					pred := core.PlanCostShape(p, tn, sh, nelems, width)
					iters := 1
					if nelems <= 1024 {
						// Small cells are cheap, and where in a congestion
						// window a short call starts moves its cost by a few
						// percent: average a few invocations.
						iters = 4
					}
					pt, err := sweepCell(op, algo, pes, nelems, iters, topo, lockstep, true)
					if err != nil {
						return nil, fmt.Errorf("bench: audit %s/%s n=%d topo=%q: %w",
							op, algo, nelems, topoLabel, err)
					}
					cell := AuditCell{
						Collective:     string(op),
						Algo:           string(algo),
						Topo:           topoLabel,
						PEs:            pes,
						Nelems:         nelems,
						Bytes:          nelems * width,
						Predicted:      pred,
						MeasuredCycles: pt.SpanCycles,
					}
					if pt.SpanCycles > 0 {
						cell.RelErr = pred/pt.SpanCycles - 1
					}
					rep.Cells = append(rep.Cells, cell)
				}
			}
		}
	}
	rep.fitSeries()
	return rep, nil
}

// fitSeries groups cells into {topo, collective, algo} series and fits
// the per-series α–β lines.
func (r *AuditReport) fitSeries() {
	type key struct{ topo, coll, algo string }
	groups := map[key][]int{}
	var order []key
	for i, c := range r.Cells {
		k := key{c.Topo, c.Collective, c.Algo}
		if _, ok := groups[k]; !ok {
			order = append(order, k)
		}
		groups[k] = append(groups[k], i)
	}
	for _, k := range order {
		ser := AuditSeries{Topo: k.topo, Collective: k.coll, Algo: k.algo}
		var measPts, predPts [][2]float64
		for _, i := range groups[k] {
			c := &r.Cells[i]
			ser.MaxErr = math.Max(ser.MaxErr, math.Abs(c.RelErr))
			measPts = append(measPts, [2]float64{float64(c.Bytes), c.MeasuredCycles})
			predPts = append(predPts, [2]float64{float64(c.Bytes), c.Predicted})
		}
		ser.MeasAlpha, ser.MeasBetaPerByte = linFit(measPts)
		ser.PredAlpha, ser.PredBetaPerByte = linFit(predPts)
		r.Series = append(r.Series, ser)
	}
}

// linFit is ordinary least squares y ≈ α + β·x over the points.
// Degenerate inputs (fewer than two distinct x) fit β = 0.
func linFit(pts [][2]float64) (alpha, beta float64) {
	n := float64(len(pts))
	if n == 0 {
		return 0, 0
	}
	var sx, sy, sxx, sxy float64
	for _, p := range pts {
		sx += p[0]
		sy += p[1]
		sxx += p[0] * p[0]
		sxy += p[0] * p[1]
	}
	den := n*sxx - sx*sx
	if den == 0 {
		return sy / n, 0
	}
	beta = (n*sxy - sx*sy) / den
	alpha = (sy - beta*sx) / n
	return alpha, beta
}

// WorstCells returns the k cells with the largest |RelErr|, worst
// first.
func (r *AuditReport) WorstCells(k int) []AuditCell {
	cells := append([]AuditCell(nil), r.Cells...)
	sort.Slice(cells, func(i, j int) bool {
		return math.Abs(cells[i].RelErr) > math.Abs(cells[j].RelErr)
	})
	if k > len(cells) {
		k = len(cells)
	}
	return cells[:k]
}

// MaxErr returns the worst |RelErr| across every cell — the number the
// CI gate compares against its threshold.
func (r *AuditReport) MaxErr() float64 {
	var mx float64
	for _, c := range r.Cells {
		mx = math.Max(mx, math.Abs(c.RelErr))
	}
	return mx
}

// WriteJSON writes the report as indented JSON.
func (r *AuditReport) WriteJSON(w io.Writer) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(r)
}

// Markdown renders the report as the -audit console/markdown output:
// model identity, per-topology cell tables, per-series α–β summary,
// and the worst mispriced cells.
func (r *AuditReport) Markdown() string {
	var b strings.Builder
	mode := "free-running"
	if r.Lockstep {
		mode = "lockstep"
	}
	fmt.Fprintf(&b, "# Cost-model audit: %d PEs (%s)\n\n", r.PEs, mode)
	fmt.Fprintf(&b, "Machine description version %d", r.TuningVersion)
	if r.ChunkBytes > 0 {
		fmt.Fprintf(&b, ", chunk %d B", r.ChunkBytes)
	}
	b.WriteString(".\n\n")
	b.WriteString("Predicted is the plan's dry run, measured the mean completion interval of\n" +
		"a warm invocation; both are virtual cycles and err is predicted/measured−1.\n")

	var topos []string
	seen := map[string]bool{}
	for _, c := range r.Cells {
		if !seen[c.Topo] {
			seen[c.Topo] = true
			topos = append(topos, c.Topo)
		}
	}
	for _, topo := range topos {
		fmt.Fprintf(&b, "\n## Topology %s\n\n", topo)
		b.WriteString("| collective | algo | bytes | predicted (cyc) | measured (cyc) | err |\n")
		b.WriteString("|---|---|---:|---:|---:|---:|\n")
		for _, c := range r.Cells {
			if c.Topo != topo {
				continue
			}
			fmt.Fprintf(&b, "| %s | %s | %d | %.0f | %.0f | %+.1f%% |\n",
				c.Collective, c.Algo, c.Bytes, c.Predicted, c.MeasuredCycles, 100*c.RelErr)
		}
	}

	b.WriteString("\n## Per-series α–β fits\n\n")
	b.WriteString("| topo | collective | algo | meas α (cyc) | meas β (cyc/B) | pred α (cyc) | pred β (cyc/B) | max err |\n")
	b.WriteString("|---|---|---|---:|---:|---:|---:|---:|\n")
	for _, s := range r.Series {
		fmt.Fprintf(&b, "| %s | %s | %s | %.0f | %.3f | %.0f | %.3f | %.1f%% |\n",
			s.Topo, s.Collective, s.Algo,
			s.MeasAlpha, s.MeasBetaPerByte, s.PredAlpha, s.PredBetaPerByte, 100*s.MaxErr)
	}

	b.WriteString("\n## Worst mispriced cells\n\n")
	for i, c := range r.WorstCells(5) {
		fmt.Fprintf(&b, "%d. %s/%s on %s, %d B: err %+.1f%% (predicted %.0f, measured %.0f)\n",
			i+1, c.Collective, c.Algo, c.Topo, c.Bytes, 100*c.RelErr, c.Predicted, c.MeasuredCycles)
	}
	return b.String()
}
