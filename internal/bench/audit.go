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
// compare each measured virtual-clock makespan against what
// PlanCostShape predicted for the same plan, and report where the
// model is mispriced.
//
// The comparison has a unit subtlety the report must respect: the
// flat-shape coefficients (AlphaNs, BetaNsPerByte, ...) are calibrated
// in HOST nanoseconds — they price what the host pays to simulate a
// step, which is what AlgoAuto minimises on a flat fabric — while the
// per-link-class coefficients a grouped shape swaps in are calibrated
// on the VIRTUAL clock. Raw prediction/measurement ratios on flat
// fabrics therefore carry a systematic unit scale. Selection only
// needs relative order within a series, so the auditor fits one
// geometric-mean scale per {topo, collective, algorithm} series and
// reports both the raw relative error and the scale-normalised
// residual; the latter is the number that actually indicts the model.

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
	// PredictedNs is PlanCostShape's price for the compiled plan;
	// MeasuredCycles the lockstep (or free-running) virtual makespan
	// per invocation; MeasuredHostNs the host wall time alongside.
	PredictedNs    float64 `json:"predicted_ns"`
	MeasuredCycles float64 `json:"measured_cycles"`
	MeasuredHostNs float64 `json:"measured_host_ns"`
	// RelErr is predicted/measured − 1 against the virtual clock, raw
	// (unit scale included); ScaledErr the same after the series'
	// geometric-mean scale, the model-quality number.
	RelErr    float64 `json:"rel_err"`
	ScaledErr float64 `json:"scaled_err"`
}

// AuditSeries summarises one {topo, collective, algo} size series:
// the fitted prediction→measurement scale and α–β linear fits of both
// sides over bytes, whose residual comparison localises mispricing to
// the latency or the bandwidth term.
type AuditSeries struct {
	Topo       string `json:"topo"`
	Collective string `json:"collective"`
	Algo       string `json:"algo"`
	// Scale is the geometric mean of measured/predicted over the
	// series: the unit conversion between the model's coefficients and
	// the virtual clock. (Geometric, not least-squares: a quadratic
	// fit is dominated by the largest cell and would hide the small
	// cells' shape error inside the scale.)
	Scale float64 `json:"scale"`
	// Measured and predicted α–β fits: cost ≈ Alpha + Beta·bytes,
	// least squares over the size grid. Predicted values are
	// pre-scale (model units).
	MeasAlphaCycles float64 `json:"meas_alpha_cycles"`
	MeasBetaPerByte float64 `json:"meas_beta_per_byte"`
	PredAlphaNs     float64 `json:"pred_alpha_ns"`
	PredBetaPerByte float64 `json:"pred_beta_per_byte"`
	// MaxScaledErr is the series' worst |ScaledErr|.
	MaxScaledErr float64 `json:"max_scaled_err"`
}

// AuditReport is the full -audit output: the model identity it was
// run against, every cell, and the per-series summaries.
type AuditReport struct {
	PEs           int    `json:"pes"`
	Lockstep      bool   `json:"lockstep"`
	TuningVersion int    `json:"tuning_version"`
	TuningFabric  string `json:"tuning_fabric"`
	CalibratedAt  string `json:"tuning_calibrated_at,omitempty"`
	ChunkBytes    int    `json:"chunk_bytes,omitempty"`

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

// auditAlgos returns the fixed algorithms audited for a collective on
// a flat or grouped fabric: every registered planner that implements
// it, minus the opt-in scatter-allgather and degenerate direct, and
// minus the topology-scoped planners on flat fabrics (auto never
// picks them there, so their flat pricing is untestable dead weight).
func auditAlgos(op CollectiveOp, grouped bool) []core.Algorithm {
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
		if !grouped && (a == core.AlgoHier || a == core.AlgoPAT) {
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
		TuningFabric:  tn.Fabric,
		CalibratedAt:  tn.CalibratedAt,
		ChunkBytes:    core.ChunkBytes(),
	}

	const width = 8
	for _, topo := range topos {
		sh := topoShape(topo, pes)
		grouped := sh.PerNode > 0 && sh.PerNode < pes
		topoLabel := topo
		if topoLabel == "" {
			topoLabel = "flat"
		}
		for _, op := range colls {
			coll, _ := collOf(op)
			for _, algo := range auditAlgos(op, grouped) {
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
						// Small cells are cheap; average a few invocations
						// so one-off warmup (cold caches, first-touch) does
						// not masquerade as a latency-term error.
						iters = 4
					}
					pt, err := sweepCell(op, algo, pes, nelems, iters, topo, lockstep)
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
						PredictedNs:    pred,
						MeasuredCycles: pt.Cycles,
						MeasuredHostNs: pt.HostNs,
					}
					if pt.Cycles > 0 {
						cell.RelErr = pred/pt.Cycles - 1
					}
					rep.Cells = append(rep.Cells, cell)
				}
			}
		}
	}
	rep.fitSeries()
	return rep, nil
}

// fitSeries groups cells into {topo, collective, algo} series, fits
// the per-series scale and α–β lines, and back-fills each cell's
// ScaledErr.
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
		idx := groups[k]
		var logSum float64
		var logN int
		for _, i := range idx {
			c := &r.Cells[i]
			if c.PredictedNs > 0 && c.MeasuredCycles > 0 {
				logSum += math.Log(c.MeasuredCycles / c.PredictedNs)
				logN++
			}
		}
		s := 1.0
		if logN > 0 {
			s = math.Exp(logSum / float64(logN))
		}
		ser := AuditSeries{Topo: k.topo, Collective: k.coll, Algo: k.algo, Scale: s}
		var mx float64
		measPts := make([][2]float64, 0, len(idx))
		predPts := make([][2]float64, 0, len(idx))
		for _, i := range idx {
			c := &r.Cells[i]
			if c.MeasuredCycles > 0 {
				c.ScaledErr = s*c.PredictedNs/c.MeasuredCycles - 1
			}
			if a := math.Abs(c.ScaledErr); a > mx {
				mx = a
			}
			measPts = append(measPts, [2]float64{float64(c.Bytes), c.MeasuredCycles})
			predPts = append(predPts, [2]float64{float64(c.Bytes), c.PredictedNs})
		}
		ser.MaxScaledErr = mx
		ser.MeasAlphaCycles, ser.MeasBetaPerByte = linFit(measPts)
		ser.PredAlphaNs, ser.PredBetaPerByte = linFit(predPts)
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

// WorstCells returns the k cells with the largest |ScaledErr|, worst
// first.
func (r *AuditReport) WorstCells(k int) []AuditCell {
	cells := append([]AuditCell(nil), r.Cells...)
	sort.Slice(cells, func(i, j int) bool {
		return math.Abs(cells[i].ScaledErr) > math.Abs(cells[j].ScaledErr)
	})
	if k > len(cells) {
		k = len(cells)
	}
	return cells[:k]
}

// MaxScaledErr returns the worst |ScaledErr| across every cell — the
// number the CI warn gate compares against its threshold.
func (r *AuditReport) MaxScaledErr() float64 {
	var mx float64
	for _, c := range r.Cells {
		if a := math.Abs(c.ScaledErr); a > mx {
			mx = a
		}
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
	fmt.Fprintf(&b, "Tuning: version %d, fabric %q", r.TuningVersion, r.TuningFabric)
	if r.CalibratedAt != "" {
		fmt.Fprintf(&b, ", calibrated %s", r.CalibratedAt)
	}
	if r.ChunkBytes > 0 {
		fmt.Fprintf(&b, ", chunk %d B", r.ChunkBytes)
	}
	b.WriteString(".\n\n")
	b.WriteString("Raw err is predicted/measured−1 against the virtual clock and includes\n" +
		"the host-ns↔cycles unit scale on flat shapes; scaled err divides out one\n" +
		"geometric-mean scale per series and is the model-quality number.\n")

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
		b.WriteString("| collective | algo | bytes | predicted | measured (cyc) | raw err | scaled err |\n")
		b.WriteString("|---|---|---:|---:|---:|---:|---:|\n")
		for _, c := range r.Cells {
			if c.Topo != topo {
				continue
			}
			fmt.Fprintf(&b, "| %s | %s | %d | %.0f | %.0f | %+.1f%% | %+.1f%% |\n",
				c.Collective, c.Algo, c.Bytes, c.PredictedNs, c.MeasuredCycles,
				100*c.RelErr, 100*c.ScaledErr)
		}
	}

	b.WriteString("\n## Per-series α–β fits\n\n")
	b.WriteString("| topo | collective | algo | scale | meas α (cyc) | meas β (cyc/B) | pred α (ns) | pred β (ns/B) | max scaled err |\n")
	b.WriteString("|---|---|---|---:|---:|---:|---:|---:|---:|\n")
	for _, s := range r.Series {
		fmt.Fprintf(&b, "| %s | %s | %s | %.3f | %.0f | %.3f | %.0f | %.3f | %.1f%% |\n",
			s.Topo, s.Collective, s.Algo, s.Scale,
			s.MeasAlphaCycles, s.MeasBetaPerByte, s.PredAlphaNs, s.PredBetaPerByte,
			100*s.MaxScaledErr)
	}

	worst := r.WorstCells(5)
	b.WriteString("\n## Worst mispriced cells\n\n")
	for i, c := range worst {
		fmt.Fprintf(&b, "%d. %s/%s on %s, %d B: scaled err %+.1f%% (predicted %.0f, measured %.0f)\n",
			i+1, c.Collective, c.Algo, c.Topo, c.Bytes, 100*c.ScaledErr,
			c.PredictedNs, c.MeasuredCycles)
	}
	return b.String()
}
