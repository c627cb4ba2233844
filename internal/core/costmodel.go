package core

import (
	"math/bits"
	"sync"
	"sync/atomic"

	"xbgas/internal/fabric"
	"xbgas/internal/mem"
	"xbgas/internal/obs"
	"xbgas/internal/xbrtime"
)

// The cost model behind AlgoAuto is a dry run (dryrun.go): a plan costs
// what its replay on the modelled machine takes, in virtual cycles, the
// unit lockstep execution reports. Nothing is fitted and nothing is
// persisted; the only input besides the plan and the call is the
// machine description below. This file holds that description, the
// pricing entry points, and the argmin and decision cache of AlgoAuto.

// Tuning describes the machine a plan is priced on: everything of an
// xbrtime.Config that the clock arithmetic of a collective reads.
type Tuning struct {
	// Version numbers the description's schema in recorded artifacts.
	// 1 and 2 were tables of fitted coefficients; 3 is this one.
	Version int `json:"version"`
	// Fabric names the fabric model Net holds.
	Fabric string `json:"fabric"`
	// CalibratedAt is always empty: nothing is calibrated. The ledger
	// header prints the field.
	CalibratedAt string `json:"calibrated_at,omitempty"`

	// Net prices every message; Mem supplies the cache geometry and
	// latencies the per-line memory charge is derived from.
	Net fabric.Config `json:"net"`
	Mem mem.Config    `json:"mem"`
	// InflightDepth and UnrollThreshold shape pipelined streams, as in
	// xbrtime.Config.
	InflightDepth   int `json:"inflight_depth"`
	UnrollThreshold int `json:"unroll_threshold"`
	// Barrier is the world-barrier algorithm.
	Barrier xbrtime.BarrierAlgorithm `json:"barrier"`
}

// CurrentTuning returns the machine auto-selection prices on: a runtime
// with the default xbrtime.Config.
func CurrentTuning() Tuning {
	return Tuning{
		Version:         3,
		Fabric:          "default",
		Net:             fabric.DefaultConfig(),
		Mem:             mem.DefaultConfig(),
		InflightDepth:   xbrtime.DefaultInflightDepth,
		UnrollThreshold: xbrtime.DefaultUnrollThreshold,
		Barrier:         xbrtime.BarrierCentral,
	}
}

// pricers holds the cost-only machines behind PlanCostShape, one per
// {machine description, PE count, grouping}, built on first use and
// kept: a pricing reuses the fabric of the one before and allocates
// nothing. One lock serialises them.
var pricers struct {
	sync.Mutex
	m map[pricerKey]*dryRun
}

type pricerKey struct {
	tn     Tuning
	n, per int
}

// dryPrice is dryRun.price on the machine for (tn, p.NPEs, sh).
func dryPrice(p *Plan, tn Tuning, sh Shape, nelems, width int, bound uint64, logs []*obs.StepLog) uint64 {
	key := pricerKey{tn, p.NPEs, sh.grouping(p.NPEs)}
	pricers.Lock()
	defer pricers.Unlock()
	d := pricers.m[key]
	if d == nil {
		if pricers.m == nil {
			pricers.m = map[pricerKey]*dryRun{}
		}
		d = newDryRun(tn, key.n, key.per)
		pricers.m[key] = d
	}
	return d.price(p, nelems, width, bound, logs)
}

// PlanCostShape prices a plan for a call of nelems elements of width
// bytes on machine tn with the fabric shape sh: the completion interval
// of its dry run, in virtual cycles (see dryrun.go for what is replayed
// and under which entry conditions).
func PlanCostShape(p *Plan, tn Tuning, sh Shape, nelems, width int) float64 {
	return float64(dryPrice(p, tn, sh, nelems, width, 0, nil))
}

// PlanCriticalPath dry-runs the plan with step logs attached and
// returns the critical path obs extracts from them: where the priced
// cycles go, by the executor's own step categories.
func PlanCriticalPath(p *Plan, tn Tuning, sh Shape, nelems, width int) obs.CallPath {
	run := obs.NewRecorder(obs.Options{Trace: true}).Attach("dry run", p.NPEs)
	logs := make([]*obs.StepLog, p.NPEs)
	for v := range logs {
		logs[v] = run.StepLog(v)
	}
	dryPrice(p, tn, sh, nelems, width, 0, logs)
	path, _ := run.ExtractCallPath(0)
	return path
}

// Candidate is one planner AlgoAuto considered for a call.
type Candidate struct {
	Algo     Algorithm
	Segments int    // SelectSegments' factor for this planner
	Plan     string // the compiled plan's label
	Cycles   uint64 // the plan's dry-run price
}

// Decision is the record of one auto-selection: every candidate in
// name order and the winner among them.
type Decision struct {
	// Nelems is the size the candidates were priced at: the lower edge
	// of the call's size bucket (see autoKey).
	Nelems     int
	Candidates []Candidate
	Winner     Algorithm
}

// ExplainAuto reports how AlgoAuto resolves a call: every registered
// planner that implements the collective, each under its own
// segmentation, priced in full by the dry run at the canonical size of
// the call's bucket.
func ExplainAuto(coll Collective, nPEs, nelems, width int, sh Shape) Decision {
	return decide(keyOf(coll, nPEs, nelems, width, sh), CurrentTuning(), false)
}

// decide prices the candidates for a cached-decision key and picks the
// cheapest; ties resolve to the alphabetically first name so decisions
// are stable. With prune, a candidate's dry run is abandoned as soon as
// it cannot finish below the best price so far (its Cycles is then that
// bound). The large-message scatter+all-gather broadcast stays an
// explicit opt-in: it wins no priced cell (docs/PERF.md), and its
// Applies contract reads the stride, which decisions are not keyed on.
// The candidates share one machine that is not kept: a resident fabric
// is 64 KiB of live heap per NIC for the rest of the process (1 MiB of
// it moved GUPS's peak RSS by 9 %), and decisions are cached anyway.
func decide(key autoKey, tn Tuning, prune bool) Decision {
	nelems, sh := key.canonBytes()/key.width, Shape{PerNode: key.per}
	d := newDryRun(tn, key.n, key.per)
	dec := Decision{Nelems: nelems, Winner: AlgoBinomial}
	var best uint64
	for _, name := range PlannerNames() {
		algo := Algorithm(name)
		pl, ok := LookupPlanner(algo)
		if !ok || !pl.Supports(key.coll) || algo == AlgoScatterAllgather {
			continue
		}
		seg := SelectSegments(key.coll, algo, key.n, nelems, key.width)
		p, err := CompilePlanFor(key.coll, algo, key.n, seg, sh)
		if err != nil {
			continue
		}
		bound := best
		if !prune {
			bound = 0
		}
		c := Candidate{algo, seg, p.Label(), d.price(p, nelems, key.width, bound, nil)}
		if len(dec.Candidates) == 0 || c.Cycles < best {
			best, dec.Winner = c.Cycles, algo
		}
		dec.Candidates = append(dec.Candidates, c)
	}
	return dec
}

// The decision cache. Decisions are cached per {collective, PE count,
// payload log₂-bucket, element width, grouping} — one decision per size
// doubling — and each bucket is priced at its lower edge whatever size
// first asks, so a decision does not depend on call order (and a
// power-of-two payload is priced at its own size). The published table
// is immutable: a hit is one atomic load and a map read. Misses price
// under autoMu and publish a copy; the table is dropped when its inputs
// change — a new planner, or a -chunk override (which moves the
// segmented candidates).
type autoKey struct {
	coll  Collective
	n     int
	sz    int // bits.Len(payload bytes)
	width int // element bytes
	per   int // Shape.grouping
}

// canonBytes is the payload the bucket is priced at.
func (k autoKey) canonBytes() int {
	if k.sz == 0 {
		return 0
	}
	return 1 << (k.sz - 1)
}

func keyOf(coll Collective, nPEs, nelems, width int, sh Shape) autoKey {
	return autoKey{coll, nPEs, bits.Len(uint(nelems * width)), width, sh.grouping(nPEs)}
}

var (
	autoMu    sync.Mutex
	autoTable atomic.Pointer[map[autoKey]Algorithm]
)

// invalidateAuto drops every cached auto decision.
func invalidateAuto() {
	autoMu.Lock()
	autoTable.Store(nil)
	autoMu.Unlock()
}

// chooseAuto resolves AlgoAuto: the cached argmin of the dry run over
// the registered planners.
func chooseAuto(coll Collective, nPEs, nelems, width int, sh Shape) Algorithm {
	key := keyOf(coll, nPEs, nelems, width, sh)
	if t := autoTable.Load(); t != nil {
		if a, ok := (*t)[key]; ok {
			return a
		}
	}
	autoMu.Lock()
	defer autoMu.Unlock()
	next := map[autoKey]Algorithm{}
	if t := autoTable.Load(); t != nil {
		if a, ok := (*t)[key]; ok {
			return a // priced while this caller waited
		}
		for k, a := range *t {
			next[k] = a
		}
	}
	next[key] = decide(key, CurrentTuning(), true).Winner
	autoTable.Store(&next)
	return next[key]
}

// shapeOf projects a PE's fabric topology onto the planner Shape: the
// PEs-per-node grouping when the topology declares one, flat otherwise.
func shapeOf(pe *xbrtime.PE) Shape {
	return Shape{PerNode: pe.PEsPerNode()}
}
