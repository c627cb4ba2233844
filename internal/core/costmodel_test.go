package core

import (
	"reflect"
	"testing"
)

// The structural property a cost model exists for: at large payloads
// the bandwidth-optimal plans must price below the binomial tree, and
// the flat broadcast must price above it (the root serialises every
// byte).
func TestPlanCostOrdersLargeMessages(t *testing.T) {
	tn := CurrentTuning()
	const n, nelems, width = 8, 1 << 17, 8
	cost := func(coll Collective, algo Algorithm) float64 {
		seg := SelectSegments(coll, algo, n, nelems, width)
		p, err := CompilePlanSeg(coll, algo, n, seg)
		if err != nil {
			t.Fatalf("%s/%s: %v", coll, algo, err)
		}
		return PlanCostShape(p, tn, Shape{}, nelems, width)
	}
	if rab, bin := cost(CollAllReduce, AlgoRabenseifner), cost(CollAllReduce, AlgoBinomial); rab >= bin {
		t.Errorf("1MiB allreduce: rabenseifner %.0f >= binomial %.0f", rab, bin)
	}
	if ring, bin := cost(CollAllGather, AlgoRing), cost(CollAllGather, AlgoBinomial); ring >= bin {
		t.Errorf("1MiB allgather: ring %.0f >= binomial %.0f", ring, bin)
	}
	if bin, lin := cost(CollBroadcast, AlgoBinomial), cost(CollBroadcast, AlgoLinear); bin >= lin {
		t.Errorf("1MiB broadcast: binomial %.0f >= linear %.0f", bin, lin)
	}
}

// Auto decisions follow the machine description, not a table: on a
// fabric whose every hop costs ten million cycles the round count is
// all that matters and the allreduce pick can be no deeper than the
// ring, and pricing on the default machine again gives the default
// prices back (each description has its own pricing machine).
func TestAutoReactsToTuning(t *testing.T) {
	key := keyOf(CollAllReduce, 8, 1<<17, 8, Shape{})
	tn := CurrentTuning()
	before := decide(key, tn, false)
	if before.Winner != AlgoRabenseifner && before.Winner != AlgoRing {
		t.Fatalf("default machine picks %s, want a bandwidth-optimal planner", before.Winner)
	}
	slow := tn
	slow.Net.HopLatency = 1e7
	after := decide(key, slow, false)
	for i, c := range after.Candidates {
		if c.Cycles <= before.Candidates[i].Cycles {
			t.Errorf("%s: %d cycles on the slow fabric, %d on the default", c.Plan, c.Cycles, before.Candidates[i].Cycles)
		}
	}
	pAfter, _ := CompilePlan(CollAllReduce, after.Winner, key.n)
	pRing, _ := CompilePlan(CollAllReduce, AlgoRing, key.n)
	if pAfter.PipelineDepth() > pRing.PipelineDepth() {
		t.Errorf("latency-dominated machine picked %s (depth %d) over shallower plans", after.Winner, pAfter.PipelineDepth())
	}
	if again := decide(key, tn, false); !reflect.DeepEqual(again, before) {
		t.Errorf("default machine after the slow one: %+v, want %+v", again, before)
	}
}

// A size bucket is priced at its lower edge whoever asks first: 1 025 B
// and 2 047 B share one and resolve alike in either call order.
func TestAutoDecisionIgnoresCallOrder(t *testing.T) {
	defer invalidateAuto()
	const n, width = 8, 1
	for _, coll := range Collectives() {
		if d := ExplainAuto(coll, n, 2047, width, Shape{}); d.Nelems != 1024 {
			t.Fatalf("%s: a 2047 B call is priced at %d B, want 1024", coll, d.Nelems)
		}
		var got []Algorithm
		for _, sizes := range [][2]int{{1025, 2047}, {2047, 1025}} {
			invalidateAuto()
			for _, nelems := range sizes {
				got = append(got, AlgoAuto.Select(coll, n, nelems, width))
			}
		}
		for _, a := range got {
			if a != got[0] {
				t.Errorf("%s: decisions %v differ with call order", coll, got)
				break
			}
		}
	}
}
