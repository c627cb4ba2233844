package core

import (
	"sort"
	"sync"
)

// The planner registry replaces the old Algorithm-enum switch: an
// algorithm is a named Planner that compiles plans for the collectives
// it implements, and new algorithms (a ring or PAT-style all-gather,
// say) register here without touching the per-collective entry points.

// Planner compiles communication plans for one algorithm family.
type Planner struct {
	// Name is the algorithm name callers select by (-algo on the
	// bench driver).
	Name Algorithm
	// Collectives lists the operations the planner implements.
	Collectives []Collective
	// Compile builds the plan for coll over n PEs in virtual-rank
	// space, or returns nil when the planner does not implement coll.
	Compile func(coll Collective, n int) *Plan
	// CompileSeg, when non-nil, builds the segmented (pipelined) form
	// of coll for a message split into the given number of segments; it
	// returns nil when the planner has no segmented form for coll, and
	// CompilePlanSeg then falls back to the unsegmented plan.
	CompileSeg func(coll Collective, n, segments int) *Plan
	// CompileShaped, when non-nil, builds the plan against a fabric
	// shape (CompilePlanFor): the hierarchical planners schedule
	// intra-node and inter-node phases separately. Flat shapes fall
	// back to Compile.
	CompileShaped func(coll Collective, n int, sh Shape) *Plan
	// Applies, when non-nil, narrows the planner to the calls its plans
	// are correct for: a call on n PEs moving nelems elements at the
	// given stride that it rejects falls back exactly as if the planner
	// did not implement the collective (resolveAlgorithm). Nil applies
	// to every call.
	Applies func(n, nelems, stride int) bool
}

// Supports reports whether the planner implements coll.
func (p *Planner) Supports(coll Collective) bool {
	for _, c := range p.Collectives {
		if c == coll {
			return true
		}
	}
	return false
}

var (
	regMu    sync.RWMutex
	registry = map[Algorithm]*Planner{}
)

// RegisterPlanner adds (or replaces) a planner under its name and
// invalidates cached auto decisions: the new planner is a candidate.
func RegisterPlanner(p *Planner) {
	regMu.Lock()
	registry[p.Name] = p
	regMu.Unlock()
	invalidateAuto()
}

// LookupPlanner resolves an algorithm name to its planner.
func LookupPlanner(name Algorithm) (*Planner, bool) {
	regMu.RLock()
	p, ok := registry[name]
	regMu.RUnlock()
	return p, ok
}

// PlannerNames lists the registered algorithm names, sorted.
func PlannerNames() []string {
	regMu.RLock()
	names := make([]string, 0, len(registry))
	for n := range registry {
		names = append(names, string(n))
	}
	regMu.RUnlock()
	sort.Strings(names)
	return names
}

func init() {
	RegisterPlanner(&Planner{
		Name: AlgoBinomial,
		Collectives: []Collective{
			CollBroadcast, CollReduce, CollScatter, CollGather,
			CollAllReduce, CollAllGather,
		},
		Compile:    compileBinomial,
		CompileSeg: compileBinomialSeg,
	})
	RegisterPlanner(&Planner{
		Name: AlgoLinear,
		Collectives: []Collective{
			CollBroadcast, CollReduce, CollScatter, CollGather,
		},
		Compile: compileLinear,
	})
	// The large-message broadcast is opt-in (decide never prices it). Its
	// chunks are contiguous by construction, and every PE must own at
	// least one element; other calls fall back to the binomial tree.
	RegisterPlanner(&Planner{
		Name:        AlgoScatterAllgather,
		Collectives: []Collective{CollBroadcast},
		Compile:     compileScatterAllgather,
		Applies:     func(n, nelems, stride int) bool { return stride == 1 && n > 1 && nelems >= n },
	})
	RegisterPlanner(&Planner{
		Name:        AlgoDirect,
		Collectives: []Collective{CollAlltoall},
		Compile:     compileDirect,
	})
}
