package core

import (
	"fmt"
	"strings"
	"testing"

	"xbgas/internal/xbrtime"
)

// entryArgs holds one call's arguments for any collective entry point;
// each entry point reads the fields its signature has.
type entryArgs struct {
	dt                   xbrtime.DType
	dest, src, work      uint64
	nelems, stride, root int
	msgs, disp           []int
	team                 *xbrtime.Team
}

// entryPoint is one public collective entry point. algo is the
// algorithm a *With call passes ("" for every other entry point);
// strided, rooted and vector say which arguments its signature takes.
type entryPoint struct {
	name                    string
	algo                    Algorithm
	strided, rooted, vector bool
	call                    func(pe *xbrtime.PE, algo Algorithm, a *entryArgs) error
}

func (e *entryPoint) String() string {
	if e.algo == "" {
		return e.name
	}
	return e.name + "(" + string(e.algo) + ")"
}

// withEntries are the seven *With calls, each with a pinned planner
// that implements its collective.
var withEntries = []entryPoint{
	{name: "BroadcastWith", algo: AlgoScatterAllgather, strided: true, rooted: true,
		call: func(pe *xbrtime.PE, algo Algorithm, a *entryArgs) error {
			return BroadcastWith(algo, pe, a.dt, a.dest, a.src, a.nelems, a.stride, a.root)
		}},
	{name: "ReduceWith", algo: AlgoLinear, strided: true, rooted: true,
		call: func(pe *xbrtime.PE, algo Algorithm, a *entryArgs) error {
			return ReduceWith(algo, pe, a.dt, OpSum, a.dest, a.src, a.nelems, a.stride, a.root)
		}},
	{name: "ScatterWith", algo: AlgoLinear, rooted: true, vector: true,
		call: func(pe *xbrtime.PE, algo Algorithm, a *entryArgs) error {
			return ScatterWith(algo, pe, a.dt, a.dest, a.src, a.msgs, a.disp, a.nelems, a.root)
		}},
	{name: "GatherWith", algo: AlgoLinear, rooted: true, vector: true,
		call: func(pe *xbrtime.PE, algo Algorithm, a *entryArgs) error {
			return GatherWith(algo, pe, a.dt, a.dest, a.src, a.msgs, a.disp, a.nelems, a.root)
		}},
	{name: "AllReduceWith", algo: AlgoRing, strided: true,
		call: func(pe *xbrtime.PE, algo Algorithm, a *entryArgs) error {
			return AllReduceWith(pe, algo, a.dt, OpSum, a.dest, a.src, a.nelems, a.stride)
		}},
	{name: "AllGatherWith", algo: AlgoPAT, vector: true,
		call: func(pe *xbrtime.PE, algo Algorithm, a *entryArgs) error {
			return AllGatherWith(pe, algo, a.dt, a.dest, a.src, a.msgs, a.disp, a.nelems)
		}},
	{name: "ReduceScatterWith", algo: AlgoRabenseifner,
		call: func(pe *xbrtime.PE, algo Algorithm, a *entryArgs) error {
			return ReduceScatterWith(pe, algo, a.dt, OpSum, a.dest, a.src, a.nelems)
		}},
}

// plainEntries are the paper's four calls, the §7 extensions and the
// team calls.
var plainEntries = []entryPoint{
	{name: "Broadcast", strided: true, rooted: true,
		call: func(pe *xbrtime.PE, _ Algorithm, a *entryArgs) error {
			return Broadcast(pe, a.dt, a.dest, a.src, a.nelems, a.stride, a.root)
		}},
	{name: "Reduce", strided: true, rooted: true,
		call: func(pe *xbrtime.PE, _ Algorithm, a *entryArgs) error {
			return Reduce(pe, a.dt, OpSum, a.dest, a.src, a.nelems, a.stride, a.root)
		}},
	{name: "Scatter", rooted: true, vector: true,
		call: func(pe *xbrtime.PE, _ Algorithm, a *entryArgs) error {
			return Scatter(pe, a.dt, a.dest, a.src, a.msgs, a.disp, a.nelems, a.root)
		}},
	{name: "Gather", rooted: true, vector: true,
		call: func(pe *xbrtime.PE, _ Algorithm, a *entryArgs) error {
			return Gather(pe, a.dt, a.dest, a.src, a.msgs, a.disp, a.nelems, a.root)
		}},
	{name: "AllReduce", strided: true,
		call: func(pe *xbrtime.PE, _ Algorithm, a *entryArgs) error {
			return AllReduce(pe, a.dt, OpSum, a.dest, a.src, a.nelems, a.stride)
		}},
	{name: "AllGather", vector: true,
		call: func(pe *xbrtime.PE, _ Algorithm, a *entryArgs) error {
			return AllGather(pe, a.dt, a.dest, a.src, a.msgs, a.disp, a.nelems)
		}},
	{name: "ReduceScatter",
		call: func(pe *xbrtime.PE, _ Algorithm, a *entryArgs) error {
			return ReduceScatter(pe, a.dt, OpSum, a.dest, a.src, a.nelems)
		}},
	{name: "Alltoall",
		call: func(pe *xbrtime.PE, _ Algorithm, a *entryArgs) error {
			return Alltoall(pe, a.dt, a.dest, a.src, a.nelems)
		}},
	{name: "TeamBroadcast", strided: true, rooted: true,
		call: func(pe *xbrtime.PE, _ Algorithm, a *entryArgs) error {
			return TeamBroadcast(pe, a.team, a.dt, a.dest, a.src, a.nelems, a.stride, a.root)
		}},
	{name: "TeamReduce", strided: true, rooted: true,
		call: func(pe *xbrtime.PE, _ Algorithm, a *entryArgs) error {
			return TeamReduce(pe, a.team, a.dt, OpSum, a.dest, a.src, a.work, a.nelems, a.stride, a.root)
		}},
}

// entryPoints lists every public collective entry point: each *With
// call under AlgoAuto and under its pinned planner, then the rest.
func entryPoints() []entryPoint {
	var eps []entryPoint
	for _, e := range withEntries {
		auto := e
		auto.algo = AlgoAuto
		eps = append(eps, auto, e)
	}
	return append(eps, plainEntries...)
}

// entryArgsOn allocates arguments every entry point accepts on pe's
// runtime: one int64 from rank 0's block, moved between disjoint
// symmetric words, with a separate team workspace. Collective: every PE
// must call it.
func entryArgsOn(pe *xbrtime.PE, team *xbrtime.Team) (entryArgs, error) {
	buf, err := pe.Malloc(8 * 3)
	msgs, disp := make([]int, pe.NumPEs()), make([]int, pe.NumPEs())
	msgs[0] = 1
	return entryArgs{
		dt: xbrtime.TypeInt64, dest: buf, src: buf + 8, work: buf + 16,
		nelems: 1, stride: 1, root: 0,
		msgs: msgs, disp: disp, team: team,
	}, err
}

// onePE returns the single PE of a 1-PE runtime, which can make any
// collective call from the test goroutine, and good arguments for it.
func onePE(t *testing.T) (*xbrtime.PE, entryArgs) {
	t.Helper()
	rt := xbrtime.MustNew(xbrtime.Config{NumPEs: 1})
	t.Cleanup(func() { rt.Close() })
	pe := rt.PE(0)
	a, err := entryArgsOn(pe, rt.WorldTeam())
	if err != nil {
		t.Fatal(err)
	}
	return pe, a
}

// callEntry makes one call, turning a panic into an error.
func callEntry(pe *xbrtime.PE, e *entryPoint, a *entryArgs) (err error) {
	defer func() {
		if r := recover(); r != nil {
			err = fmt.Errorf("panic: %v", r)
		}
	}()
	return e.call(pe, e.algo, a)
}

// Every entry point validates its arguments before anything resolves
// auto, compiles or prices a plan: each bad argument its signature can
// carry returns a core: error instead of panicking in the cost model or
// the dry run.
func TestEntryPointsRejectBadArgs(t *testing.T) {
	const n = 2
	cases := []struct {
		name    string
		applies func(e *entryPoint) bool
		spoil   func(a *entryArgs)
	}{
		{"zero dtype", func(*entryPoint) bool { return true }, func(a *entryArgs) { a.dt = xbrtime.DType{} }},
		{"nelems=-1", func(*entryPoint) bool { return true }, func(a *entryArgs) { a.nelems = -1 }},
		{"stride=0", func(e *entryPoint) bool { return e.strided }, func(a *entryArgs) { a.stride = 0 }},
		{"root=n", func(e *entryPoint) bool { return e.rooted }, func(a *entryArgs) { a.root = n }},
		{"short pe_msgs", func(e *entryPoint) bool { return e.vector }, func(a *entryArgs) { a.msgs = a.msgs[:n-1] }},
	}
	// Lockstep: a bad call that slipped through validation and left the
	// PEs waiting on each other fails with a stall report, not a hang.
	rt := xbrtime.MustNew(xbrtime.Config{NumPEs: n, Deterministic: true})
	defer rt.Close()
	team := rt.WorldTeam()
	err := rt.Run(func(pe *xbrtime.PE) error {
		good, err := entryArgsOn(pe, team)
		if err != nil {
			return err
		}
		for _, e := range entryPoints() {
			for _, c := range cases {
				if !c.applies(&e) {
					continue
				}
				a := good
				c.spoil(&a)
				err := callEntry(pe, &e, &a)
				if (err == nil || !strings.HasPrefix(err.Error(), "core: ")) && pe.MyPE() == 0 {
					t.Errorf("%s, %s: got %v, want a core: error", &e, c.name, err)
				}
			}
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}
