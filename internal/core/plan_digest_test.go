package core

import (
	"bufio"
	"crypto/sha256"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// planGridFile pins every plan the registry can compile over the grid
// below: one "sha256  key" line per plan, sha256sum(1) layout.
var planGridFile = filepath.Join("testdata", "plan_grid.sha256")

// planDigest hashes every field of a compiled plan — %+v walks the
// exported fields, label, the post-finalize step order and each round's
// actorStart/tail, and picks up any field added later.
func planDigest(p *Plan) string {
	return fmt.Sprintf("%x", sha256.Sum256([]byte(fmt.Sprintf("%+v", *p))))
}

// walkPlanGrid compiles the whole grid through the public compile entry
// points (so aliased unsegmented fallbacks and flat-shape fallbacks are
// covered too) and visits each plan with its key, in grid order.
func walkPlanGrid(t *testing.T, visit func(p *Plan, key string)) {
	t.Helper()
	sizes := []int{1, 2, 3, 4, 5, 6, 7, 8, 9, 12, 13, 16, 17, 24, 32, 48, 64, 96}
	add := func(p *Plan, err error, key string) {
		if err != nil {
			t.Fatalf("%s: %v", key, err)
		}
		visit(p, key)
	}
	for _, name := range PlannerNames() {
		algo := Algorithm(name)
		pl, _ := LookupPlanner(algo)
		for _, coll := range Collectives() {
			if !pl.Supports(coll) {
				continue
			}
			for _, n := range sizes {
				for _, seg := range []int{1, 2, 3, 32} {
					p, err := CompilePlanSeg(coll, algo, n, seg)
					add(p, err, fmt.Sprintf("%s/%s n=%d seg=%d", coll, algo, n, seg))
				}
				if pl.CompileShaped == nil {
					continue
				}
				for _, per := range []int{2, 3, 4, 8, 16} {
					p, err := CompilePlanFor(coll, algo, n, 1, Shape{PerNode: per})
					add(p, err, fmt.Sprintf("%s/%s n=%d per=%d", coll, algo, n, per))
				}
			}
		}
	}
}

// planGrid returns the digest line of every plan of the grid, in grid
// order.
func planGrid(t *testing.T) []string {
	var lines []string
	walkPlanGrid(t, func(p *Plan, key string) {
		lines = append(lines, planDigest(p)+"  "+key)
	})
	return lines
}

// TestPlansNeverTransferToSelf checks that no plan of the grid issues a
// put or get to its own actor. Such a step would be priced two ways:
// the executor moves it as a PE-local element copy (PE.Transfer sends
// a self target through CopyElems, for a Chunked plan too), while the
// dry run books it on the fabric through Timing.Put/Get like any
// remote transfer, so the two would drift apart without a trace.
func TestPlansNeverTransferToSelf(t *testing.T) {
	plans := 0
	walkPlanGrid(t, func(p *Plan, key string) {
		plans++
		for ri := range p.Rounds {
			for _, s := range p.Rounds[ri].Steps {
				if (s.Kind == StepPut || s.Kind == StepGet) && s.Peer == s.Actor {
					t.Errorf("%s: round %d: a %v by virtual rank %d to itself", key, ri, s.Kind, s.Actor)
					return
				}
			}
		}
	})
	if plans == 0 {
		t.Fatal("the plan grid is empty")
	}
}

// TestPlanGridDigest is the plan-identity contract (see build.go): the
// planners may be restructured freely as long as every compiled plan
// stays bit-identical to the pinned grid. A mismatch names each plan
// that moved. Regenerate with
//
//	UPDATE_PLAN_DIGEST=1 go test ./internal/core -run TestPlanGridDigest
//
// only in a change whose stated goal is to alter a plan.
func TestPlanGridDigest(t *testing.T) {
	checkGolden(t, planGridFile, "UPDATE_PLAN_DIGEST", "plan", planGrid(t))
}

// autoGridFile pins what AlgoAuto resolves to over the grid below: one
// "collective n=N per=P SIZE -> planner" line per decision.
var autoGridFile = filepath.Join("testdata", "auto_grid.txt")

// TestAutoDecisionGrid is the auto-selection analogue of
// TestPlanGridDigest: every auto-dispatched collective × {2, 3, 4, 5, 8,
// 12, 16} flat PEs and 64 PEs on grouped:8 × every power-of-two payload
// from 8 B to 1 MiB. Decisions are priced by decide directly, so the
// shared decision cache cannot leak in; a change that moves a plan's
// price far enough to flip a winner shows here as a line diff.
// Regenerate with
//
//	UPDATE_AUTO_GRID=1 go test ./internal/core -run TestAutoDecisionGrid
//
// only in a change whose stated goal is to move a decision.
func TestAutoDecisionGrid(t *testing.T) {
	if ChunkBytes() != 0 {
		t.Fatalf("chunk override %d set; the grid prices auto segmentation", ChunkBytes())
	}
	colls := []Collective{
		CollBroadcast, CollReduce, CollScatter, CollGather,
		CollAllReduce, CollAllGather, CollReduceScatter,
	}
	shapes := []struct{ n, per int }{{2, 0}, {3, 0}, {4, 0}, {5, 0}, {8, 0}, {12, 0}, {16, 0}, {64, 8}}
	const width = 8
	tn := CurrentTuning()
	var lines []string
	for _, coll := range colls {
		for _, s := range shapes {
			for bytes := 8; bytes <= 1<<20; bytes *= 2 {
				key := keyOf(coll, s.n, bytes/width, width, Shape{PerNode: s.per})
				dec := decide(key, tn, true)
				lines = append(lines, fmt.Sprintf("%s n=%d per=%d %s -> %s",
					coll, s.n, s.per, sizeLabel(bytes), dec.Winner))
			}
		}
	}
	checkGolden(t, autoGridFile, "UPDATE_AUTO_GRID", "decision", lines)
}

// sizeLabel renders a power-of-two byte count as B, KiB or MiB.
func sizeLabel(b int) string {
	switch {
	case b >= 1<<20:
		return fmt.Sprintf("%dMiB", b>>20)
	case b >= 1<<10:
		return fmt.Sprintf("%dKiB", b>>10)
	}
	return fmt.Sprintf("%dB", b)
}

// checkGolden compares got line by line with the pinned file, naming up
// to 20 lines that differ; with the update variable set it rewrites the
// file instead.
func checkGolden(t *testing.T, file, updateEnv, what string, got []string) {
	t.Helper()
	if os.Getenv(updateEnv) != "" {
		if err := os.MkdirAll(filepath.Dir(file), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(file, []byte(strings.Join(got, "\n")+"\n"), 0o644); err != nil {
			t.Fatal(err)
		}
		t.Logf("wrote %d lines to %s", len(got), file)
		return
	}
	f, err := os.Open(file)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	var want []string
	for sc := bufio.NewScanner(f); sc.Scan(); {
		want = append(want, sc.Text())
	}
	if len(got) != len(want) {
		t.Fatalf("grid has %d lines, %s pins %d", len(got), file, len(want))
	}
	moved := 0
	for i := range got {
		if got[i] != want[i] {
			if moved++; moved <= 20 {
				t.Errorf("%s changed: got %q, pinned %q", what, got[i], want[i])
			}
		}
	}
	if moved > 0 {
		t.Errorf("%d of %d lines differ from %s", moved, len(want), file)
	}
}
