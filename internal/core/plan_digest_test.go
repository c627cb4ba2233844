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

// planGrid compiles the whole grid through the public compile entry
// points (so aliased unsegmented fallbacks and flat-shape fallbacks are
// pinned too) and returns the digest lines in grid order.
func planGrid(t *testing.T) []string {
	t.Helper()
	sizes := []int{1, 2, 3, 4, 5, 6, 7, 8, 9, 12, 13, 16, 17, 24, 32, 48, 64, 96}
	var lines []string
	add := func(p *Plan, err error, key string) {
		if err != nil {
			t.Fatalf("%s: %v", key, err)
		}
		lines = append(lines, planDigest(p)+"  "+key)
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
	return lines
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
	got := planGrid(t)
	if os.Getenv("UPDATE_PLAN_DIGEST") != "" {
		if err := os.MkdirAll(filepath.Dir(planGridFile), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(planGridFile, []byte(strings.Join(got, "\n")+"\n"), 0o644); err != nil {
			t.Fatal(err)
		}
		t.Logf("wrote %d plan digests to %s", len(got), planGridFile)
		return
	}
	f, err := os.Open(planGridFile)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	var want []string
	for sc := bufio.NewScanner(f); sc.Scan(); {
		want = append(want, sc.Text())
	}
	if len(got) != len(want) {
		t.Fatalf("grid has %d plans, %s pins %d", len(got), planGridFile, len(want))
	}
	moved := 0
	for i := range got {
		if got[i] != want[i] {
			if moved++; moved <= 20 {
				t.Errorf("plan changed: got %q, pinned %q", got[i], want[i])
			}
		}
	}
	if moved > 0 {
		t.Errorf("%d of %d plans differ from the pinned grid", moved, len(want))
	}
}
