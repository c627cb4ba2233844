package main

import (
	"encoding/json"
	"fmt"
	"io"
	"math"
	"os"
	"sort"
)

// setupFloorS is the absolute change in setup_s below which a relative
// bound is meaningless: set-up is tens of milliseconds on most workloads.
const setupFloorS = 0.05

func loadResult(path string) (*resultFile, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	f := &resultFile{}
	if err := json.Unmarshal(data, f); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return f, nil
}

// spread is the interquartile range of the runs as a share of their
// median; ok is false with fewer than four runs.
func spread(runs []float64) (s float64, ok bool) {
	if len(runs) < 4 {
		return 0, false
	}
	m := median(runs)
	if m == 0 {
		return 0, false
	}
	return (quantile(runs, 0.75) - quantile(runs, 0.25)) / m, true
}

// verdict applies d's bound to one workload's before (a) and after (b)
// values. worseBy is the relative change in the worse direction.
func verdict(d metricDef, a, b mergedMetric) (v string, worseBy float64) {
	if a.Value == 0 || a.Unit == "" || b.Unit == "" {
		return "unresolved", 0
	}
	worseBy = (b.Value - a.Value) / a.Value
	if d.Better == "higher" {
		worseBy = -worseBy
	}
	if d.Name == "setup_s" && math.Abs(b.Value-a.Value) < setupFloorS {
		return "same", worseBy
	}
	sa, okA := spread(a.Runs)
	sb, okB := spread(b.Runs)
	if okA && okB && (sa > d.Bound || sb > d.Bound) {
		// Too noisy for the bound: only a clean separation of every
		// run on one side from every run on the other decides.
		sign := 1.0
		if d.Better == "higher" {
			sign = -1
		}
		// badness: larger is worse whatever the metric's direction.
		badness := func(runs []float64) (lo, hi float64) {
			lo, hi = sign*runs[0], sign*runs[0]
			for _, r := range runs {
				lo, hi = min(lo, sign*r), max(hi, sign*r)
			}
			return lo, hi
		}
		loA, hiA := badness(a.Runs)
		loB, hiB := badness(b.Runs)
		switch {
		case hiB < loA:
			return "better", worseBy
		case loB > hiA:
			return "worse", worseBy
		}
		return "unresolved", worseBy
	}
	switch {
	case worseBy > d.Bound:
		return "worse", worseBy
	case worseBy < -d.Bound:
		return "better", worseBy
	}
	return "same", worseBy
}

// compareFiles prints, per workload, the verdict of every end-to-end
// metric between two result files, then whether the exact (lockstep)
// numbers are identical. It reports whether any verdict is "worse".
func compareFiles(w io.Writer, pathA, pathB string) (anyWorse bool, err error) {
	a, err := loadResult(pathA)
	if err != nil {
		return false, err
	}
	b, err := loadResult(pathB)
	if err != nil {
		return false, err
	}
	fmt.Fprintf(w, "A: %s (commit %s, seed %d, %d reps)\nB: %s (commit %s, seed %d, %d reps)\n",
		pathA, a.Meta.Commit, a.Meta.Seed, a.Meta.Reps, pathB, b.Meta.Commit, b.Meta.Seed, b.Meta.Reps)
	if a.Meta.Reps < 4 || b.Meta.Reps < 4 {
		fmt.Fprintln(w, "note: fewer than 4 runs a side, so run-to-run spread is unknown and no verdict can be \"unresolved\" for noise")
	}
	fmt.Fprintf(w, "\n%-24s", "workload")
	for _, d := range endToEnd {
		fmt.Fprintf(w, " %-26s", d.Name)
	}
	fmt.Fprintln(w)
	for _, wl := range workloads {
		ra, rb := a.Workloads[wl.name], b.Workloads[wl.name]
		fmt.Fprintf(w, "%-24s", wl.name)
		if ra == nil || rb == nil {
			fmt.Fprintln(w, " missing from one file: unresolved")
			continue
		}
		for _, d := range endToEnd {
			v, by := verdict(d, ra.Metrics[d.Name], rb.Metrics[d.Name])
			if rb.Failed > 0 {
				v = "worse" // a failed op misses every bound
			}
			anyWorse = anyWorse || v == "worse"
			fmt.Fprintf(w, " %-26s", fmt.Sprintf("%s (%+.1f%%)", v, 100*by))
		}
		fmt.Fprintf(w, " failed %d/%d -> %d/%d\n", ra.Failed, ra.Attempted, rb.Failed, rb.Attempted)
	}

	// A host-only change must leave every lockstep number untouched.
	var moved []string
	exact := map[string]bool{}
	for _, d := range append(append([]metricDef{}, endToEnd...), perLayer()...) {
		exact[d.Name] = d.exact()
	}
	for _, wl := range workloads {
		ra, rb := a.Workloads[wl.name], b.Workloads[wl.name]
		if ra == nil || rb == nil {
			continue
		}
		for name, ma := range ra.Metrics {
			if exact[name] && ma.Value != rb.Metrics[name].Value {
				moved = append(moved, fmt.Sprintf("  %s %s: %v -> %v %s", wl.name, name, ma.Value, rb.Metrics[name].Value, ma.Unit))
			}
		}
	}
	sort.Strings(moved)
	if a.Meta.Seed != b.Meta.Seed {
		fmt.Fprintln(w, "\nexact (lockstep) numbers: not comparable, the seeds differ")
	} else if len(moved) == 0 {
		fmt.Fprintln(w, "\nexact (lockstep) numbers: identical")
	} else {
		fmt.Fprintf(w, "\nexact (lockstep) numbers: %d differ\n", len(moved))
		for _, m := range moved {
			fmt.Fprintln(w, m)
		}
	}
	return anyWorse, nil
}
