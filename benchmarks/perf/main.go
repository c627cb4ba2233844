// Command perf is the repository's benchmark harness. It drives the
// simulator only through the public functions of internal/{mem,fabric,
// xbrtime,core,bench,obs}, checks every output against a sequential
// oracle, and reports on two clocks that are never mixed: virtual
// cycles from a lockstep pass and host time from a free-running pass.
//
//	perf --workload NAME --seed N --seconds S --trace 0|1   one run; the last line is its JSON result
//	perf -all [-reps N] [-seed N] [-seconds S]              every workload, each in its own process -> out/result.json
//	perf -compare A.json B.json                             apply the bounds to two result files
//	perf -manifest                                          print BENCHMARK.json
//
// See ../README.md.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"runtime"
	"sort"
)

// runSeconds is BENCHMARK.json's run_seconds: how long the timed pass
// of one run measures.
const runSeconds = 8

// hostThreads is GOMAXPROCS for every measured pass.
const hostThreads = 1

func main() {
	var (
		workloadName  = flag.String("workload", "", "workload to run (one of BENCHMARK.json's)")
		seed          = flag.Uint64("seed", 1, "seed of payload values and root order")
		secs          = flag.Float64("seconds", runSeconds, "length of the timed pass")
		trace         = flag.Int("trace", 0, "0: end-to-end metrics, observability off; 1: per-layer metrics from a traced run")
		outDir        = flag.String("out", "benchmarks/out", "directory for traces and merged results")
		all           = flag.Bool("all", false, "run every workload in its own process and merge the results")
		reps          = flag.Int("reps", 1, "with -all: end-to-end runs per workload, on seeds seed, seed+1, ...")
		commit        = flag.String("commit", "unknown", "with -all: commit recorded in the result")
		compare       = flag.Bool("compare", false, "compare two result files given as arguments")
		printManifest = flag.Bool("manifest", false, "print BENCHMARK.json")
	)
	flag.Parse()
	var err error
	switch {
	case *printManifest:
		var m []byte
		if m, err = manifest(runSeconds); err == nil {
			_, err = os.Stdout.Write(m)
		}
	case *compare:
		if flag.NArg() != 2 {
			err = fmt.Errorf("-compare needs two result files")
			break
		}
		var worse bool
		if worse, err = compareFiles(os.Stdout, flag.Arg(0), flag.Arg(1)); err == nil && worse {
			os.Exit(1)
		}
	case *all:
		var ok bool
		if ok, err = runAll(*outDir, *commit, *seed, *secs, *reps); err == nil && !ok {
			fmt.Fprintln(os.Stderr, "perf: an output failed its oracle check")
			os.Exit(1)
		}
	default:
		err = runOne(*workloadName, options{seed: *seed, seconds: *secs, trace: *trace != 0, outDir: *outDir})
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "perf:", err)
		os.Exit(2)
	}
}

// runOne is the driver's protocol: one workload, one process, metrics
// printed by name with their units, the JSON result on the last line.
func runOne(name string, opt options) error {
	w := findWorkload(name)
	if w == nil {
		return fmt.Errorf("unknown workload %q", name)
	}
	if opt.seconds <= 0 {
		return fmt.Errorf("-seconds must be positive")
	}
	// One host thread: the PE goroutines then hand off inside the Go
	// scheduler instead of waking each other across cores, which on a
	// shared 2-core machine is what made host times differ by 10-50 %
	// from run to run. What a second thread buys is reported by the
	// traced run as goruntime.wall_2p_over_1p.
	runtime.GOMAXPROCS(hostThreads)
	run := runEndToEnd
	if opt.trace {
		run = runTraced
	}
	res, err := run(w, opt)
	if err != nil {
		return fmt.Errorf("%s: %w", name, err)
	}
	printResult(w.name, res)
	line, err := json.Marshal(res)
	if err != nil {
		return err
	}
	fmt.Println(string(line))
	return nil
}

// printResult writes the human-readable form: notes, then one line per
// metric with its name, value and unit.
func printResult(workload string, res *runResult) {
	for _, n := range res.notes {
		fmt.Printf("# %s %s\n", workload, n)
	}
	names := make([]string, 0, len(res.Metrics))
	for name := range res.Metrics {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		m := res.Metrics[name]
		fmt.Printf("%-24s %-44s %18.6f %s\n", workload, name, m.Value, m.Unit)
	}
	fmt.Printf("# %s attempted %d failed %d\n", workload, res.Attempted, res.Failed)
}
