package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"strconv"
	"strings"

	"xbgas/internal/core"
)

// resultFile is benchmarks/out/result.json and the checked-in
// baseline: one row of the performance ledger.
type resultFile struct {
	Meta      resultMeta                 `json:"meta"`
	Workloads map[string]*workloadResult `json:"workloads"`
}

type resultMeta struct {
	Commit     string      `json:"commit"`
	GoVersion  string      `json:"go_version"`
	NumCPU     int         `json:"nproc"`
	GOMAXPROCS int         `json:"gomaxprocs"`
	Seed       uint64      `json:"seed"`
	Seconds    float64     `json:"seconds"`
	Reps       int         `json:"reps"`
	Tuning     core.Tuning `json:"tuning"`
	ChunkBytes int         `json:"chunk_bytes_override"`
}

type workloadResult struct {
	Correct   bool `json:"correct"`
	Attempted int  `json:"attempted"`
	Failed    int  `json:"failed"`
	// Metrics holds every end-to-end and per-layer metric. An
	// end-to-end value is the median over the runs listed beside it.
	Metrics map[string]mergedMetric `json:"metrics"`
	Notes   []string                `json:"notes"`
}

type mergedMetric struct {
	Value float64   `json:"value"`
	Unit  string    `json:"unit"`
	Runs  []float64 `json:"runs,omitempty"`
}

// runAll runs every workload in its own process, one after another:
// reps end-to-end runs on consecutive seeds and one traced run. It
// merges them into outDir/result.json and prints the end-to-end table.
func runAll(outDir, commit string, seed uint64, secs float64, reps int) (ok bool, err error) {
	exe, err := os.Executable()
	if err != nil {
		return false, err
	}
	if reps < 1 {
		return false, fmt.Errorf("-reps must be at least 1")
	}
	file := resultFile{
		Meta: resultMeta{
			Commit: commit, GoVersion: runtime.Version(), NumCPU: runtime.NumCPU(),
			GOMAXPROCS: hostThreads, Seed: seed, Seconds: secs, Reps: reps,
			Tuning: core.CurrentTuning(), ChunkBytes: core.ChunkBytes(),
		},
		Workloads: map[string]*workloadResult{},
	}
	ok = true
	for _, w := range workloads {
		wr := &workloadResult{Correct: true, Metrics: map[string]mergedMetric{}}
		file.Workloads[w.name] = wr
		for rep := 0; rep <= reps; rep++ {
			trace, s := 0, seed+uint64(rep)
			if rep == reps {
				trace, s = 1, seed
			}
			res, notes, err := runChild(exe, outDir, w.name, s, secs, trace)
			if err != nil {
				return false, err
			}
			wr.Attempted += res.Attempted
			wr.Failed += res.Failed
			wr.Correct = wr.Correct && res.Correct
			if rep == 0 || trace == 1 {
				wr.Notes = append(wr.Notes, notes...)
			}
			for name, m := range res.Metrics {
				mm := wr.Metrics[name]
				mm.Unit = m.Unit
				mm.Runs = append(mm.Runs, m.Value)
				mm.Value = median(mm.Runs)
				if trace == 1 {
					mm.Runs = nil
				}
				wr.Metrics[name] = mm
			}
		}
		ok = ok && wr.Correct
	}
	if err := os.MkdirAll(outDir, 0o755); err != nil {
		return false, err
	}
	data, err := json.MarshalIndent(file, "", " ")
	if err != nil {
		return false, err
	}
	path := filepath.Join(outDir, "result.json")
	if err := os.WriteFile(path, append(data, '\n'), 0o644); err != nil {
		return false, err
	}
	printSummary(os.Stdout, &file)
	fmt.Printf("# wrote %s\n", path)
	return ok, nil
}

// runChild runs one workload in a fresh process and parses its output:
// note lines, metric lines (echoed), and the JSON result last.
func runChild(exe, outDir, workload string, seed uint64, secs float64, trace int) (*runResult, []string, error) {
	cmd := exec.Command(exe, "--workload", workload, "--seed", strconv.FormatUint(seed, 10),
		"--seconds", strconv.FormatFloat(secs, 'g', -1, 64), "--trace", strconv.Itoa(trace), "-out", outDir)
	cmd.Stderr = os.Stderr
	out, err := cmd.Output()
	if err != nil {
		return nil, nil, fmt.Errorf("%s --trace %d: %w", workload, trace, err)
	}
	var notes []string
	var last string
	sc := bufio.NewScanner(bytes.NewReader(out))
	sc.Buffer(nil, 1<<20)
	for sc.Scan() {
		last = sc.Text()
		if note, ok := strings.CutPrefix(last, "# "+workload+" "); ok {
			notes = append(notes, note)
		}
		if !strings.HasPrefix(last, "{") {
			fmt.Println(last)
		}
	}
	if err := sc.Err(); err != nil {
		return nil, nil, err
	}
	res := &runResult{}
	if err := json.Unmarshal([]byte(last), res); err != nil {
		return nil, nil, fmt.Errorf("%s --trace %d: result line: %w", workload, trace, err)
	}
	return res, notes, nil
}

// printSummary prints the end-to-end metrics of every workload side by
// side; the full per-metric listing was echoed while the runs went by.
func printSummary(w io.Writer, f *resultFile) {
	fmt.Fprintf(w, "\n%-26s", "end-to-end")
	for _, wl := range workloads {
		fmt.Fprintf(w, " %22s", wl.name)
	}
	fmt.Fprintln(w)
	for _, d := range endToEnd {
		fmt.Fprintf(w, "%-26s", d.Name+" ["+d.Unit+"]")
		for _, wl := range workloads {
			fmt.Fprintf(w, " %22.4f", f.Workloads[wl.name].Metrics[d.Name].Value)
		}
		fmt.Fprintln(w)
	}
	fmt.Fprintf(w, "%-26s", "fail_frac")
	for _, wl := range workloads {
		r := f.Workloads[wl.name]
		fmt.Fprintf(w, " %22.4f", float64(r.Failed)/float64(r.Attempted))
	}
	fmt.Fprintln(w)
}
