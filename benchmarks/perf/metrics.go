package main

import (
	"encoding/json"

	"xbgas/internal/obs"
)

// metricDef is one row of BENCHMARK.json. Bound is the share of the
// parent's median by which an end-to-end metric may worsen before a
// change counts as a regression; per-layer metrics have none.
type metricDef struct {
	Name   string
	Unit   string
	Better string
	Bound  float64
}

// endToEnd are the metrics a user of the simulator pays for, reported
// for every workload by a --trace 0 run. sim_* are on the virtual
// clock (lockstep pass), host_* on the host clock (timed pass,
// observability off).
//
// The bounds are sized on fifty runs per workload on a shared 2-core
// machine: each is at least three times the worst spread (interquartile
// range over median of ten runs on ten seeds) seen in a quiet quarter-hour,
// and above the worst seen in a noisy one (0.24, host_lockstep_us_per_op
// on gups_8pe). The sim metrics are exact for one seed; which roots a
// short lockstep pass visits moves sim_cycles_per_op by up to 1 % between
// seeds on scaleout_grouped_64pe.
var endToEnd = []metricDef{
	{"setup_s", "s", "lower", 0.25},
	{"sim_cycles_per_op", "cycles", "lower", 0.03},
	{"sim_auto_over_best", "ratio", "lower", 0.03},
	{"host_wall_us_per_op", "us", "lower", 0.25},
	{"host_cpu_us_per_op", "us", "lower", 0.25},
	{"host_lockstep_us_per_op", "us", "lower", 0.25},
	{"host_peak_rss_mib", "MiB", "lower", 0.10},
}

// exact reports whether the metric comes from the lockstep pass or a
// single-goroutine probe of the model, and so must repeat bit for bit
// for one seed: every virtual-cycle figure and the counts below.
func (d metricDef) exact() bool { return d.Unit == "cycles" || exactNames[d.Name] }

var exactNames = map[string]bool{
	"sim_auto_over_best":  true,
	"mem.accesses_per_op": true, "mem.tlb_miss_ratio": true, "mem.l1_miss_ratio": true, "mem.l2_miss_ratio": true,
	"fabric.msgs_per_op": true, "fabric.bytes_per_op": true, "fabric.intra_msg_share": true, "fabric.dropped": true,
	"xbrtime.puts_per_op": true, "xbrtime.gets_per_op": true, "xbrtime.put_elems_per_op": true,
	"xbrtime.get_elems_per_op": true, "xbrtime.barriers_per_op": true,
	"core.model_err_max": true, "bench.sim_mops": true, "bench.sim_mops_per_pe": true, "bench.verify_errors": true,
}

// critCats names the critical-path categories, indexed by obs.StepCat.
var critCats = [obs.NumStepCats]string{"overhead", "transfer", "data_wait", "flag_wait", "barrier_wait", "combine", "copy", "signal"}

// layers are the host self-time buckets, in the order they are printed.
var layers = []string{"mem", "fabric", "xbrtime", "core", "bench", "sim", "obs", "goruntime"}

// perLayer lists every per-layer metric, reported by a --trace 1 run.
// A metric attached to one workload's probes reads 0 on the others.
func perLayer() []metricDef {
	var d []metricDef
	add := func(unit, better string, names ...string) {
		for _, n := range names {
			d = append(d, metricDef{Name: n, Unit: unit, Better: better})
		}
	}
	// mem
	add("count", "lower", "mem.accesses_per_op")
	add("cycles", "lower", "mem.sim_cycles_per_op")
	add("ratio", "lower", "mem.tlb_miss_ratio", "mem.l1_miss_ratio", "mem.l2_miss_ratio", "mem.host_self_share")
	add("ns", "lower", "mem.touchrange_seq_host_ns_per_line", "mem.touch_random_host_ns")
	add("cycles", "lower", "mem.touchrange_seq_sim_cycles_per_line", "mem.touch_random_sim_cycles")
	// fabric
	add("count", "lower", "fabric.msgs_per_op")
	add("B", "lower", "fabric.bytes_per_op")
	add("cycles", "lower", "fabric.contention_cycles_per_op", "fabric.peak_queue_cycles")
	add("ratio", "higher", "fabric.intra_msg_share")
	add("count", "lower", "fabric.dropped")
	add("ratio", "lower", "fabric.host_self_share")
	add("ns", "lower", "fabric.host_ns_per_msg", "fabric.sendstream4096_host_ns_per_msg",
		"fabric.fetchstream4096_host_ns_per_msg", "fabric.send_host_ns")
	add("cycles", "lower", "fabric.sendstream4096_sim_cycles", "fabric.fetchstream4096_sim_cycles",
		"fabric.send_sim_cycles", "fabric.send_intra_sim_cycles", "fabric.send_inter_sim_cycles")
	// xbrtime
	add("count", "lower", "xbrtime.puts_per_op", "xbrtime.gets_per_op", "xbrtime.put_elems_per_op",
		"xbrtime.get_elems_per_op", "xbrtime.barriers_per_op")
	add("ratio", "lower", "xbrtime.host_self_share", "xbrtime.freerun_sim_skew")
	add("ns", "lower", "xbrtime.barrier8_host_ns", "xbrtime.flag_pingpong_host_ns", "xbrtime.put_elem_host_ns",
		"xbrtime.get_elem_host_ns", "xbrtime.put256_stride2_host_ns", "xbrtime.readelemschunk_host_ns_per_elem",
		"xbrtime.writeelemschunk_host_ns_per_elem", "xbrtime.putnb_elem_host_ns", "xbrtime.getnb_elem_host_ns")
	add("cycles", "lower", "xbrtime.barrier8_sim_cycles", "xbrtime.flag_pingpong_sim_cycles",
		"xbrtime.put_elem_sim_cycles", "xbrtime.get_elem_sim_cycles", "xbrtime.putchunk32k_sim_cycles",
		"xbrtime.getchunk32k_sim_cycles", "xbrtime.barrier64_sim_cycles")
	add("us", "lower", "xbrtime.putchunk32k_host_us", "xbrtime.getchunk32k_host_us", "xbrtime.copychunk32k_host_us",
		"xbrtime.put4096_host_us", "xbrtime.get4096_host_us", "xbrtime.barrier64_host_us")
	add("ms", "lower", "xbrtime.runtime_new64_host_ms")
	add("KiB", "lower", "xbrtime.rss_kib_per_pe")
	// core
	add("ratio", "lower", "core.host_self_share")
	for _, c := range critCats {
		better := "lower"
		if c == "transfer" {
			better = "higher"
		}
		add("ratio", better, "core.crit_"+c+"_share")
	}
	add("ratio", "lower", "core.model_err_max")
	for _, w := range workloads {
		for _, c := range w.cells {
			if c.kind != opBarrier {
				add("us", "lower", "core."+c.name+".host_us")
				add("cycles", "lower", "core."+c.name+".sim_cycles")
			}
		}
	}
	add("ns", "lower", "core.plan_lookup_host_ns", "core.plancost_host_ns",
		"core.combine_sum_i64_host_ns_per_elem", "core.combine_sum_f64_host_ns_per_elem")
	add("us", "lower", "core.plan_compile_hier64_host_us")
	// bench: the kernels and this harness
	add("Mops/s", "higher", "bench.sim_mops", "bench.sim_mops_per_pe")
	add("count", "lower", "bench.verify_errors")
	add("ratio", "lower", "bench.host_self_share", "bench.harness_self_share", "bench.fail_frac")
	add("us", "lower", "bench.host_wall_us_p50", "bench.host_wall_us_p90")
	add("count", "higher", "bench.samples")
	// sim + olb + isa
	add("ratio", "lower", "sim.host_self_share")
	// obs
	add("ratio", "lower", "obs.trace_overhead_frac", "obs.host_self_share")
	// goruntime
	add("ratio", "lower", "goruntime.host_self_share", "goruntime.gc_cpu_frac", "goruntime.wall_2p_over_1p")
	add("B", "lower", "goruntime.alloc_bytes_per_op")
	add("count", "lower", "goruntime.allocs_per_op")
	return d
}

// manifest renders BENCHMARK.json from the tables above, so the file
// and the harness cannot disagree; the self-test compares them.
func manifest(runSeconds int) ([]byte, error) {
	type wl struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	}
	type e2e struct {
		Name   string  `json:"name"`
		Unit   string  `json:"unit"`
		Better string  `json:"better"`
		Bound  float64 `json:"bound"`
	}
	type layer struct {
		Name   string `json:"name"`
		Unit   string `json:"unit"`
		Better string `json:"better"`
	}
	m := struct {
		Command    []string `json:"command"`
		Paths      []string `json:"paths"`
		RunSeconds int      `json:"run_seconds"`
		Workloads  []wl     `json:"workloads"`
		EndToEnd   []e2e    `json:"end_to_end"`
		PerLayer   []layer  `json:"per_layer"`
	}{
		Command:    []string{"bash", "benchmarks/run.sh"},
		Paths:      []string{"benchmarks"},
		RunSeconds: runSeconds,
	}
	for _, w := range workloads {
		m.Workloads = append(m.Workloads, wl{w.name, w.why})
	}
	for _, d := range endToEnd {
		m.EndToEnd = append(m.EndToEnd, e2e{d.Name, d.Unit, d.Better, d.Bound})
	}
	for _, d := range perLayer() {
		m.PerLayer = append(m.PerLayer, layer{d.Name, d.Unit, d.Better})
	}
	out, err := json.MarshalIndent(m, "", "  ")
	if err != nil {
		return nil, err
	}
	return append(out, '\n'), nil
}
