package obs

import (
	"encoding/json"
	"io"
	"os"
	"sort"
)

// traceEvent is one object of the Chrome trace-event format
// (https://docs.google.com/document/d/1CvAClvFfyA5R-PhYUmn5OOQtYMH4h6I0nSsKchNAySU):
// ph "X" is a complete span, ph "M" carries metadata such as process
// and thread names. Timestamps are microseconds; the virtual clock is
// cycles at the 1 GHz model clock (1 cycle = 1 ns), so ts = cycles/1e3
// with fractional microseconds preserving cycle resolution.
type traceEvent struct {
	Name string         `json:"name"`
	Ph   string         `json:"ph"`
	Pid  int            `json:"pid"`
	Tid  int            `json:"tid"`
	Ts   float64        `json:"ts"`
	Dur  *float64       `json:"dur,omitempty"`
	Args map[string]any `json:"args,omitempty"`
}

// traceFile is the JSON object format of a trace: Perfetto and
// chrome://tracing both accept it. OtherData is the format's free-form
// global metadata object; this exporter uses it to make traces
// self-describing (model/tuning identity, tool name).
type traceFile struct {
	TraceEvents     []traceEvent   `json:"traceEvents"`
	DisplayTimeUnit string         `json:"displayTimeUnit"`
	OtherData       map[string]any `json:"otherData,omitempty"`
}

// cyclesToUs converts model cycles (1 GHz: 1 cycle = 1 ns) to the
// trace format's microseconds.
func cyclesToUs(c uint64) float64 { return float64(c) / 1e3 }

// appendTrackEvents emits one track: a thread_name metadata record,
// then the track's spans sorted by start cycle (stable, so a parent
// span opened before its children at the same timestamp stays first
// and the viewers nest them correctly).
func appendTrackEvents(out []traceEvent, t *Track) []traceEvent {
	if t == nil {
		return out
	}
	out = append(out, traceEvent{
		Name: "thread_name", Ph: "M", Pid: t.pid, Tid: t.tid,
		Args: map[string]any{"name": t.name},
	})
	evs := make([]Event, len(t.events))
	copy(evs, t.events)
	sort.SliceStable(evs, func(i, j int) bool { return evs[i].Start < evs[j].Start })
	for _, ev := range evs {
		dur := cyclesToUs(ev.End - ev.Start)
		args := map[string]any{
			"rank":        ev.Args.Rank,
			"start_cycle": ev.Start,
			"end_cycle":   ev.End,
		}
		if ev.Args.Peer >= 0 {
			args["peer"] = ev.Args.Peer
		}
		if ev.Args.Round >= 0 {
			args["round"] = ev.Args.Round
		}
		if ev.Args.Nelems > 0 {
			args["nelems"] = ev.Args.Nelems
		}
		if ev.Args.Label != "" {
			args["plan"] = ev.Args.Label
		}
		out = append(out, traceEvent{
			Name: ev.Name, Ph: "X", Pid: t.pid, Tid: t.tid,
			Ts: cyclesToUs(ev.Start), Dur: &dur, Args: args,
		})
	}
	return out
}

// appendCounterEvents emits one counter track as "C" events, sorted by
// timestamp (multi-writer NIC counters can record out of global clock
// order under free-running execution). Empty tracks emit nothing.
func appendCounterEvents(out []traceEvent, ct *CounterTrack) []traceEvent {
	if ct == nil || len(ct.samples) == 0 {
		return out
	}
	samples := make([]CounterSample, len(ct.samples))
	copy(samples, ct.samples)
	sort.SliceStable(samples, func(i, j int) bool { return samples[i].Ts < samples[j].Ts })
	for _, s := range samples {
		args := map[string]any{ct.s0: s.V0}
		if ct.s1 != "" {
			args[ct.s1] = s.V1
		}
		out = append(out, traceEvent{
			Name: ct.name, Ph: "C", Pid: ct.pid,
			Ts: cyclesToUs(s.Ts), Args: args,
		})
	}
	return out
}

// traceEventList flattens every attached run into trace-event records:
// per-run process metadata (including the run_metadata header record),
// then one timeline row per PE, one per destination NIC, and the
// per-NIC counter tracks. Within each row, span timestamps are
// monotonically nondecreasing.
func (r *Recorder) traceEventList() []traceEvent {
	var out []traceEvent
	for _, run := range r.Runs() {
		out = append(out, traceEvent{
			Name: "process_name", Ph: "M", Pid: run.pid,
			Args: map[string]any{"name": run.label},
		})
		out = append(out, traceEvent{
			Name: "run_metadata", Ph: "M", Pid: run.pid,
			Args: map[string]any{
				"pes":           run.runMeta.PEs,
				"topo":          run.runMeta.Topo,
				"deterministic": run.runMeta.Deterministic,
			},
		})
		for _, t := range run.peTracks {
			out = appendTrackEvents(out, t)
		}
		for _, t := range run.fabTracks {
			out = appendTrackEvents(out, t)
		}
		for _, fc := range run.fabCounters {
			if fc == nil {
				continue
			}
			out = appendCounterEvents(out, fc.Queue)
			out = appendCounterEvents(out, fc.Stall)
			out = appendCounterEvents(out, fc.Load)
		}
	}
	return out
}

// WriteTrace writes the recorded timeline as Chrome trace-event JSON.
// The output loads directly in https://ui.perfetto.dev or
// chrome://tracing.
func (r *Recorder) WriteTrace(w io.Writer) error {
	meta := r.ModelMeta()
	f := traceFile{
		TraceEvents:     r.traceEventList(),
		DisplayTimeUnit: "ns",
		OtherData: map[string]any{
			"tool":           "xbgas-bench",
			"tuning_version": meta.TuningVersion,
			"chunk_bytes":    meta.ChunkBytes,
		},
	}
	if f.TraceEvents == nil {
		f.TraceEvents = []traceEvent{}
	}
	enc := json.NewEncoder(w)
	return enc.Encode(f)
}

// WriteTraceFile writes the timeline to path, creating or truncating
// it.
func (r *Recorder) WriteTraceFile(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := r.WriteTrace(f); err != nil {
		f.Close() //nolint:errcheck // write error wins
		return err
	}
	return f.Close()
}
