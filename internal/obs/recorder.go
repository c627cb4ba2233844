package obs

import (
	"fmt"
	"sync"
)

// Options selects which halves of the observability layer are live.
// Trace collects span events on tracks (for the timeline exporters);
// Metrics maintains counters and latency histograms. Either may be
// enabled independently: tracing costs memory proportional to the
// event count, metrics cost O(1) memory per PE.
type Options struct {
	Trace   bool
	Metrics bool
}

// Recorder is the root of the observability layer. One Recorder can
// observe several simulated clusters in sequence (a benchmark sweep
// attaches one Run per PE count); each Attach call registers a new Run
// with its own Perfetto process ID.
//
// Attach takes a mutex; everything on the hot path goes through the
// per-Run tracks and metrics, which are lock-free for their owners.
type Recorder struct {
	opts Options

	mu   sync.Mutex
	runs []*Run
	meta ModelMeta
}

// ModelMeta describes the cost-model configuration in effect while the
// recorder observed its runs. It is embedded in the exported trace
// header so analyzers (tools/tracelens) can refuse a trace whose model
// is not the one they price with.
type ModelMeta struct {
	TuningVersion int `json:"tuning_version"`
	ChunkBytes    int `json:"chunk_bytes"`
}

// SetModelMeta records the model configuration for the trace header.
// Call it once, before the trace is written; the CLI sets it from the
// machine description selection prices on.
func (r *Recorder) SetModelMeta(m ModelMeta) {
	r.mu.Lock()
	r.meta = m
	r.mu.Unlock()
}

// ModelMeta returns the recorded model configuration.
func (r *Recorder) ModelMeta() ModelMeta {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.meta
}

// NewRecorder builds a recorder with the given options. A recorder
// with neither option enabled records nothing but is still safe to
// attach.
func NewRecorder(opts Options) *Recorder {
	return &Recorder{opts: opts}
}

// Options returns the recorder's enabled halves.
func (r *Recorder) Options() Options { return r.opts }

// Runs returns the attached runs in attach order. Callers must not
// race it against Attach.
func (r *Recorder) Runs() []*Run {
	r.mu.Lock()
	defer r.mu.Unlock()
	return append([]*Run(nil), r.runs...)
}

// Run is the observability state of one simulated cluster: numPEs PE
// tracks (timeline rows), numPEs destination-NIC tracks for fabric
// stream bookings, and the matching metric sets. The zero Run is not
// useful; obtain one from Recorder.Attach.
type Run struct {
	rec   *Recorder
	pid   int
	label string
	npes  int

	peTracks    []*Track // nil entries when tracing is off
	fabTracks   []*Track // one per destination NIC, nil when tracing off
	fabCounters []*FabricCounters
	peSteps     []*StepLog // per-PE step logs, nil when tracing off
	peMet       []*PEMetrics
	fabMet      *FabricMetrics

	runMeta RunMeta
}

// RunMeta is the per-run header embedded in the exported trace: the
// cluster geometry the run simulated. The owning runtime fills it at
// construction.
type RunMeta struct {
	PEs           int    `json:"pes"`
	Topo          string `json:"topo"`
	Deterministic bool   `json:"deterministic"`
}

// SetMeta records the run's geometry for the trace header.
func (run *Run) SetMeta(m RunMeta) {
	if run == nil {
		return
	}
	run.runMeta = m
}

// Meta returns the run's recorded geometry.
func (run *Run) Meta() RunMeta {
	if run == nil {
		return RunMeta{}
	}
	return run.runMeta
}

// Attach registers a cluster of numPEs processing elements and returns
// its Run. label names the run in the exported timeline ("8 PEs",
// "gups"). Attach is called once per runtime construction, never on a
// hot path.
func (r *Recorder) Attach(label string, numPEs int) *Run {
	if numPEs < 0 {
		numPEs = 0
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	run := &Run{
		rec:   r,
		pid:   len(r.runs) + 1,
		label: label,
		npes:  numPEs,
	}
	run.peTracks = make([]*Track, numPEs)
	run.fabTracks = make([]*Track, numPEs)
	run.peMet = make([]*PEMetrics, numPEs)
	if r.opts.Trace {
		run.fabCounters = make([]*FabricCounters, numPEs)
		run.peSteps = make([]*StepLog, numPEs)
		for i := 0; i < numPEs; i++ {
			run.peTracks[i] = &Track{pid: run.pid, tid: i, name: fmt.Sprintf("PE %d", i)}
			run.fabTracks[i] = &Track{pid: run.pid, tid: numPEs + i, name: fmt.Sprintf("NIC %d", i)}
			run.fabCounters[i] = &FabricCounters{
				Queue: &CounterTrack{pid: run.pid, name: fmt.Sprintf("NIC %d queue", i), s0: "cycles"},
				Stall: &CounterTrack{pid: run.pid, name: fmt.Sprintf("NIC %d stall", i), s0: "intra", s1: "inter"},
				Load:  &CounterTrack{pid: run.pid, name: fmt.Sprintf("NIC %d load", i), s0: "intra", s1: "inter"},
			}
			run.peSteps[i] = &StepLog{rank: i}
		}
	}
	if r.opts.Metrics {
		for i := 0; i < numPEs; i++ {
			run.peMet[i] = &PEMetrics{}
		}
		run.fabMet = &FabricMetrics{}
	}
	r.runs = append(r.runs, run)
	return run
}

// Label returns the run's display label.
func (run *Run) Label() string { return run.label }

// NumPEs returns the run's PE count.
func (run *Run) NumPEs() int { return run.npes }

// PETrack returns rank's span track, or nil when tracing is disabled.
func (run *Run) PETrack(rank int) *Track {
	if run == nil || rank < 0 || rank >= len(run.peTracks) {
		return nil
	}
	return run.peTracks[rank]
}

// FabricTrack returns the track of destination NIC dst, or nil when
// tracing is disabled.
func (run *Run) FabricTrack(dst int) *Track {
	if run == nil || dst < 0 || dst >= len(run.fabTracks) {
		return nil
	}
	return run.fabTracks[dst]
}

// FabricTracks returns the destination-NIC tracks indexed by node (nil
// when tracing is disabled).
func (run *Run) FabricTracks() []*Track {
	if run == nil || !run.rec.opts.Trace {
		return nil
	}
	return run.fabTracks
}

// StepLog returns rank's step log, or nil when tracing is disabled.
func (run *Run) StepLog(rank int) *StepLog {
	if run == nil || rank < 0 || rank >= len(run.peSteps) {
		return nil
	}
	return run.peSteps[rank]
}

// PEMetrics returns rank's metric set, or nil when metrics are
// disabled.
func (run *Run) PEMetrics(rank int) *PEMetrics {
	if run == nil || rank < 0 || rank >= len(run.peMet) {
		return nil
	}
	return run.peMet[rank]
}

// FabricMetrics returns the run's fabric metric set, or nil when
// metrics are disabled.
func (run *Run) FabricMetrics() *FabricMetrics {
	if run == nil {
		return nil
	}
	return run.fabMet
}

// Args annotates a span or event with the simulation coordinates the
// trace viewers surface: the issuing virtual context, the peer it
// talked to, the collective tree round, and the element count. Peer
// and Round use -1 for "not applicable".
type Args struct {
	Rank   int    // issuing PE or node rank
	Peer   int    // partner rank (-1 when none)
	Round  int    // collective tree round (-1 outside a round)
	Nelems int    // elements moved (0 when meaningless)
	Label  string // compiled plan identity ("allreduce/ring[seg=4]"), "" when none
}

// NoPeer builds Args for a span with no partner or round.
func NoPeer(rank, nelems int) Args {
	return Args{Rank: rank, Peer: -1, Round: -1, Nelems: nelems}
}

// Event is one closed span on a track: [Start, End] in virtual cycles.
// Instant events have End == Start.
type Event struct {
	Name       string
	Start, End uint64 // virtual clock, cycles
	Args       Args
}

// Track is one timeline row: a PE or a destination NIC. Events are
// appended in Begin order; because the virtual clock of the owning
// context never moves backward, start timestamps are nondecreasing per
// owner. The exporter still sorts per track, so externally-locked
// multi-writer tracks (fabric NICs) are also safe.
type Track struct {
	pid, tid int
	name     string
	events   []Event
}

// Name returns the track's display name.
func (t *Track) Name() string { return t.name }

// Events returns the recorded events. The slice is the track's own
// backing store; callers must not mutate it and must not race it
// against recording.
func (t *Track) Events() []Event {
	if t == nil {
		return nil
	}
	return t.events
}

// Complete records an already-closed span. It is the one-call form for
// instrumentation sites that know both endpoints (a transfer whose
// completion time the cost model just computed). A nil track records
// nothing.
func (t *Track) Complete(name string, start, end uint64, a Args) {
	if t == nil {
		return
	}
	t.events = append(t.events, Event{Name: name, Start: start, End: end, Args: a})
}

// Span is a reusable handle to an open span. The zero Span is inert:
// End on it is a no-op and Open reports false. Spans are values — store
// them in locals or reuse one variable across loop iterations.
type Span struct {
	t     *Track
	idx   int32
	open  bool
	start uint64
}

// Begin opens a span on t at virtual time now and returns its handle.
// A nil track still yields a live handle carrying the start time, so
// metric-only configurations can measure durations without recording
// events.
func Begin(t *Track, name string, now uint64, a Args) Span {
	s := Span{start: now, open: true}
	if t != nil {
		t.events = append(t.events, Event{Name: name, Start: now, End: now, Args: a})
		s.t = t
		s.idx = int32(len(t.events) - 1)
	}
	return s
}

// End closes the span at virtual time now. Closing an inert or
// already-owned-by-nil-track span only returns; the handle may be
// reused by assigning a fresh Begin result.
func End(s Span, now uint64) {
	if s.t != nil {
		s.t.events[s.idx].End = now
	}
}

// Open reports whether the span came from a live Begin (even one on a
// nil track, where only the start time is carried).
func (s Span) Open() bool { return s.open }

// StartCycle returns the virtual time the span was opened at.
func (s Span) StartCycle() uint64 { return s.start }
