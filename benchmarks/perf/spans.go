package main

import (
	"encoding/json"
	"os"
	"sort"
	"time"
)

// spanRec is one harness-side span: a call the harness made into a
// layer. Times are host nanoseconds since the log was created. Parent
// is the id (index) of the span that caused it, -1 for a root.
type spanRec struct {
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
	Parent int    `json:"parent"`
}

// spanLog keeps spans in memory until the run ends. It is written by
// one goroutine at a time: PE 0 inside a pass, the main goroutine
// between passes.
type spanLog struct {
	t0    time.Time
	spans []spanRec
}

func newSpanLog() *spanLog { return &spanLog{t0: time.Now()} }

func (l *spanLog) begin(name string, parent int) int {
	l.spans = append(l.spans, spanRec{Name: name, Start: int64(time.Since(l.t0)), End: -1, Parent: parent})
	return len(l.spans) - 1
}

func (l *spanLog) end(id int) { l.spans[id].End = int64(time.Since(l.t0)) }

// selfShare returns, over every span called name, the share of its
// duration not covered by its direct children: the guide's self time.
func (l *spanLog) selfShare(name string) float64 {
	child := make([]int64, len(l.spans))
	for _, s := range l.spans {
		if s.Parent >= 0 {
			child[s.Parent] += s.End - s.Start
		}
	}
	var total, self int64
	for i, s := range l.spans {
		if s.Name == name {
			total += s.End - s.Start
			self += s.End - s.Start - child[i]
		}
	}
	if total == 0 {
		return 0
	}
	return float64(self) / float64(total)
}

// medianUs returns the median duration in microseconds of the spans
// called name.
func (l *spanLog) medianUs(name string) float64 {
	var d []float64
	for _, s := range l.spans {
		if s.Name == name {
			d = append(d, float64(s.End-s.Start)/1e3)
		}
	}
	return median(d)
}

func (l *spanLog) write(path string) error {
	data, err := json.Marshal(l.spans)
	if err != nil {
		return err
	}
	return os.WriteFile(path, data, 0o644)
}

func median(v []float64) float64 { return quantile(v, 0.5) }

// quantile is the q-quantile of v by linear interpolation between order
// statistics; 0 for an empty slice.
func quantile(v []float64, q float64) float64 {
	if len(v) == 0 {
		return 0
	}
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	pos := q * float64(len(s)-1)
	lo := int(pos)
	if lo+1 >= len(s) {
		return s[len(s)-1]
	}
	frac := pos - float64(lo)
	return s[lo]*(1-frac) + s[lo+1]*frac
}
