package main

import (
	"encoding/json"
	"os"
	"sync"
	"time"
)

// Span is one timed call into a layer, recorded from the benchmark's
// own code around the call. Parent is the index of the enclosing span
// in the same lane (-1 for a root); ID groups the spans of one batch or
// request.
type Span struct {
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
	Parent int32  `json:"parent"`
	Lane   int    `json:"lane"`
	ID     int64  `json:"id"`
}

// Tracer keeps spans in memory until the run ends. Each goroutine
// records into its own Lane, so recording takes no lock. A disabled
// tracer records nothing, which is how the tracing overhead is timed.
type Tracer struct {
	on    bool
	t0    time.Time
	mu    sync.Mutex
	lanes []*Lane
}

// Lane is one goroutine's span stack and record.
type Lane struct {
	t     *Tracer
	id    int
	spans []Span
	open  []int32
}

func NewTracer(on bool) *Tracer { return &Tracer{on: on, t0: time.Now()} }

// Lane returns a new recording lane for one goroutine.
func (t *Tracer) Lane() *Lane {
	t.mu.Lock()
	defer t.mu.Unlock()
	l := &Lane{t: t, id: len(t.lanes)}
	t.lanes = append(t.lanes, l)
	return l
}

// Begin opens a span under the innermost open span of the lane.
func (l *Lane) Begin(name string, id int64) {
	if !l.t.on {
		return
	}
	parent := int32(-1)
	if n := len(l.open); n > 0 {
		parent = l.open[n-1]
	}
	l.open = append(l.open, int32(len(l.spans)))
	l.spans = append(l.spans, Span{Name: name, Start: int64(time.Since(l.t.t0)), Parent: parent, Lane: l.id, ID: id})
}

// End closes the innermost open span.
func (l *Lane) End() {
	if !l.t.on {
		return
	}
	i := l.open[len(l.open)-1]
	l.open = l.open[:len(l.open)-1]
	l.spans[i].End = int64(time.Since(l.t.t0))
}

// SelfTime sums, per span name, each span's duration minus the part of
// it covered by its child spans, and counts the spans. Children of one
// parent never overlap: a lane is one goroutine's nested calls.
func (t *Tracer) SelfTime() (self map[string]time.Duration, count map[string]int) {
	self, count = map[string]time.Duration{}, map[string]int{}
	for _, l := range t.lanes {
		child := make([]int64, len(l.spans))
		for _, s := range l.spans {
			if s.Parent >= 0 {
				child[s.Parent] += s.End - s.Start
			}
		}
		for i, s := range l.spans {
			self[s.Name] += time.Duration(s.End - s.Start - child[i])
			count[s.Name]++
		}
	}
	return self, count
}

// Durations returns every span's duration for one name.
func (t *Tracer) Durations(name string) []float64 {
	var out []float64
	for _, l := range t.lanes {
		for _, s := range l.spans {
			if s.Name == name {
				out = append(out, float64(s.End-s.Start))
			}
		}
	}
	return out
}

// Write stores every span as one JSON object per line.
func (t *Tracer) Write(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	enc := json.NewEncoder(f)
	for _, l := range t.lanes {
		for _, s := range l.spans {
			if err := enc.Encode(s); err != nil {
				f.Close()
				return err
			}
		}
	}
	return f.Close()
}
