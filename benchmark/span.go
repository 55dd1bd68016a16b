package main

import (
	"cmp"
	"encoding/json"
	"io"
	"slices"
	"sync"
	"time"
)

// span is one timed call across a layer boundary, recorded by the benchmark
// around the sorter's public calls. Spans of one sort share Trace
// (workload/round); Parent is the span that caused this one (0 for a root).
type span struct {
	ID     int
	Parent int
	Trace  string
	Name   string
	// Lane is the goroutine the call ran on: 0 the driver, 1.. the sink
	// goroutines. It becomes the trace's tid.
	Lane       int
	Start, End time.Duration // since the tracer's epoch
}

func (s span) dur() time.Duration { return s.End - s.Start }

// tracer keeps spans in memory until the run ends. A nil tracer records
// nothing, so the untraced rounds run the same driver code at no cost.
type tracer struct {
	epoch time.Time
	mu    sync.Mutex
	spans []span
}

func newTracer() *tracer { return &tracer{epoch: time.Now()} }

// begin opens a span and returns its id for end and for children's Parent.
func (t *tracer) begin(parent int, trace, name string, lane int) int {
	if t == nil {
		return 0
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	id := len(t.spans) + 1
	t.spans = append(t.spans, span{ID: id, Parent: parent, Trace: trace, Name: name, Lane: lane,
		Start: time.Since(t.epoch)})
	return id
}

func (t *tracer) end(id int) {
	if t == nil {
		return
	}
	now := time.Since(t.epoch)
	t.mu.Lock()
	t.spans[id-1].End = now
	t.mu.Unlock()
}

// mark returns the number of spans so far; since(mark) is every span opened
// after it. Sorts run one at a time, so that is exactly one sort's spans.
func (t *tracer) mark() int {
	if t == nil {
		return 0
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	return len(t.spans)
}

func (t *tracer) since(mark int) []span {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	return slices.Clone(t.spans[mark:])
}

// selfTimes returns, per span id, the span's duration minus the part of its
// interval that its children cover. Children may overlap one another (two
// sink goroutines under one sort), so the covered part is the union of the
// child intervals clipped to the parent, not their sum.
func selfTimes(spans []span) map[int]time.Duration {
	children := make(map[int][]span)
	for _, s := range spans {
		if s.Parent != 0 {
			children[s.Parent] = append(children[s.Parent], s)
		}
	}
	self := make(map[int]time.Duration, len(spans))
	for _, s := range spans {
		kids := children[s.ID]
		slices.SortFunc(kids, func(a, b span) int { return cmp.Compare(a.Start, b.Start) })
		covered, reach := time.Duration(0), s.Start
		for _, k := range kids {
			from, to := max(k.Start, reach), min(k.End, s.End)
			if to > from {
				covered += to - from
				reach = to
			}
		}
		self[s.ID] = s.dur() - covered
	}
	return self
}

// traceEvent is one Chrome trace_event "complete" event; chrome://tracing
// and Perfetto load {"traceEvents": [...]}.
type traceEvent struct {
	Name string         `json:"name"`
	Cat  string         `json:"cat"`
	Ph   string         `json:"ph"`
	Ts   float64        `json:"ts"`  // microseconds
	Dur  float64        `json:"dur"` // microseconds
	Pid  int            `json:"pid"`
	Tid  int            `json:"tid"`
	Args map[string]any `json:"args"`
}

type traceFile struct {
	TraceEvents     []traceEvent `json:"traceEvents"`
	DisplayTimeUnit string       `json:"displayTimeUnit"`
}

// writeTrace writes every recorded span as Chrome trace_event JSON.
func (t *tracer) writeTrace(w io.Writer) error {
	spans := t.since(0)
	self := selfTimes(spans)
	f := traceFile{TraceEvents: make([]traceEvent, len(spans)), DisplayTimeUnit: "ms"}
	for i, s := range spans {
		f.TraceEvents[i] = traceEvent{
			Name: s.Name, Cat: "benchmark", Ph: "X",
			Ts: float64(s.Start) / 1e3, Dur: float64(s.dur()) / 1e3,
			Pid: 1, Tid: s.Lane,
			Args: map[string]any{"id": s.ID, "parent": s.Parent, "trace": s.Trace,
				"self_us": float64(self[s.ID]) / 1e3},
		}
	}
	return json.NewEncoder(w).Encode(f)
}
