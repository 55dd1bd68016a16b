package main

import (
	"bytes"
	"encoding/json"
	"sync"
	"testing"
	"time"
)

func TestSelfTimeSubtractsTheUnionOfChildren(t *testing.T) {
	spans := []span{
		{ID: 1, Name: "sort", Start: 0, End: 100},
		// Two sink goroutines overlap on [30,40]: together they cover
		// [10,60], 50 units, not 30+30.
		{ID: 2, Parent: 1, Name: "a", Lane: 1, Start: 10, End: 40},
		{ID: 3, Parent: 1, Name: "b", Lane: 2, Start: 30, End: 60},
		{ID: 4, Parent: 1, Name: "c", Start: 70, End: 80},
		// A child that outlives its parent counts only up to the parent's end.
		{ID: 5, Parent: 1, Name: "d", Start: 95, End: 120},
		// A grandchild reduces its own parent, not the root.
		{ID: 6, Parent: 3, Name: "e", Lane: 2, Start: 35, End: 50},
	}
	self := selfTimes(spans)
	want := map[int]time.Duration{1: 100 - 50 - 10 - 5, 2: 30, 3: 15, 4: 10, 5: 25, 6: 15}
	for id, w := range want {
		if self[id] != w {
			t.Errorf("self time of span %d = %d, want %d", id, self[id], w)
		}
	}
}

func TestTracerNestsChildrenInsideParents(t *testing.T) {
	tr := newTracer()
	root := tr.begin(0, "w/1", "sort", 0)
	var wg sync.WaitGroup
	for lane := 1; lane <= 2; lane++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 50; i++ {
				id := tr.begin(root, "w/1", "core.sink_append", lane)
				tr.end(id)
			}
		}()
	}
	wg.Wait()
	tr.end(root)

	spans := tr.since(0)
	if len(spans) != 101 {
		t.Fatalf("recorded %d spans, want 101", len(spans))
	}
	parent := spans[root-1]
	for _, s := range spans {
		if s.ID == root {
			continue
		}
		if s.Parent != root || s.Trace != "w/1" {
			t.Fatalf("span %d has parent %d trace %q", s.ID, s.Parent, s.Trace)
		}
		if s.Start < parent.Start || s.End > parent.End || s.End < s.Start {
			t.Fatalf("span %d [%d,%d] is not inside its parent [%d,%d]", s.ID, s.Start, s.End, parent.Start, parent.End)
		}
	}
	if self := selfTimes(spans)[root]; self < 0 || self > parent.dur() {
		t.Fatalf("root self time %d outside [0,%d]", self, parent.dur())
	}
	if got := tr.since(tr.mark()); len(got) != 0 {
		t.Fatalf("since(mark()) returned %d spans, want none", len(got))
	}
}

func TestNilTracerRecordsNothing(t *testing.T) {
	var tr *tracer
	tr.end(tr.begin(0, "", "sort", 0))
	if tr.mark() != 0 || tr.since(0) != nil {
		t.Fatal("nil tracer recorded spans")
	}
}

func TestWrittenTraceIsTraceEventJSON(t *testing.T) {
	tr := newTracer()
	root := tr.begin(0, "w/1", "sort", 0)
	child := tr.begin(root, "w/1", "core.finalize", 0)
	tr.end(child)
	tr.end(root)

	var buf bytes.Buffer
	if err := tr.writeTrace(&buf); err != nil {
		t.Fatal(err)
	}
	var f struct {
		TraceEvents []map[string]any `json:"traceEvents"`
	}
	if err := json.Unmarshal(buf.Bytes(), &f); err != nil {
		t.Fatalf("trace is not valid JSON: %v", err)
	}
	if len(f.TraceEvents) != 2 {
		t.Fatalf("trace has %d events, want 2", len(f.TraceEvents))
	}
	for _, ev := range f.TraceEvents {
		for _, key := range []string{"name", "ph", "ts", "dur", "pid", "tid"} {
			if _, ok := ev[key]; !ok {
				t.Errorf("event %v lacks %q", ev, key)
			}
		}
		if ev["ph"] != "X" {
			t.Errorf("event phase %v, want X (complete event)", ev["ph"])
		}
		if ev["dur"].(float64) < 0 {
			t.Errorf("event %v has negative duration", ev)
		}
	}
	if parent := f.TraceEvents[1]["args"].(map[string]any)["parent"]; parent != float64(root) {
		t.Errorf("child's parent = %v, want %d", parent, root)
	}
}
