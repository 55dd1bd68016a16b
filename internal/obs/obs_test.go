package obs

import (
	"bytes"
	"encoding/json"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// tickClock returns a deterministic clock advancing 100ns per reading.
func tickClock() func() int64 {
	var t atomic.Int64
	return func() int64 { return t.Add(100) - 100 }
}

func TestSpanNestingAndOrdering(t *testing.T) {
	r := NewRecorderClock(tickClock())
	w := r.Worker("merge")

	outer := w.Begin(PhaseMerge) // t=0
	inner := w.Begin(PhaseSpillRead)
	inner.End()
	inner2 := w.Begin(PhaseSpillRead)
	inner2.End()
	outer.End()

	if len(w.spans) != 3 {
		t.Fatalf("got %d spans, want 3", len(w.spans))
	}
	// Children complete (and are recorded) before the enclosing span.
	if w.spans[0].phase != PhaseSpillRead || w.spans[1].phase != PhaseSpillRead || w.spans[2].phase != PhaseMerge {
		t.Fatalf("span order = %v %v %v, want spill-read spill-read merge",
			w.spans[0].phase, w.spans[1].phase, w.spans[2].phase)
	}
	if w.spans[0].depth != 1 || w.spans[1].depth != 1 || w.spans[2].depth != 0 {
		t.Fatalf("depths = %d %d %d, want 1 1 0", w.spans[0].depth, w.spans[1].depth, w.spans[2].depth)
	}
	// Containment: each child's interval lies inside the parent's.
	p := w.spans[2]
	for _, c := range w.spans[:2] {
		if c.start < p.start || c.start+c.dur > p.start+p.dur {
			t.Fatalf("child [%d,%d] escapes parent [%d,%d]", c.start, c.start+c.dur, p.start, p.start+p.dur)
		}
	}
	// Siblings are ordered and disjoint.
	if w.spans[0].start+w.spans[0].dur > w.spans[1].start {
		t.Fatalf("sibling spans overlap: %v then %v", w.spans[0], w.spans[1])
	}

	s := r.Summary()
	if got := s.Get(PhaseSpillRead).Count; got != 2 {
		t.Fatalf("spill-read count = %d, want 2", got)
	}
	if got := s.Get(PhaseMerge).Count; got != 1 {
		t.Fatalf("merge count = %d, want 1", got)
	}
	// The merge span wholly contains both reads, so busy(merge) > busy(reads)
	// and wall(merge) equals its single span's duration.
	if s.Get(PhaseMerge).Busy <= s.Get(PhaseSpillRead).Busy {
		t.Fatalf("merge busy %v not greater than nested spill-read busy %v",
			s.Get(PhaseMerge).Busy, s.Get(PhaseSpillRead).Busy)
	}
	if s.Get(PhaseMerge).Wall != time.Duration(w.spans[2].dur) {
		t.Fatalf("merge wall = %v, want %v", s.Get(PhaseMerge).Wall, time.Duration(w.spans[2].dur))
	}
}

func TestConcurrentWorkers(t *testing.T) {
	// One worker per goroutine, recording concurrently: the per-worker
	// buffers are disjoint, so this must be race-free (run under -race) and
	// the aggregate counters must add up exactly.
	r := NewRecorder()
	const workers, spansEach = 8, 500
	var wg sync.WaitGroup
	for g := 0; g < workers; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			w := r.Worker("worker")
			for i := 0; i < spansEach; i++ {
				sp := w.Begin(Phase(1 + (i+g)%(NumPhases-1)))
				inner := w.Begin(PhaseSpillRead)
				inner.End()
				sp.End()
				// A concurrent Summary while recording must be safe.
				if i == spansEach/2 {
					_ = r.Summary()
				}
			}
		}(g)
	}
	wg.Wait()
	s := r.Summary()
	if s.Workers != workers {
		t.Fatalf("workers = %d, want %d", s.Workers, workers)
	}
	var total int64
	for p := 0; p < NumPhases; p++ {
		total += s.Phases[p].Count
	}
	if want := int64(workers * spansEach * 2); total != want {
		t.Fatalf("total spans = %d, want %d", total, want)
	}
}

func TestWriteTraceGolden(t *testing.T) {
	r := NewRecorderClock(tickClock())
	w := r.Worker("sink-0")
	sp := w.Begin(PhaseIngest) // start 0, end 100
	sp.End()
	sp = w.Begin(PhaseRunSort) // start 200, end 300
	sp.End()
	w2 := r.Worker(`q"uote`)  // name requiring JSON escaping
	sp = w2.Begin(PhaseMerge) // start 400, end 500
	sp.End()

	var buf bytes.Buffer
	if err := r.WriteTrace(&buf); err != nil {
		t.Fatal(err)
	}
	want := `{"traceEvents":[` +
		`{"ph":"M","pid":1,"tid":1,"name":"thread_name","args":{"name":"sink-0"}},` +
		`{"ph":"M","pid":1,"tid":2,"name":"thread_name","args":{"name":"q\"uote"}},` +
		`{"ph":"X","pid":1,"tid":1,"name":"ingest","cat":"rowsort","ts":0.000,"dur":0.100},` +
		`{"ph":"X","pid":1,"tid":1,"name":"run-sort","cat":"rowsort","ts":0.200,"dur":0.100},` +
		`{"ph":"X","pid":1,"tid":2,"name":"merge","cat":"rowsort","ts":0.400,"dur":0.100}` +
		`],"displayTimeUnit":"ms"}` + "\n"
	if got := buf.String(); got != want {
		t.Fatalf("trace JSON mismatch\n got: %s\nwant: %s", got, want)
	}

	// The output must also be valid JSON in the trace_event object form.
	var parsed struct {
		TraceEvents []map[string]any `json:"traceEvents"`
	}
	if err := json.Unmarshal(buf.Bytes(), &parsed); err != nil {
		t.Fatalf("trace does not parse as JSON: %v", err)
	}
	if len(parsed.TraceEvents) != 5 {
		t.Fatalf("parsed %d events, want 5", len(parsed.TraceEvents))
	}
}

func TestWriteTraceNilRecorder(t *testing.T) {
	var r *Recorder
	var buf bytes.Buffer
	if err := r.WriteTrace(&buf); err != nil {
		t.Fatal(err)
	}
	var parsed map[string]any
	if err := json.Unmarshal(buf.Bytes(), &parsed); err != nil {
		t.Fatalf("empty trace does not parse: %v", err)
	}
}

func TestDisabledPathAllocates(t *testing.T) {
	// The whole disabled-path API — Worker, Begin, End, Do, Summary — must
	// not allocate, so instrumentation can stay unconditional in hot paths.
	var r *Recorder
	allocs := testing.AllocsPerRun(1000, func() {
		w := r.Worker("sink")
		sp := w.Begin(PhaseIngest)
		inner := w.Begin(PhaseRunSort)
		inner.End()
		sp.End()
		r.Do("run-generation", func() {})
		_ = r.Summary()
	})
	if allocs != 0 {
		t.Fatalf("disabled path allocates %v per run, want 0", allocs)
	}
}

func TestSummaryStringAndPhaseNames(t *testing.T) {
	r := NewRecorderClock(tickClock())
	w := r.Worker("sink")
	w.Begin(PhaseGather).End()
	if got := r.Summary().String(); !strings.Contains(got, "gather") {
		t.Fatalf("summary table missing gather:\n%s", got)
	}
	seen := map[string]bool{}
	for p := 0; p < NumPhases; p++ {
		name := Phase(p).String()
		if name == "unknown" || seen[name] {
			t.Fatalf("phase %d has bad or duplicate name %q", p, name)
		}
		seen[name] = true
	}
	if Phase(200).String() != "unknown" {
		t.Fatal("out-of-range phase should stringify as unknown")
	}
}
