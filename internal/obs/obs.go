// Package obs is the one module that knows what a sort counts. A sort
// publishes into one counter block (Block); the descriptor table (Descs)
// says what each counter is; and every view — core.SortStats, both
// Prometheus expositions, the registry's JSON snapshot — is generated from
// the two (counters.go, prom.go, registry.go). Beside the counters it records
// hierarchical phase spans with nanosecond timers into per-worker buffers
// (Recorder), exported as Chrome trace_event JSON (chrome://tracing and
// Perfetto), and serves the runs a Registry watches over HTTP.
//
// The package is built around a nil fast path: a nil *Recorder hands out nil
// *Workers, and every method on a nil receiver is a no-op that performs zero
// allocations, so instrumented code calls Begin/End unconditionally and pays
// nothing when telemetry is off.
//
// Each Worker owns its span buffer and is confined to one goroutine, so span
// recording is lock-free; only worker registration takes the recorder's
// mutex. Aggregate counters (per-phase busy time, span counts, first/last
// timestamps) are atomics, so Summary and the Prometheus dump are safe to
// call concurrently with recording; WriteTrace reads the span buffers and
// must wait until the recorded work has finished.
package obs

import (
	"context"
	"math"
	"runtime/pprof"
	"sync"
	"sync/atomic"
	"time"
)

// Phase identifies one stage of the sort pipeline.
type Phase uint8

// The instrumented pipeline phases.
const (
	// PhaseSort is the root span covering a whole sort call.
	PhaseSort Phase = iota
	// PhaseIngest is chunk conversion: payload scatter to the row format
	// plus normalized-key encoding.
	PhaseIngest
	// PhaseRunSort is sorting one thread-local run's key rows (radix or
	// pdqsort) and reordering its payload.
	PhaseRunSort
	// PhaseSpillWrite is serializing a sorted run to its spill file.
	PhaseSpillWrite
	// PhaseSpillRead is reading one block of a spilled run back.
	PhaseSpillRead
	// PhaseMerge is the k-way merge of sorted runs.
	PhaseMerge
	// PhaseGather is materializing the sorted payload back into columns.
	PhaseGather
	// PhasePressureSpill is spilling resident runs because the memory
	// broker reported budget pressure (the adaptive-spill path, as opposed
	// to PhaseSpillWrite spans inside it which cover the file writes).
	PhasePressureSpill
	// PhasePrefetch is a spill read-ahead goroutine decoding the next block
	// of a run while the merge consumes the current one; its spans cover
	// the decode work that overlaps merge compute.
	PhasePrefetch
	// PhaseMergePass is one intermediate external merge pass: a batch of
	// spilled runs rewritten as a single wider run because the budget
	// cannot stream all of them at once (the multi-pass merge plan).
	PhaseMergePass

	// NumPhases is the number of distinct phases.
	NumPhases = int(PhaseMergePass) + 1
)

var phaseNames = [NumPhases]string{
	"sort", "ingest", "run-sort", "spill-write", "spill-read", "merge", "gather",
	"pressure-spill", "prefetch", "merge-pass",
}

// String returns the phase's trace/metric name.
func (p Phase) String() string {
	if int(p) < NumPhases {
		return phaseNames[p]
	}
	return "unknown"
}

// Recorder collects spans and counters for one traced activity (typically
// one sort). A nil *Recorder disables all recording.
type Recorder struct {
	now func() int64 // nanoseconds since the recorder's epoch (monotonic)

	busy  [NumPhases]atomic.Int64 // summed span durations, ns
	count [NumPhases]atomic.Int64 // spans ended
	first [NumPhases]atomic.Int64 // earliest span start, ns (MaxInt64 = none)
	last  [NumPhases]atomic.Int64 // latest span end, ns (-1 = none)

	mu      sync.Mutex
	workers []*Worker

	// reg and label, set by Registry.Recorder, name the registry that watches
	// the runs recorded here and what it calls them.
	reg   *Registry
	label string
}

// NewRecorder returns a recorder whose clock is the monotonic time since
// this call.
func NewRecorder() *Recorder {
	epoch := time.Now()
	return NewRecorderClock(func() int64 { return int64(time.Since(epoch)) })
}

// NewRecorderClock returns a recorder driven by an explicit clock reporting
// nanoseconds since an epoch of the caller's choosing. The clock must be
// monotonic non-decreasing and safe for concurrent use. Tests use it for
// deterministic timelines.
func NewRecorderClock(now func() int64) *Recorder {
	r := &Recorder{now: now}
	for p := range r.first {
		r.first[p].Store(math.MaxInt64)
		r.last[p].Store(-1)
	}
	return r
}

// Register adds a run recorded here to the registry the recorder came from
// (Registry.Recorder), under the recorder's label, and returns its handle. A
// nil recorder, or one no registry made, returns nil — which every handle
// method accepts — so a sorter registers unconditionally.
func (r *Recorder) Register(o RunOptions) *RunHandle {
	if r == nil {
		return nil
	}
	o.Label, o.Recorder = r.label, r
	return r.reg.Register(o)
}

// Worker registers a new trace lane (one Chrome-trace tid) and returns its
// span buffer. Workers are not safe for concurrent use: create one per
// goroutine. On a nil recorder it returns nil, which all Worker methods
// accept.
func (r *Recorder) Worker(name string) *Worker {
	if r == nil {
		return nil
	}
	w := &Worker{r: r, name: name}
	r.mu.Lock()
	w.tid = len(r.workers) + 1
	r.workers = append(r.workers, w)
	r.mu.Unlock()
	return w
}

// Do runs f under a pprof goroutine label ("sort_phase": label) so CPU
// profiles taken while the sort runs attribute samples to pipeline stages.
// On a nil recorder it just calls f.
func (r *Recorder) Do(label string, f func()) {
	if r == nil {
		f()
		return
	}
	pprof.Do(context.Background(), pprof.Labels("sort_phase", label), func(context.Context) { f() })
}

// Worker is one goroutine's span buffer and trace lane.
type Worker struct {
	r     *Recorder
	tid   int
	name  string
	depth int32
	spans []spanRec
}

// spanRec is one completed span.
type spanRec struct {
	phase Phase
	depth int32
	start int64 // ns since the recorder's epoch
	dur   int64 // ns
}

// Span is an open span handle. It is a value: Begin/End on the nil fast
// path allocate nothing.
type Span struct {
	w     *Worker
	phase Phase
	depth int32
	start int64
}

// Begin opens a span of phase p at the current time. Spans nest: a Begin
// before the previous span's End records one level deeper, and Chrome
// tracing renders the containment. On a nil worker it returns a no-op span.
func (w *Worker) Begin(p Phase) Span {
	if w == nil {
		return Span{}
	}
	now := w.r.now()
	casMin(&w.r.first[p], now)
	s := Span{w: w, phase: p, depth: w.depth, start: now}
	w.depth++
	return s
}

// End closes the span, recording it into the worker's buffer and the
// recorder's phase counters. End on the zero Span is a no-op.
func (s Span) End() {
	if s.w == nil {
		return
	}
	r := s.w.r
	end := r.now()
	s.w.depth--
	// amortized span-buffer growth; the telemetry test pins AllocsPerRun at zero in the steady state
	s.w.spans = append(s.w.spans, spanRec{phase: s.phase, depth: s.depth, start: s.start, dur: end - s.start})
	r.busy[s.phase].Add(end - s.start)
	r.count[s.phase].Add(1)
	casMax(&r.last[s.phase], end)
}

// casMin lowers a to v if v is smaller.
func casMin(a *atomic.Int64, v int64) {
	for {
		cur := a.Load()
		if v >= cur || a.CompareAndSwap(cur, v) {
			return
		}
	}
}

// casMax raises a to v if v is larger.
func casMax(a *atomic.Int64, v int64) {
	for {
		cur := a.Load()
		if v <= cur || a.CompareAndSwap(cur, v) {
			return
		}
	}
}

// snapshotWorkers returns the registered workers under the lock.
func (r *Recorder) snapshotWorkers() []*Worker {
	r.mu.Lock()
	defer r.mu.Unlock()
	return append([]*Worker(nil), r.workers...)
}
