package obs

import (
	"fmt"
	"sync"
	"sync/atomic"
	"time"
)

// DefaultKeepDone is how many completed runs a registry retains when
// NewRegistry is given a non-positive keep count.
const DefaultKeepDone = 32

// Registry tracks every in-flight and recently completed sort registered
// with it: each run's options fingerprint, live progress counters, memory
// gauges and (optionally) its span recorder. It is the process-wide surface
// the HTTP observability plane serves — one registry per server, shared by
// any number of concurrent sorters.
//
// A nil *Registry follows the package's nil fast path: Register returns a
// nil *RunHandle and every method is a no-op, so callers thread a registry
// through unconditionally and pay nothing when observability is off.
type Registry struct {
	mu   sync.Mutex
	keep int
	seq  int64
	runs []*runInfo // registration order; completed runs beyond keep are evicted
}

// NewRegistry returns a registry retaining up to keepDone completed runs
// (in-flight runs are never evicted); keepDone <= 0 means DefaultKeepDone.
func NewRegistry(keepDone int) *Registry {
	if keepDone <= 0 {
		keepDone = DefaultKeepDone
	}
	return &Registry{keep: keepDone}
}

// RunOptions describe one sort run being registered.
type RunOptions struct {
	// Label names the run for display ("csvsort", an experiment id); it
	// need not be unique. Empty means "sort".
	Label string
	// Fingerprint is a compact rendering of the run's sort options, so an
	// operator can tell two runs' configurations apart at a glance.
	Fingerprint string
	// Progress is the run's live counter block. Required: Register
	// allocates one when nil so snapshots never have to nil-check.
	Progress *Progress
	// Recorder, when non-nil, is the run's span recorder: the HTTP plane
	// renders its per-phase waterfall and serves its Chrome trace.
	Recorder *Recorder
	// Weights combine per-phase progress into the overall fraction and
	// ETA; the zero value means DefaultPhaseWeights.
	Weights PhaseWeights
	// MemUsed and MemPeak, when non-nil, are sampled on every snapshot
	// (typically mem.Broker method values — lock-free atomic reads).
	MemUsed func() int64
	MemPeak func() int64
	// MemLimit is the run's configured budget (0 = unlimited).
	MemLimit int64
	// PressureEvents, when non-nil, samples the broker's pressure-event
	// count.
	PressureEvents func() int64
	// FinalStats, when non-nil, is called exactly once when the run is
	// marked Done; its result (typically *core.SortStats) is frozen into
	// the run's snapshot as the authoritative completed-run record. The
	// closure is released immediately after that call, so a retained
	// completed run does not pin whatever the closure captured (usually
	// the entire sorter and its buffers).
	FinalStats func() any
	// Strategy, when non-nil, samples the run's per-run execution-plan
	// decisions for live snapshots. Like FinalStats it typically captures
	// the sorter, so Done freezes its last result and releases the
	// closure; snapshots taken after completion serve the frozen copy.
	Strategy func() []StrategyDecision
}

// runInfo is one registered run's registry record.
type runInfo struct {
	id      string
	opt     RunOptions
	started time.Time

	// finalStatsFn is RunOptions.FinalStats, moved out of opt at Register
	// time. The closure typically captures the whole sorter — run buffers,
	// pools, the result table — so a retained completed run must not keep
	// it alive. Only Done touches this field (guarded by doneOnce), which
	// lets Done nil it without racing snapshot's read of opt.
	finalStatsFn func() any

	// strategyFn is RunOptions.Strategy, moved out of opt the same way —
	// but snapshots call it while the run is live, so the release must be
	// an atomic swap rather than a guarded nil. Done freezes the last
	// result into strategy (published by the done handshake below) and
	// swaps the pointer out.
	strategyFn atomic.Pointer[func() []StrategyDecision]
	strategy   []StrategyDecision

	// Completion handshake: Done writes final and finishedNs, then flips
	// done — readers that observe done.Load() == true therefore see both.
	doneOnce   atomic.Bool
	finishedNs atomic.Int64
	final      any
	done       atomic.Bool
}

// RunHandle is a registered run's publisher-side handle. A nil handle is a
// no-op (the nil-registry fast path).
type RunHandle struct {
	g  *Registry
	ri *runInfo
}

// Register adds a run to the registry and returns its handle. On a nil
// registry it returns nil, which all handle methods accept.
func (g *Registry) Register(o RunOptions) *RunHandle {
	if g == nil {
		return nil
	}
	if o.Progress == nil {
		o.Progress = &Progress{}
	}
	if o.Label == "" {
		o.Label = "sort"
	}
	if !o.Weights.valid() {
		o.Weights = DefaultPhaseWeights
	}
	fn := o.FinalStats
	o.FinalStats = nil // held in finalStatsFn; dropped once captured
	stratFn := o.Strategy
	o.Strategy = nil // held in strategyFn; released at Done
	g.mu.Lock()
	g.seq++
	ri := &runInfo{id: fmt.Sprintf("run-%d", g.seq), opt: o, started: time.Now(), finalStatsFn: fn}
	if stratFn != nil {
		held := stratFn // a fresh local: only its address reaches the atomic
		ri.strategyFn.Store(&held)
	}
	g.runs = append(g.runs, ri)
	g.mu.Unlock()
	return &RunHandle{g: g, ri: ri}
}

// ID returns the run's registry id ("run-3"); empty on a nil handle.
func (h *RunHandle) ID() string {
	if h == nil {
		return ""
	}
	return h.ri.id
}

// Done marks the run completed: the lifecycle stage advances to StageDone,
// FinalStats (if any) is captured as the frozen completed-run record, and
// the registry may evict the oldest completed runs beyond its keep count.
// Done is idempotent and safe from any goroutine.
func (h *RunHandle) Done() {
	if h == nil {
		return
	}
	ri := h.ri
	if !ri.doneOnce.CompareAndSwap(false, true) {
		return
	}
	ri.opt.Progress.AdvanceTo(StageDone)
	if ri.finalStatsFn != nil {
		ri.final = ri.finalStatsFn()
		ri.finalStatsFn = nil // release the sorter the closure captured
	}
	if fn := ri.strategyFn.Swap(nil); fn != nil {
		// Freeze the decisions before the done handshake publishes them;
		// a snapshot in the tiny swap-to-done window simply omits them.
		ri.strategy = (*fn)()
	}
	ri.finishedNs.Store(time.Now().UnixNano())
	ri.done.Store(true)
	h.g.retire()
}

// retire evicts the oldest completed runs beyond the keep count.
func (g *Registry) retire() {
	g.mu.Lock()
	defer g.mu.Unlock()
	doneCount := 0
	for _, ri := range g.runs {
		if ri.done.Load() {
			doneCount++
		}
	}
	if doneCount <= g.keep {
		return
	}
	evict := doneCount - g.keep
	kept := g.runs[:0]
	for _, ri := range g.runs {
		if evict > 0 && ri.done.Load() {
			evict--
			continue
		}
		kept = append(kept, ri)
	}
	// Drop the tail references so evicted runs are collectable.
	for i := len(kept); i < len(g.runs); i++ {
		g.runs[i] = nil
	}
	g.runs = kept
}

// MemStats is a run's memory-broker gauge snapshot.
type MemStats struct {
	UsedBytes      int64 `json:"used_bytes"`
	PeakBytes      int64 `json:"peak_bytes"`
	LimitBytes     int64 `json:"limit_bytes"`
	PressureEvents int64 `json:"pressure_events"`
}

// PhaseProgress is one logical phase's progress toward its planned work.
type PhaseProgress struct {
	Name    string `json:"name"`
	Done    int64  `json:"done"`
	Planned int64  `json:"planned"`
	// Weight is the phase's relative per-row cost in the overall fraction.
	Weight float64 `json:"weight"`
	// Fraction is Done/Planned clamped to [0, 1].
	Fraction float64 `json:"fraction"`
	// RowsPerSec is the phase's throughput since its stage began; 0 when
	// the stage has not started.
	RowsPerSec float64 `json:"rows_per_sec,omitempty"`
}

// RunSnapshot is a point-in-time view of one registered run: identity,
// counters, memory gauges, weighted overall progress and ETA, and — once
// the run completes — the frozen final stats.
type RunSnapshot struct {
	ID          string    `json:"id"`
	Label       string    `json:"label"`
	Fingerprint string    `json:"fingerprint,omitempty"`
	Started     time.Time `json:"started"`
	// Elapsed is time since start for live runs, total runtime for
	// completed ones.
	Elapsed  time.Duration    `json:"elapsed_ns"`
	Done     bool             `json:"done"`
	Stage    string           `json:"stage"`
	Counters ProgressCounters `json:"counters"`
	Mem      MemStats         `json:"mem"`
	Phases   []PhaseProgress  `json:"phases"`
	// Fraction is the weighted overall completion estimate in [0, 1].
	Fraction float64 `json:"fraction"`
	// ETA is the estimated remaining time (elapsed scaled by the remaining
	// fraction); -1 when no estimate is possible yet.
	ETA time.Duration `json:"eta_ns"`
	// Trace is the run's per-phase span aggregate when it has a Recorder.
	Trace *Summary `json:"trace,omitempty"`
	// Final is the frozen completed-run record (FinalStats' result); nil
	// while the run is live.
	Final any `json:"final,omitempty"`
	// Strategy is the run's per-run execution-plan decisions so far (all
	// of them once the run is done); nil when the run has no planner.
	Strategy []StrategyDecision `json:"strategy,omitempty"`
}

// Snapshot returns the current snapshot of the run with the given id.
func (g *Registry) Snapshot(id string) (RunSnapshot, bool) {
	ri := g.run(id)
	if ri == nil {
		return RunSnapshot{}, false
	}
	return ri.snapshot(), true
}

// Snapshots returns every retained run's snapshot, live runs first, newest
// first within each group.
func (g *Registry) Snapshots() []RunSnapshot {
	if g == nil {
		return nil
	}
	g.mu.Lock()
	runs := append([]*runInfo(nil), g.runs...)
	g.mu.Unlock()
	out := make([]RunSnapshot, 0, len(runs))
	for i := len(runs) - 1; i >= 0; i-- { // newest first
		if !runs[i].done.Load() {
			out = append(out, runs[i].snapshot())
		}
	}
	for i := len(runs) - 1; i >= 0; i-- {
		if runs[i].done.Load() {
			out = append(out, runs[i].snapshot())
		}
	}
	return out
}

// run finds a retained run by id; nil when unknown (or on a nil registry).
func (g *Registry) run(id string) *runInfo {
	if g == nil {
		return nil
	}
	g.mu.Lock()
	defer g.mu.Unlock()
	for _, ri := range g.runs {
		if ri.id == id {
			return ri
		}
	}
	return nil
}

// snapshot builds the run's current RunSnapshot.
func (ri *runInfo) snapshot() RunSnapshot {
	o := ri.opt
	p := o.Progress
	done := ri.done.Load()
	now := time.Now()
	elapsed := now.Sub(ri.started)
	if done {
		elapsed = time.Unix(0, ri.finishedNs.Load()).Sub(ri.started)
	}
	s := RunSnapshot{
		ID:          ri.id,
		Label:       o.Label,
		Fingerprint: o.Fingerprint,
		Started:     ri.started,
		Elapsed:     elapsed,
		Done:        done,
		Stage:       p.Stage().String(),
		Counters:    p.Counters(),
		Mem:         MemStats{LimitBytes: o.MemLimit},
		ETA:         -1,
	}
	if o.MemUsed != nil {
		s.Mem.UsedBytes = o.MemUsed()
	}
	if o.MemPeak != nil {
		s.Mem.PeakBytes = o.MemPeak()
	}
	if o.PressureEvents != nil {
		s.Mem.PressureEvents = o.PressureEvents()
	}
	if o.Recorder != nil {
		sum := o.Recorder.Summary()
		s.Trace = &sum
	}
	if done {
		s.Final = ri.final
		s.Strategy = ri.strategy
	} else if fn := ri.strategyFn.Load(); fn != nil {
		s.Strategy = (*fn)()
	}

	s.Phases = phaseProgress(p, o.Weights, now)
	var doneUnits, plannedUnits float64
	for _, ph := range s.Phases {
		doneUnits += ph.Weight * float64(min64(ph.Done, ph.Planned))
		plannedUnits += ph.Weight * float64(ph.Planned)
	}
	switch {
	case done:
		s.Fraction = 1
		s.ETA = 0
	case plannedUnits > 0:
		s.Fraction = doneUnits / plannedUnits
		// An ETA needs a sliver of signal; below half a percent the
		// extrapolation is noise.
		if s.Fraction >= 0.005 {
			s.ETA = time.Duration(float64(elapsed) * (1 - s.Fraction) / s.Fraction)
		}
	}
	return s
}

// phaseProgress derives the four logical phases' done/planned rows from the
// counters. The planning target is RowsExpected when the caller declared
// it, else the rows ingested so far (a moving target: progress reads low
// until ingestion finishes, which is the honest answer for an unbounded
// stream).
func phaseProgress(p *Progress, w PhaseWeights, now time.Time) []PhaseProgress {
	expected := p.RowsExpected.Load()
	ingested := p.RowsIngested.Load()
	total := max64(expected, ingested)
	if total == 0 {
		total = 1 // a registered run that has not started; all fractions 0
	}
	mergePlanned := max64(p.MergeRowsPlanned.Load(), total)
	phases := []PhaseProgress{
		{Name: "ingest", Done: ingested, Planned: total, Weight: w.Ingest},
		{Name: "run-sort", Done: p.RowsSorted.Load(), Planned: total, Weight: w.RunSort},
		{Name: "merge", Done: p.RowsMerged.Load(), Planned: mergePlanned, Weight: w.Merge},
		{Name: "gather", Done: p.RowsGathered.Load(), Planned: total, Weight: w.Gather},
	}
	stageOf := [...]Stage{StageRunGen, StageRunGen, StageMerge, StageGather}
	for i := range phases {
		ph := &phases[i]
		if ph.Planned > 0 {
			ph.Fraction = float64(min64(ph.Done, ph.Planned)) / float64(ph.Planned)
		}
		if entered := p.StageEntered(stageOf[i]); !entered.IsZero() && ph.Done > 0 {
			if dt := now.Sub(entered).Seconds(); dt > 0 {
				ph.RowsPerSec = float64(ph.Done) / dt
			}
		}
	}
	return phases
}

func min64(a, b int64) int64 {
	if a < b {
		return a
	}
	return b
}

func max64(a, b int64) int64 {
	if a > b {
		return a
	}
	return b
}
