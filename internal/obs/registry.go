package obs

import (
	"fmt"
	"slices"
	"sync"
	"sync/atomic"
	"time"
)

// DefaultKeepDone is how many completed runs a registry retains when
// NewRegistry is given a non-positive keep count.
const DefaultKeepDone = 32

// Registry tracks every in-flight and recently completed sort registered
// with it: each run's options fingerprint, its counter block and its span
// recorder. It is the process-wide surface the HTTP observability plane
// serves — one registry per server, shared by any number of concurrent
// sorters. A sort joins by being given the registry's Recorder.
//
// A nil *Registry follows the package's nil fast path: Register returns a
// nil *RunHandle and every method is a no-op.
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

// Recorder returns a fresh span recorder whose sorts the registry watches:
// a sorter handed it (core.Options.Telemetry) registers itself as a run
// named label ("csvsort", an experiment id; it need not be unique, and empty
// means "sort"). On a nil registry it is NewRecorder: spans, nobody watching.
func (g *Registry) Recorder(label string) *Recorder {
	r := NewRecorder()
	r.reg, r.label = g, label
	return r
}

// RunOptions describe one sort run being registered. None of it can refer
// to the sorter: a retained run holds counters, decisions and spans, never a
// sort's buffers.
type RunOptions struct {
	// Label names the run for display. Empty means "sort".
	Label string
	// Fingerprint is a compact rendering of the run's sort options, so an
	// operator can tell two runs' configurations apart at a glance.
	Fingerprint string
	// Block is the run's live counter block; Register allocates one when
	// nil so snapshots never have to nil-check.
	Block *Block
	// Recorder, when non-nil, is the run's span recorder: the HTTP plane
	// renders its per-phase waterfall and serves its Chrome trace.
	Recorder *Recorder
	// TopN registers a Top-N operator rather than a sort: it ingests every
	// row, sorts no run, merges nothing and gathers at most Limit rows, so
	// its snapshot plans the two phases it runs, the gather at that limit.
	TopN  bool
	Limit int64
}

// runInfo is one registered run's registry record.
type runInfo struct {
	id      string
	opt     RunOptions
	started time.Time
	// finishedNs is when Done ran, in unix nanoseconds; 0 while the run is
	// live.
	finishedNs atomic.Int64
}

func (ri *runInfo) done() bool { return ri.finishedNs.Load() != 0 }

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
	if o.Block == nil {
		o.Block = NewBlock(nil)
	}
	if o.Label == "" {
		o.Label = "sort"
	}
	g.mu.Lock()
	g.seq++
	ri := &runInfo{id: fmt.Sprintf("run-%d", g.seq), opt: o, started: time.Now()}
	g.runs = append(g.runs, ri)
	g.mu.Unlock()
	return &RunHandle{g: g, ri: ri}
}

// Done marks the run completed: the lifecycle stage advances to StageDone
// and the registry may evict the oldest completed runs beyond its keep
// count. Done is idempotent and safe from any goroutine.
func (h *RunHandle) Done() {
	if h == nil {
		return
	}
	h.ri.opt.Block.AdvanceTo(StageDone)
	if h.ri.finishedNs.CompareAndSwap(0, time.Now().UnixNano()) {
		h.g.retire()
	}
}

// retire evicts the oldest completed runs beyond the keep count.
func (g *Registry) retire() {
	g.mu.Lock()
	defer g.mu.Unlock()
	evict := -g.keep
	for _, ri := range g.runs {
		if ri.done() {
			evict++
		}
	}
	// DeleteFunc zeroes the tail, so evicted runs are collectable.
	g.runs = slices.DeleteFunc(g.runs, func(ri *runInfo) bool {
		if evict > 0 && ri.done() {
			evict--
			return true
		}
		return false
	})
}

// PhaseProgress is one logical phase's progress toward its planned work.
type PhaseProgress struct {
	Name    string `json:"name"`
	Done    int64  `json:"done"`
	Planned int64  `json:"planned"`
	// Fraction is Done/Planned clamped to [0, 1]; 1 when Planned is 0.
	Fraction float64 `json:"fraction"`
	// RowsPerSec is Done over the wall time of the stages the phase runs
	// in, read off their stage clocks; 0 before those stages start. The
	// clocks stop with their stages, so a finished phase's rate is final.
	RowsPerSec float64 `json:"rows_per_sec,omitempty"`
}

// RunSnapshot is a point-in-time view of one registered run: identity,
// counters, per-phase progress, decisions and spans. It counts and predicts
// nothing: progress is rows done over rows planned. A completed run's
// snapshot is its final record: the block stops moving when the sorter
// closes, and with it every rate.
type RunSnapshot struct {
	ID          string    `json:"id"`
	Label       string    `json:"label"`
	Fingerprint string    `json:"fingerprint,omitempty"`
	Started     time.Time `json:"started"`
	// Elapsed is time since start for live runs, total runtime for
	// completed ones.
	Elapsed time.Duration `json:"elapsed_ns"`
	Done    bool          `json:"done"`
	Stage   string        `json:"stage"`
	// Counters is every counter of the descriptor table, keyed by name.
	Counters Values          `json:"counters"`
	Phases   []PhaseProgress `json:"phases"`
	// Trace is the run's per-phase span aggregate when it has a Recorder.
	Trace *Summary `json:"trace,omitempty"`
	// Strategy is the run's run-sort decisions so far (all
	// of them once the run is done).
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
	var live, done []RunSnapshot
	for i := len(runs) - 1; i >= 0; i-- { // newest first
		if s := runs[i].snapshot(); s.Done {
			done = append(done, s)
		} else {
			live = append(live, s)
		}
	}
	return append(live, done...)
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
	b := o.Block
	finished := ri.finishedNs.Load()
	elapsed := time.Since(ri.started)
	if finished != 0 {
		elapsed = time.Unix(0, finished).Sub(ri.started)
	}
	vals := b.Snapshot()
	s := RunSnapshot{
		ID:          ri.id,
		Label:       o.Label,
		Fingerprint: o.Fingerprint,
		Started:     ri.started,
		Elapsed:     elapsed,
		Done:        finished != 0,
		Stage:       b.Stage().String(),
		Counters:    vals,
		Phases:      phaseProgress(vals, o),
		Strategy:    b.Decisions(),
	}
	if o.Recorder != nil {
		sum := o.Recorder.Summary()
		s.Trace = &sum
	}
	return s
}

// phaseProgress derives the logical phases' done/planned rows and rates from
// the counters: a sort's four, a Top-N's two (RunOptions.TopN). The planning
// target is RowsExpected when the caller declared it, else the rows ingested
// so far (a moving target: progress reads low until ingestion finishes, which
// is the honest answer for an unbounded stream).
func phaseProgress(v Values, o RunOptions) []PhaseProgress {
	// A registered run that has not started plans one row; all fractions 0
	// but a LIMIT 0's gather, which plans none.
	total := max(v[RowsExpected], v[RowsIngested], 1)
	ingest := PhaseProgress{Name: "ingest", Done: v[RowsIngested], Planned: total}
	gather := PhaseProgress{Name: "gather", Done: v[RowsGathered], Planned: total}
	// The stage clocks each phase runs under: ingest and run sort during run
	// generation, the merge in Finalize's passes and inside the drain, which
	// the gather stage times.
	var phases []PhaseProgress
	var wall []int64
	if o.TopN {
		// The heap keeps the limit, or every row when there are fewer, and
		// the gather reads out what it kept: nothing under a LIMIT 0.
		gather.Planned = min(o.Limit, total)
		phases, wall = []PhaseProgress{ingest, gather}, []int64{v[DurRunGen], v[DurGather]}
	} else {
		phases = []PhaseProgress{ingest,
			{Name: "run-sort", Done: v[RowsSorted], Planned: total},
			{Name: "merge", Done: v[RowsMerged], Planned: max(v[MergeRowsPlanned], total)},
			gather}
		wall = []int64{v[DurRunGen], v[DurRunGen], v[DurMerge] + v[DurGather], v[DurGather]}
	}
	for i := range phases {
		ph := &phases[i]
		ph.Fraction = 1 // a phase planned at no rows has nothing left to do
		if ph.Planned > 0 {
			ph.Fraction = float64(min(ph.Done, ph.Planned)) / float64(ph.Planned)
		}
		if wall[i] > 0 {
			ph.RowsPerSec = float64(ph.Done) / time.Duration(wall[i]).Seconds()
		}
	}
	return phases
}
