package obs

import (
	"sync/atomic"
	"time"
)

// Stage is a sort run's coarse lifecycle position, published by the pipeline
// as it crosses stage boundaries. Stages only advance (AdvanceTo is
// monotonic), so concurrent observers never see a run move backwards.
type Stage int32

// The pipeline stages, in lifecycle order.
const (
	// StagePending is a registered run that has not ingested a row yet.
	StagePending Stage = iota
	// StageRunGen covers ingestion and thread-local run sorting (including
	// eager and pressure-driven spill writes).
	StageRunGen
	// StageMerge covers Finalize: planning the final merge and, for a
	// budgeted sort, the intermediate fan-in-reducing passes with their
	// spill reads.
	StageMerge
	// StageGather covers result materialization (Result or the Rows
	// iterator), which runs the final merge, spill reads included.
	StageGather
	// StageDone is a closed run; its final stats snapshot is frozen.
	StageDone

	// NumStages is the number of lifecycle stages.
	NumStages = int(StageDone) + 1
)

var stageNames = [NumStages]string{"pending", "run-generation", "merge", "gather", "done"}

// String returns the stage's display name.
func (st Stage) String() string {
	if int(st) < NumStages {
		return stageNames[st]
	}
	return "unknown"
}

// Progress is a sort run's live progress block: plain atomic counters the
// pipeline's hot paths publish at chunk/block granularity and any goroutine
// may read at any time. It is the always-on companion to the span-recording
// Recorder — a sorter owns exactly one Progress for its whole life, so the
// steady-state publishing cost is an atomic add per chunk, with no
// allocation and no locks.
//
// All fields are monotonically non-decreasing. Access them only through
// their atomic methods (Load/Store/Add) — the atomicfield analyzer flags
// by-value copies of these fields as lint errors.
type Progress struct {
	// stage is the run's lifecycle position (a Stage value).
	stage atomic.Int32
	// stageEnteredNs[s] is the wall-clock unix nanosecond the run entered
	// stage s (0 = not reached), for per-stage throughput.
	stageEnteredNs [NumStages]atomic.Int64

	// RowsExpected is the total input rows, when the caller knows it up
	// front (SortTable does); 0 means unknown and progress estimation falls
	// back to the rows ingested so far.
	RowsExpected atomic.Int64
	// RowsIngested counts rows converted into pending runs (chunk
	// granularity).
	RowsIngested atomic.Int64
	// RowsSorted counts rows that have left run generation inside a sorted
	// run (run granularity).
	RowsSorted atomic.Int64
	// RunsGenerated counts thread-local sorted runs cut.
	RunsGenerated atomic.Int64
	// SpillBytesWritten and SpillBytesRead mirror the sorter's spill I/O
	// accounting (write granularity: one flushed file or block).
	SpillBytesWritten atomic.Int64
	SpillBytesRead    atomic.Int64
	// MergeRowsPlanned is the merge work planned so far: the input rows
	// when Finalize starts, plus each intermediate fan-in-reducing pass's
	// rows as the multi-pass plan executes. It can exceed RowsExpected —
	// multi-pass merges move rows more than once.
	MergeRowsPlanned atomic.Int64
	// RowsMerged counts rows emitted by merges (batch granularity),
	// including intermediate passes.
	RowsMerged atomic.Int64
	// MergePasses counts completed intermediate fan-in-reducing passes.
	MergePasses atomic.Int64
	// RowsGathered counts rows materialized back into columnar chunks.
	RowsGathered atomic.Int64
	// PrefetchedBlocks and PrefetchHits mirror the spill read-ahead
	// counters; PressureSpills counts runs shed to disk under memory
	// pressure.
	PrefetchedBlocks atomic.Int64
	PrefetchHits     atomic.Int64
	PressureSpills   atomic.Int64
}

// AdvanceTo moves the run's lifecycle stage forward to st, recording the
// entry timestamp on the first arrival. Calls with a stage at or behind the
// current one are no-ops, so racing publishers (two sinks observing the
// first append) and repeated calls are safe.
func (p *Progress) AdvanceTo(st Stage) {
	for {
		cur := p.stage.Load()
		if int32(st) <= cur {
			return
		}
		if p.stage.CompareAndSwap(cur, int32(st)) {
			p.stageEnteredNs[st].CompareAndSwap(0, time.Now().UnixNano())
			return
		}
	}
}

// Stage returns the run's current lifecycle stage.
func (p *Progress) Stage() Stage { return Stage(p.stage.Load()) }

// StageEntered returns when the run entered stage st; the zero time when it
// has not.
func (p *Progress) StageEntered(st Stage) time.Time {
	ns := p.stageEnteredNs[st].Load()
	if ns == 0 {
		return time.Time{}
	}
	return time.Unix(0, ns)
}

// ProgressCounters is a point-in-time copy of a Progress block, safe to
// marshal and compare.
type ProgressCounters struct {
	Stage             string `json:"stage"`
	RowsExpected      int64  `json:"rows_expected"`
	RowsIngested      int64  `json:"rows_ingested"`
	RowsSorted        int64  `json:"rows_sorted"`
	RunsGenerated     int64  `json:"runs_generated"`
	SpillBytesWritten int64  `json:"spill_bytes_written"`
	SpillBytesRead    int64  `json:"spill_bytes_read"`
	MergeRowsPlanned  int64  `json:"merge_rows_planned"`
	RowsMerged        int64  `json:"rows_merged"`
	MergePasses       int64  `json:"merge_passes"`
	RowsGathered      int64  `json:"rows_gathered"`
	PrefetchedBlocks  int64  `json:"prefetched_blocks"`
	PrefetchHits      int64  `json:"prefetch_hits"`
	PressureSpills    int64  `json:"pressure_spills"`
}

// Counters snapshots the progress block. The fields are read one atomic
// load at a time, so the snapshot is per-field consistent (each value was
// current at some instant during the call) but not a global atomic cut —
// exactly what a live progress display needs.
func (p *Progress) Counters() ProgressCounters {
	return ProgressCounters{
		Stage:             p.Stage().String(),
		RowsExpected:      p.RowsExpected.Load(),
		RowsIngested:      p.RowsIngested.Load(),
		RowsSorted:        p.RowsSorted.Load(),
		RunsGenerated:     p.RunsGenerated.Load(),
		SpillBytesWritten: p.SpillBytesWritten.Load(),
		SpillBytesRead:    p.SpillBytesRead.Load(),
		MergeRowsPlanned:  p.MergeRowsPlanned.Load(),
		RowsMerged:        p.RowsMerged.Load(),
		MergePasses:       p.MergePasses.Load(),
		RowsGathered:      p.RowsGathered.Load(),
		PrefetchedBlocks:  p.PrefetchedBlocks.Load(),
		PrefetchHits:      p.PrefetchHits.Load(),
		PressureSpills:    p.PressureSpills.Load(),
	}
}

// PhaseWeights are the relative per-row costs of the pipeline's logical
// phases, used to combine per-phase completion fractions into one overall
// progress number (and from it an ETA). core seeds them from
// perfmodel.SortPhaseWeights; the zero value falls back to
// DefaultPhaseWeights.
type PhaseWeights struct {
	Ingest  float64
	RunSort float64
	Merge   float64
	Gather  float64
}

// DefaultPhaseWeights is the fallback weighting when the caller provides
// none: equal thirds for the compute stages with a cheaper gather.
var DefaultPhaseWeights = PhaseWeights{Ingest: 1, RunSort: 1, Merge: 1, Gather: 0.5}

// valid reports whether the weights are usable: non-negative with a
// positive sum.
func (w PhaseWeights) valid() bool {
	if w.Ingest < 0 || w.RunSort < 0 || w.Merge < 0 || w.Gather < 0 {
		return false
	}
	return w.Ingest+w.RunSort+w.Merge+w.Gather > 0
}
