package core

import (
	"fmt"
	"io"
	"strconv"
	"strings"
	"time"

	"rowsort/internal/mergepath"
	"rowsort/internal/obs"
)

// StrategyDecision is one run's recorded run-sort: the kernel that generated
// the run and the rule that chose it. It aliases the obs wire type so the
// observability registry serializes decisions without conversion.
type StrategyDecision = obs.StrategyDecision

// SortStats is the typed snapshot of one sorter's telemetry: a view of its
// counter block (obs.Block), the one place the counters live. Counters holds
// every counter of the descriptor table — obs.Descs says what each counts,
// in which unit, for which layer — and String and WritePrometheus are
// generated from it. The named fields are the counters callers read by name,
// copied out of Counters by Stats (statsOf ties each to its descriptor, whose
// help string is its documentation); a counter nobody reads by name has no
// field and is reached as Counters[obs.SpillFilesRemoved]. Counters and stage
// durations are always collected, the span breakdown in Phases only when
// Options.Telemetry is set.
type SortStats struct {
	Counters obs.Values

	RowsIngested  int64
	RunsGenerated int64
	NormKeyBytes  int64
	// PhysKeyBytes equals NormKeyBytes; it stays only because benchmark/
	// reads it.
	PhysKeyBytes int64
	// A merge reads every byte of its runs exactly once, whatever its task
	// and worker count, so after a result drained to its end read equals
	// written; multi-pass merges re-spill intermediates, and both count those
	// too. Without passes nothing is read before Rows.
	SpillBytesWritten int64
	SpillBytesRead    int64
	// GatherBytesMoved is counted per chunk gathered: an abandoned iterator
	// adds only what it produced.
	GatherBytesMoved int64
	// PeakResidentRunBytes is the high-water mark of what the sorter had
	// charged to its memory broker at once: sink buffers, sorted runs, pooled
	// buffers and merge blocks. MemoryLimit echoes Options.MemoryLimit.
	PeakResidentRunBytes int64
	MemoryLimit          int64
	MemoryPressureEvents int64
	PressureSpills       int64
	// Merge is what Finalize's passes merged plus what the latest result
	// iterator did: iterating an in-memory sort again replaces its share, and
	// an iterator closed early reports what it merged. The final merge hands
	// payload references straight to the gather, so only passes move key bytes.
	Merge mergepath.Stats
	// Zero with ReadAhead disabled; hits/prefetched is the read-ahead hit rate.
	PrefetchedBlocks int64
	PrefetchHits     int64
	MergeStall       time.Duration
	// The executed multi-pass plan, the final merge's fan-in (0 when nothing
	// merged from disk) and the fence-cut tasks the latest result iterator
	// over runs on disk claimed: a task every 16 fences, equal keys — a
	// varchar prefix's ties too — split where the stable merge would.
	MergePasses    int64
	MergePassBytes int64
	MergeFanIn     int64
	ExtMergeParts  int64
	// The wall-clock durations of the three sequential stages — first Append
	// to Finalize, Finalize itself (near zero unless a budgeted sort reduces
	// its fan-in: the final merge is fused into the next stage), the result
	// iterators from Rows to exhaustion or Close — and first Append to the end
	// of the last iterator, which the three sum to up to the caller's time
	// between stages. A stage still running reads as its time so far.
	DurRunGen time.Duration
	DurMerge  time.Duration
	DurGather time.Duration
	DurTotal  time.Duration

	// StrategyDecisions records, per generated run, the kernel that sorted
	// it and, when a rule other than radix decided, why (see planRun), so the
	// log always says what ran.
	StrategyDecisions []StrategyDecision
	// Phases is the span-level breakdown: per-phase busy time, wall window and
	// span count across all workers.
	Phases obs.Summary
}

// statsOf fills the counter view of a SortStats from a block snapshot: the
// one place a named field is tied to its descriptor.
func statsOf(v obs.Values) SortStats {
	return SortStats{
		Counters:             v,
		RowsIngested:         v[obs.RowsIngested],
		RunsGenerated:        v[obs.RunsGenerated],
		NormKeyBytes:         v[obs.NormKeyBytes],
		PhysKeyBytes:         v[obs.NormKeyBytes],
		SpillBytesWritten:    v[obs.SpillBytesWritten],
		SpillBytesRead:       v[obs.SpillBytesRead],
		GatherBytesMoved:     v[obs.GatherBytes],
		PeakResidentRunBytes: v[obs.MemPeak],
		MemoryLimit:          v[obs.MemLimit],
		MemoryPressureEvents: v[obs.MemPressureEvents],
		PressureSpills:       v[obs.PressureSpills],
		Merge: mergepath.Stats{
			Comparisons:  uint64(v[obs.MergeComparisons]),
			OVCHits:      uint64(v[obs.MergeOVCHits]),
			FullCompares: uint64(v[obs.MergeFullCompares]),
			TieBreaks:    uint64(v[obs.MergeTieBreaks]),
			DupRunHits:   uint64(v[obs.MergeDupRunHits]),
			BytesMoved:   uint64(v[obs.MergeBytesMoved]),
		},
		PrefetchedBlocks: v[obs.PrefetchedBlocks],
		PrefetchHits:     v[obs.PrefetchHits],
		MergeStall:       time.Duration(v[obs.MergeStall]),
		MergePasses:      v[obs.MergePasses],
		MergePassBytes:   v[obs.MergePassBytes],
		MergeFanIn:       v[obs.MergeFanIn],
		ExtMergeParts:    v[obs.ExtMergeParts],
		DurRunGen:        time.Duration(v[obs.DurRunGen]),
		DurMerge:         time.Duration(v[obs.DurMerge]),
		DurGather:        time.Duration(v[obs.DurGather]),
		DurTotal:         time.Duration(v[obs.DurTotal]),
	}
}

// publishMerge stores the merge comparison counters: passes so far plus the
// latest result iterator's share, totalled by the caller.
func (s *Sorter) publishMerge(m mergepath.Stats) {
	s.ctr.Store(obs.MergeComparisons, int64(m.Comparisons))
	s.ctr.Store(obs.MergeOVCHits, int64(m.OVCHits))
	s.ctr.Store(obs.MergeFullCompares, int64(m.FullCompares))
	s.ctr.Store(obs.MergeTieBreaks, int64(m.TieBreaks))
	s.ctr.Store(obs.MergeDupRunHits, int64(m.DupRunHits))
	s.ctr.Store(obs.MergeBytesMoved, int64(m.BytesMoved))
}

// Stats snapshots the sorter's telemetry. It is safe to call at any point
// in the sorter's life, including concurrently with ingestion.
func (s *Sorter) Stats() SortStats { return BlockStats(s.ctr, s.rec) }

// BlockStats is the SortStats view of an operator's counter block and of the
// spans its recorder (nil for none) holds: what Sorter.Stats reports, and
// what an operator that counts in the same block, such as Top-N, reports.
func BlockStats(ctr *obs.Block, rec *obs.Recorder) SortStats {
	st := statsOf(ctr.Snapshot())
	st.StrategyDecisions = ctr.Decisions()
	st.Phases = rec.Summary()
	return st
}

// String renders the stats as an aligned multi-line report: one row per
// counter that is not zero, in descriptor order under its layer, then the
// run tally by sort algorithm and the span table.
func (st SortStats) String() string {
	var b strings.Builder
	row := func(layer, name, val string) { fmt.Fprintf(&b, "%-8s %-28s %s\n", layer, name, val) }
	for c, d := range obs.Descs {
		v := st.Counters[c]
		if v == 0 {
			continue
		}
		name, val := strings.ReplaceAll(d.Name, "_", " "), strconv.FormatInt(v, 10)
		if d.Unit == "seconds" {
			name, val = strings.TrimSuffix(name, " seconds"), time.Duration(v).Round(time.Microsecond).String()
		}
		row(d.Layer, name, val)
	}
	if byAlgo := obs.AlgoCounts(st.StrategyDecisions); len(byAlgo) > 0 {
		parts := make([]string, len(byAlgo))
		for i, ac := range byAlgo {
			parts[i] = fmt.Sprintf("%s=%d", ac.Algo, ac.Runs)
		}
		row("run-sort", "run sort strategy", strings.Join(parts, ", "))
	}
	if phases := st.Phases.String(); st.Phases.Workers > 0 {
		b.WriteString(phases)
	}
	return b.String()
}

// WritePrometheus writes the stats in Prometheus text exposition format:
// the families obs.WritePrometheus generates from the descriptor table — the
// same ones, unlabelled, that a registry's /metrics serves per run —
// including the per-phase span families when telemetry was enabled.
func (st SortStats) WritePrometheus(w io.Writer) error {
	run := obs.PromRun{Counters: st.Counters, Decisions: st.StrategyDecisions}
	if st.Phases.Workers > 0 {
		run.Trace = &st.Phases
	}
	return obs.WritePrometheus(w, run)
}
