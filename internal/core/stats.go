package core

import (
	"fmt"
	"io"
	"strings"
	"time"

	"rowsort/internal/mergepath"
	"rowsort/internal/obs"
)

// StrategyDecision is one run's recorded execution-plan choice: the sort
// that generated the run, the sampled statistics and modeled costs behind
// the choice, and the run's spill/merge hints. It aliases the obs wire type
// so the observability registry serializes decisions without conversion.
type StrategyDecision = obs.StrategyDecision

// SortStats is the unified telemetry snapshot of one sorter: ingestion and
// run-generation counters, spill I/O accounting, memory-budget pressure,
// merge-phase counters, materialization volume, memory high-water mark,
// and wall-clock durations of the three sequential pipeline stages. It is
// the sorter's single stats surface (the old MergeStats and SpillStats
// accessors it superseded are gone). Counters and stage durations are
// always collected; the per-phase span breakdown in Phases is populated
// only when Options.Telemetry is set.
type SortStats struct {
	// RowsIngested is the number of rows appended through sinks (or TopN).
	RowsIngested int64
	// RunsGenerated is the number of thread-local sorted runs cut.
	RunsGenerated int64
	// NormKeyBytes is the logical (uncompressed) volume of normalized key
	// bytes produced during run generation: full-encoding key width per
	// row, excluding payload refs and alignment padding. It is
	// encoding-independent, so the number stays comparable across
	// Options.KeyComp settings; PhysKeyBytes is what was actually emitted
	// (the compressed key width per row), and the gap between the two is
	// the key-compression saving.
	NormKeyBytes int64
	PhysKeyBytes int64
	// KeyEncodings records the sampled per-column encoding decisions, one
	// entry per sort key; empty when no compression plan is active.
	KeyEncodings []KeyEncodingStat
	// DictEscapes counts encoded values the sampled dictionaries and
	// shared prefixes did not cover (dictionary escape codes and
	// shared-prefix class-0/2 encodings).
	DictEscapes int64
	// RunsGroupSorted counts runs sorted via duplicate-run grouping (a
	// sampled plan that held on the whole run); DupGroupRows is the rows
	// those runs did not move through the radix sort individually (run rows
	// minus groups).
	RunsGroupSorted int64
	DupGroupRows    int64
	// RunsTieRepaired counts lossy compressed runs sorted with the
	// radix-plus-block-repair path instead of comparator pdqsort.
	RunsTieRepaired int64
	// StrategyDecisions records, per generated run, the execution-plan
	// choice and the sampled statistics it came from. Populated on every
	// path (a run whose plan a tie-break dictated records it with Forced
	// set), so the log always explains what ran and why.
	StrategyDecisions []StrategyDecision
	// SpillBlocksFrontCoded counts spill blocks whose key section was
	// written front-coded (a sampled plan asked for the attempt; blocks that
	// would not shrink stay raw and are not counted).
	SpillBlocksFrontCoded int64
	// SpillBytesWritten and SpillBytesRead account spill-file I/O. A merge
	// reads every byte of its runs exactly once, whatever its task and
	// worker count (a block that straddles two tasks is decoded once and
	// handed to both), so after a result drained to its end read equals
	// written; multi-pass merges re-spill intermediates, and both count
	// those too. Without passes nothing is read before Rows.
	SpillBytesWritten int64
	SpillBytesRead    int64
	// SpillFilesRemoved counts spill files successfully deleted (by the
	// merges, as they finish with them, and by Close); SpillRemoveErrors
	// counts failed removal attempts, whose errors Close also returns.
	SpillFilesRemoved int64
	SpillRemoveErrors int64
	// GatherBytesMoved is the fixed-width payload row bytes moved by result
	// materialization (rows gathered × payload row width), counted per chunk
	// gathered: an abandoned iterator adds only what it produced.
	GatherBytesMoved int64
	// PeakResidentRunBytes is the high-water mark of bytes charged to the
	// sorter's memory broker at once: sink buffers, sorted runs (key rows
	// plus payload rows and string heaps), pooled buffers and merge blocks.
	PeakResidentRunBytes int64
	// MemoryLimit echoes Options.MemoryLimit (0 = unlimited).
	MemoryLimit int64
	// MemoryPressureEvents counts reservation requests the broker could
	// not satisfy within budget; PressureSpills counts resident runs shed
	// to disk in response. Both zero for unbudgeted sorts.
	MemoryPressureEvents int64
	PressureSpills       int64
	// Merge is the merge's comparison counters (see mergepath.Stats): what
	// Finalize merged plus what the result iterator did — the latest one;
	// iterating an in-memory sort again replaces its share, and an iterator
	// closed early reports what it merged. Merge.BytesMoved counts key rows
	// a merge copied (intermediate passes): the final merge
	// hands payload references straight to the gather, over runs in memory
	// and over spilled ones alike, so a sort without passes reports 0.
	Merge mergepath.Stats
	// PrefetchedBlocks counts spill blocks decoded through a read-ahead
	// block stage; PrefetchHits counts those already decoded when a merge
	// first asked for them (hits/prefetched is the read-ahead hit rate);
	// MergeStall is the total time merges spent without a block they asked
	// for — decoding it themselves, or waiting for whoever was. All zero
	// with ReadAhead disabled.
	PrefetchedBlocks int64
	PrefetchHits     int64
	MergeStall       time.Duration
	// MergePasses, MergePassRuns and MergePassBytes describe the executed
	// multi-pass merge plan: how many intermediate fan-in-reducing passes
	// ran, how many input runs they consumed, and how many bytes they
	// rewrote to disk. MergeFanIn is the final merge's fan-in (the
	// surviving run count); zero when no external merge ran.
	MergePasses    int64
	MergePassRuns  int64
	MergePassBytes int64
	MergeFanIn     int64
	// ExtMergeParts is the fence-cut tasks the final merge of spilled runs
	// was claimed in by the latest result iterator (0 = nothing was merged
	// from disk; 1 under a budget, or when every fence ties).
	ExtMergeParts int64
	// DurRunGen, DurMerge and DurGather are the wall-clock durations of the
	// three sequential pipeline stages: first Append to Finalize (run
	// generation, including spill writes), Finalize itself (a budgeted sort's
	// fan-in-reducing passes; otherwise near zero, since the final merge is
	// fused into the next stage and its busy time sits under Phases), and the result
	// iterators from Rows to exhaustion or Close. DurTotal spans first
	// Append to the end of Result, so the three stages sum to DurTotal up to
	// the caller's time between stages.
	DurRunGen time.Duration
	DurMerge  time.Duration
	DurGather time.Duration
	DurTotal  time.Duration
	// Phases is the span-level breakdown (per-phase busy time, wall window
	// and span count across all workers); zero unless Options.Telemetry was
	// set.
	Phases obs.Summary
}

// KeyEncodingStat is one sort key's sampled compression decision.
type KeyEncodingStat struct {
	// Column is the key's schema column index.
	Column int
	// Encoding describes the decision, e.g. "dict(n=12,w=1)",
	// "trunc(skip=7,keep=1)" or "full".
	Encoding string
	// Width and FullWidth are the emitted and uncompressed segment widths
	// in bytes, validity byte included.
	Width, FullWidth int
}

// Stats snapshots the sorter's telemetry. It is safe to call at any point
// in the sorter's life, including concurrently with ingestion.
func (s *Sorter) Stats() SortStats {
	st := SortStats{
		RowsIngested:          s.rowsIn.Load(),
		RunsGenerated:         s.runsGen.Load(),
		NormKeyBytes:          s.normKeyBytes.Load(),
		PhysKeyBytes:          s.physKeyBytes.Load(),
		DictEscapes:           s.dictEscapes.Load(),
		RunsGroupSorted:       s.runsGrouped.Load(),
		DupGroupRows:          s.dupGroupRows.Load(),
		RunsTieRepaired:       s.runsTieRepaired.Load(),
		SpillBlocksFrontCoded: s.spillBlocksFC.Load(),
		SpillBytesWritten:     s.spillWritten.Load(),
		SpillBytesRead:        s.spillRead.Load(),
		SpillFilesRemoved:     s.spillRemoved.Load(),
		SpillRemoveErrors:     s.spillRemoveErrs.Load(),
		GatherBytesMoved:      s.gatherBytes.Load(),
		PeakResidentRunBytes:  s.broker.Peak(),
		MemoryLimit:           s.opt.MemoryLimit,
		MemoryPressureEvents:  s.broker.PressureEvents(),
		PressureSpills:        s.pressureSpills.Load(),
		PrefetchedBlocks:      s.prefetchBlocks.Load(),
		PrefetchHits:          s.prefetchHits.Load(),
		MergeStall:            time.Duration(s.prefetchStallNs.Load()),
		MergePasses:           s.mergePasses.Load(),
		MergePassRuns:         s.mergePassRuns.Load(),
		MergePassBytes:        s.mergePassBytes.Load(),
		MergeFanIn:            s.mergeFanIn.Load(),
		ExtMergeParts:         s.extMergeParts.Load(),
		DurGather:             time.Duration(s.durGather.Load()),
		Phases:                s.rec.Summary(),
	}
	s.mu.Lock()
	st.Merge = s.mergeStats
	st.Merge.Add(s.drainStats)
	st.StrategyDecisions = append([]StrategyDecision(nil), s.decisions...)
	if p := s.enc.Plan(); p != nil {
		nkeys := s.enc.Keys()
		st.KeyEncodings = make([]KeyEncodingStat, len(nkeys))
		for i, nk := range nkeys {
			end := s.enc.Width()
			if i+1 < len(nkeys) {
				end = s.enc.Offset(i + 1)
			}
			st.KeyEncodings[i] = KeyEncodingStat{
				Column:    nk.Column,
				Encoding:  p.Cols[i].String(),
				Width:     end - s.enc.Offset(i),
				FullWidth: fullSegWidth(nk),
			}
		}
	}
	s.mu.Unlock()

	// Stage durations from the lifecycle timestamps (ns since s.epoch,
	// stored +1 so zero means "not reached"). Stages still in progress
	// report their elapsed time so far.
	now := s.sinceEpoch()
	first := s.tFirstAppend.Load()
	finStart := s.tFinalizeStart.Load()
	finEnd := s.tFinalizeEnd.Load()
	if first > 0 {
		end := now
		if finStart > 0 {
			end = finStart - 1
		}
		st.DurRunGen = time.Duration(end - (first - 1))
	}
	if finStart > 0 {
		end := now
		if finEnd > 0 {
			end = finEnd - 1
		}
		st.DurMerge = time.Duration(end - (finStart - 1))
	}
	if first > 0 {
		end := now
		if last := s.tResultEnd.Load(); last > 0 {
			end = last - 1
		}
		st.DurTotal = time.Duration(end - (first - 1))
	}
	return st
}

// String renders the stats as an aligned multi-line report.
func (st SortStats) String() string {
	var b strings.Builder
	row := func(name, val string) { fmt.Fprintf(&b, "%-24s %s\n", name, val) }
	row("rows ingested", fmt.Sprintf("%d", st.RowsIngested))
	row("runs generated", fmt.Sprintf("%d", st.RunsGenerated))
	row("normalized key bytes", fmt.Sprintf("%d", st.NormKeyBytes))
	if len(st.KeyEncodings) > 0 {
		parts := make([]string, len(st.KeyEncodings))
		for i, ke := range st.KeyEncodings {
			parts[i] = fmt.Sprintf("col%d=%s %d/%dB", ke.Column, ke.Encoding, ke.Width, ke.FullWidth)
		}
		row("key encodings", strings.Join(parts, ", "))
		pct := float64(0)
		if st.NormKeyBytes > 0 {
			pct = 100 * float64(st.PhysKeyBytes) / float64(st.NormKeyBytes)
		}
		row("physical key bytes", fmt.Sprintf("%d (%.0f%% of logical)", st.PhysKeyBytes, pct))
	}
	if st.DictEscapes > 0 {
		row("dict/prefix escapes", fmt.Sprintf("%d", st.DictEscapes))
	}
	if st.RunsGroupSorted > 0 {
		row("rle group sort", fmt.Sprintf("%d runs, %d duplicate rows grouped", st.RunsGroupSorted, st.DupGroupRows))
	}
	if st.RunsTieRepaired > 0 {
		row("tie-repaired runs", fmt.Sprintf("%d", st.RunsTieRepaired))
	}
	if byAlgo := obs.AlgoCounts(st.StrategyDecisions); len(byAlgo) > 0 {
		parts := make([]string, len(byAlgo))
		for i, ac := range byAlgo {
			parts[i] = fmt.Sprintf("%s=%d", ac.Algo, ac.Runs)
		}
		row("run sort strategy", strings.Join(parts, ", "))
	}
	if st.SpillBlocksFrontCoded > 0 {
		row("front-coded spill blocks", fmt.Sprintf("%d", st.SpillBlocksFrontCoded))
	}
	row("spill written / read", fmt.Sprintf("%d / %d bytes", st.SpillBytesWritten, st.SpillBytesRead))
	row("spill files removed", fmt.Sprintf("%d (%d errors)", st.SpillFilesRemoved, st.SpillRemoveErrors))
	row("gather bytes moved", fmt.Sprintf("%d", st.GatherBytesMoved))
	row("peak resident run bytes", fmt.Sprintf("%d", st.PeakResidentRunBytes))
	if st.MemoryLimit > 0 {
		row("memory limit", fmt.Sprintf("%d bytes", st.MemoryLimit))
	}
	if st.MemoryPressureEvents > 0 || st.PressureSpills > 0 {
		row("memory pressure", fmt.Sprintf("%d events, %d runs spilled",
			st.MemoryPressureEvents, st.PressureSpills))
	}
	row("merge comparisons", fmt.Sprintf("%d (%d ovc hits, %d full, %d tie-breaks)",
		st.Merge.Comparisons, st.Merge.OVCHits, st.Merge.FullCompares, st.Merge.TieBreaks))
	if st.Merge.DupRunHits > 0 {
		row("merge dup-run hits", fmt.Sprintf("%d", st.Merge.DupRunHits))
	}
	if st.PrefetchedBlocks > 0 {
		row("spill read-ahead", fmt.Sprintf("%d blocks, %d hits (%.0f%%), %s stalled",
			st.PrefetchedBlocks, st.PrefetchHits,
			100*float64(st.PrefetchHits)/float64(st.PrefetchedBlocks),
			st.MergeStall.Round(time.Microsecond)))
	}
	if st.MergePasses > 0 {
		row("merge passes", fmt.Sprintf("%d (%d runs, %d bytes rewritten)",
			st.MergePasses, st.MergePassRuns, st.MergePassBytes))
	}
	if st.MergeFanIn > 0 {
		fan := fmt.Sprintf("%d-way", st.MergeFanIn)
		if st.ExtMergeParts > 0 {
			fan += fmt.Sprintf(" in %d tasks", st.ExtMergeParts)
		}
		row("final merge", fan)
	}
	row("run generation", st.DurRunGen.Round(time.Microsecond).String())
	row("merge", st.DurMerge.Round(time.Microsecond).String())
	row("gather", st.DurGather.Round(time.Microsecond).String())
	row("total", st.DurTotal.Round(time.Microsecond).String())
	if phases := st.Phases.String(); st.Phases.Workers > 0 {
		b.WriteString(phases)
	}
	return b.String()
}

// WritePrometheus writes the stats in Prometheus text exposition format
// (rowsort_* metrics), including the per-phase busy times when telemetry
// was enabled. All families go through obs.PromWriter, so # HELP/# TYPE
// metadata and label escaping are uniform; obs.ValidatePrometheus
// parse-checks the output in the tests.
func (st SortStats) WritePrometheus(w io.Writer) error {
	var pw obs.PromWriter
	counter := func(name, help string, v float64) {
		pw.Family(name, "counter", help)
		pw.Sample(nil, v)
	}
	gauge := func(name, help string, v float64) {
		pw.Family(name, "gauge", help)
		pw.Sample(nil, v)
	}
	counter("rowsort_rows_ingested_total", "Rows appended through sinks.", float64(st.RowsIngested))
	counter("rowsort_runs_generated_total", "Thread-local sorted runs cut.", float64(st.RunsGenerated))
	counter("rowsort_normalized_key_bytes_total", "Logical (uncompressed) normalized key bytes produced.", float64(st.NormKeyBytes))
	counter("rowsort_physical_key_bytes_total", "Normalized key bytes actually emitted (compressed encodings).", float64(st.PhysKeyBytes))
	counter("rowsort_key_escapes_total", "Values outside the sampled dictionary or shared prefix.", float64(st.DictEscapes))
	counter("rowsort_rle_runs_total", "Runs sorted via duplicate-run grouping.", float64(st.RunsGroupSorted))
	counter("rowsort_rle_dup_rows_total", "Rows grouped away from individual sorting.", float64(st.DupGroupRows))
	counter("rowsort_tie_repaired_runs_total", "Lossy compressed runs sorted radix-plus-repair.", float64(st.RunsTieRepaired))
	if byAlgo := obs.AlgoCounts(st.StrategyDecisions); len(byAlgo) > 0 {
		pw.Family("rowsort_strategy_runs_total", "counter", "Runs generated per selected sort algorithm.")
		for _, ac := range byAlgo {
			pw.Sample([]string{"algo", ac.Algo}, float64(ac.Runs))
		}
	}
	counter("rowsort_spill_fc_blocks_total", "Spill blocks written with front-coded key sections.", float64(st.SpillBlocksFrontCoded))
	counter("rowsort_spill_written_bytes_total", "Bytes written to spill files.", float64(st.SpillBytesWritten))
	counter("rowsort_spill_read_bytes_total", "Bytes read back from spill files.", float64(st.SpillBytesRead))
	counter("rowsort_spill_files_removed_total", "Spill files deleted.", float64(st.SpillFilesRemoved))
	counter("rowsort_spill_remove_errors_total", "Failed spill-file removals.", float64(st.SpillRemoveErrors))
	counter("rowsort_gather_bytes_total", "Payload row bytes moved by materialization.", float64(st.GatherBytesMoved))
	gauge("rowsort_peak_resident_run_bytes", "High-water mark of resident run bytes.", float64(st.PeakResidentRunBytes))
	gauge("rowsort_mem_limit_bytes", "Configured memory budget (0 = unlimited).", float64(st.MemoryLimit))
	counter("rowsort_mem_pressure_events_total", "Reservations the broker could not satisfy within budget.", float64(st.MemoryPressureEvents))
	counter("rowsort_pressure_spills_total", "Resident runs shed to disk under memory pressure.", float64(st.PressureSpills))
	counter("rowsort_merge_comparisons_total", "Two-row matches played in the merge.", float64(st.Merge.Comparisons))
	counter("rowsort_merge_ovc_hits_total", "Matches decided by offset-value codes alone.", float64(st.Merge.OVCHits))
	counter("rowsort_merge_tie_breaks_total", "Matches resolved by the tie-break comparator.", float64(st.Merge.TieBreaks))
	counter("rowsort_merge_dup_run_hits_total", "Merge steps decided by the duplicate-run fast path.", float64(st.Merge.DupRunHits))
	counter("rowsort_prefetch_blocks_total", "Spill blocks decoded through a read-ahead block stage.", float64(st.PrefetchedBlocks))
	counter("rowsort_prefetch_hits_total", "Spill blocks already decoded when a merge first asked.", float64(st.PrefetchHits))
	gauge("rowsort_merge_stall_seconds", "Time the merge spent waiting for spill blocks.", st.MergeStall.Seconds())
	counter("rowsort_merge_passes_total", "Intermediate fan-in-reducing merge passes.", float64(st.MergePasses))
	counter("rowsort_merge_pass_runs_total", "Input runs consumed by intermediate merge passes.", float64(st.MergePassRuns))
	counter("rowsort_merge_pass_bytes_total", "Bytes rewritten to disk by intermediate merge passes.", float64(st.MergePassBytes))
	gauge("rowsort_merge_fan_in", "The final external merge's fan-in (0 = none ran).", float64(st.MergeFanIn))
	gauge("rowsort_ext_merge_partitions", "Tasks the final merge of spilled runs was claimed in (0 = none ran).", float64(st.ExtMergeParts))
	gauge("rowsort_stage_run_generation_seconds", "Wall time of the run-generation stage.", st.DurRunGen.Seconds())
	gauge("rowsort_stage_merge_seconds", "Wall time of the merge stage.", st.DurMerge.Seconds())
	gauge("rowsort_stage_gather_seconds", "Wall time of the materialization stage.", st.DurGather.Seconds())
	gauge("rowsort_stage_total_seconds", "Wall time first Append to end of Result.", st.DurTotal.Seconds())
	if st.Phases.Workers > 0 {
		pw.Family("rowsort_phase_busy_seconds", "counter", "Summed span time per phase across workers.")
		for p := 0; p < obs.NumPhases; p++ {
			pw.Sample([]string{"phase", obs.Phase(p).String()}, st.Phases.Phases[p].Busy.Seconds())
		}
	}
	return pw.Flush(w)
}
