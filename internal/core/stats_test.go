package core

import (
	"bytes"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"rowsort/internal/obs"
	"rowsort/internal/workload"
)

// spillSortStats runs a spilling multi-run sort with telemetry and returns
// its stats. It pins the synchronous external path (no read-ahead) so the
// strict invariant below — decode time on the spill-read phase — stays
// checkable; the read-ahead stage has its own tests in parallel_test.go and
// spilldrain_test.go.
func spillSortStats(t *testing.T, rows int) SortStats {
	t.Helper()
	tbl := workload.CatalogSales(rows, 10, 7)
	keys := []SortColumn{{Column: 0}, {Column: 1}, {Column: 2}, {Column: 3}}
	opt := Options{
		Threads:   2,
		RunSize:   max(1, rows/8),
		SpillDir:  t.TempDir(),
		Telemetry: obs.NewRecorder(),
		ReadAhead: -1,
	}
	out, st, err := SortTableStats(tbl, keys, opt)
	if err != nil {
		t.Fatal(err)
	}
	if out.NumRows() != rows {
		t.Fatalf("sorted %d rows, want %d", out.NumRows(), rows)
	}
	return st
}

func TestSortStatsSpillingSort(t *testing.T) {
	const rows = 20_000
	st := spillSortStats(t, rows)

	if st.RowsIngested != rows {
		t.Errorf("RowsIngested = %d, want %d", st.RowsIngested, rows)
	}
	if st.RunsGenerated < 2 {
		t.Errorf("RunsGenerated = %d, want >= 2 (spilling multi-run sort)", st.RunsGenerated)
	}
	if st.NormKeyBytes <= 0 {
		t.Errorf("NormKeyBytes = %d, want > 0", st.NormKeyBytes)
	}
	if st.SpillBytesWritten <= 0 {
		t.Errorf("SpillBytesWritten = %d, want > 0", st.SpillBytesWritten)
	}
	// The streaming merge reads every spilled byte exactly once.
	if st.SpillBytesRead != st.SpillBytesWritten {
		t.Errorf("SpillBytesRead = %d, want %d (single read pass)", st.SpillBytesRead, st.SpillBytesWritten)
	}
	if st.SpillFilesRemoved != st.RunsGenerated {
		t.Errorf("SpillFilesRemoved = %d, want %d", st.SpillFilesRemoved, st.RunsGenerated)
	}
	if st.SpillRemoveErrors != 0 {
		t.Errorf("SpillRemoveErrors = %d, want 0", st.SpillRemoveErrors)
	}
	if st.GatherBytesMoved <= 0 {
		t.Errorf("GatherBytesMoved = %d, want > 0", st.GatherBytesMoved)
	}
	if st.PeakResidentRunBytes <= 0 {
		t.Errorf("PeakResidentRunBytes = %d, want > 0", st.PeakResidentRunBytes)
	}
	if st.Merge.Comparisons == 0 {
		t.Errorf("Merge.Comparisons = 0, want > 0")
	}

	// The three sequential stage durations must account for the sort's
	// total wall time: SortTable runs them back to back, so the sum matches
	// DurTotal up to scheduling noise (10% plus a fixed floor for very
	// short runs on loaded CI machines).
	sum := st.DurRunGen + st.DurMerge + st.DurGather
	if st.DurTotal <= 0 || sum <= 0 {
		t.Fatalf("durations not recorded: stages=%v total=%v", sum, st.DurTotal)
	}
	diff := st.DurTotal - sum
	if diff < 0 {
		diff = -diff
	}
	if diff > st.DurTotal/10+5*time.Millisecond {
		t.Errorf("stage durations %v (rungen %v + merge %v + gather %v) vs total %v: off by %v",
			sum, st.DurRunGen, st.DurMerge, st.DurGather, st.DurTotal, diff)
	}

	// Span coverage: a spilling sort exercises every phase.
	for _, p := range []obs.Phase{
		obs.PhaseSort, obs.PhaseIngest, obs.PhaseRunSort,
		obs.PhaseSpillWrite, obs.PhaseSpillRead, obs.PhaseMerge, obs.PhaseGather,
	} {
		if st.Phases.Get(p).Count == 0 {
			t.Errorf("phase %v recorded no spans", p)
		}
	}
	if st.Phases.Workers < 3 {
		t.Errorf("only %d trace lanes, want main + sinks + merge + gather", st.Phases.Workers)
	}
}

func TestSortStatsWithoutTelemetry(t *testing.T) {
	// Counters and stage durations are collected even without a recorder;
	// only the span breakdown stays zero.
	tbl := workload.CatalogSales(5_000, 10, 7)
	keys := []SortColumn{{Column: 0}}
	_, st, err := SortTableStats(tbl, keys, Options{Threads: 2, RunSize: 1 << 10})
	if err != nil {
		t.Fatal(err)
	}
	if st.RowsIngested != 5_000 || st.RunsGenerated == 0 || st.DurTotal <= 0 {
		t.Fatalf("counters missing without telemetry: %+v", st)
	}
	if st.Phases.Workers != 0 {
		t.Fatalf("Phases.Workers = %d, want 0 without telemetry", st.Phases.Workers)
	}
}

func TestUnifiedStatsCoverMergeAndSpill(t *testing.T) {
	// Stats() is the sorter's single telemetry surface (the MergeStats and
	// SpillStats accessors are gone): after an external sort's result is
	// drained it must carry both the merge counters and the spill byte
	// accounting — the merge of spilled runs is the iterator's.
	tbl := workload.CatalogSales(10_000, 10, 7)
	keys := []SortColumn{{Column: 0}, {Column: 1}}
	s, err := NewSorter(tbl.Schema, keys, Options{Threads: 2, RunSize: 1 << 10, SpillDir: t.TempDir()})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	sink := s.NewSink()
	for _, c := range tbl.Chunks {
		if err := sink.Append(c); err != nil {
			t.Fatal(err)
		}
	}
	if err := sink.Close(); err != nil {
		t.Fatal(err)
	}
	if err := s.Finalize(); err != nil {
		t.Fatal(err)
	}
	if st := s.Stats(); st.Merge.Comparisons != 0 || st.SpillBytesRead != 0 {
		t.Errorf("Finalize merged or read: %+v, %d spill bytes read", st.Merge, st.SpillBytesRead)
	}
	if out, err := s.Result(); err != nil || out.NumRows() != tbl.NumRows() {
		t.Fatalf("Result: %v", err)
	}
	st := s.Stats()
	if st.Merge.Comparisons == 0 || st.Merge.BytesMoved != 0 {
		t.Errorf("merge counters of a lazily merged spilled sort: %+v; want comparisons, and no key bytes moved", st.Merge)
	}
	if st.SpillBytesWritten == 0 || st.SpillBytesRead != st.SpillBytesWritten {
		t.Errorf("spill accounting off: written %d, read %d (want equal, nonzero)",
			st.SpillBytesWritten, st.SpillBytesRead)
	}
}

func TestCloseIsIdempotent(t *testing.T) {
	tbl := workload.CatalogSales(8_000, 10, 7)
	keys := []SortColumn{{Column: 0}}
	dir := t.TempDir()
	s, err := NewSorter(tbl.Schema, keys, Options{RunSize: 1 << 10, SpillDir: dir})
	if err != nil {
		t.Fatal(err)
	}
	sink := s.NewSink()
	for _, c := range tbl.Chunks {
		if err := sink.Append(c); err != nil {
			t.Fatal(err)
		}
	}
	if err := sink.Close(); err != nil {
		t.Fatal(err)
	}
	// Abort before Finalize: Close must remove the spilled runs, and again
	// must be a clean no-op.
	if err := s.Close(); err != nil {
		t.Fatalf("first Close: %v", err)
	}
	removed := s.Stats().SpillFilesRemoved
	if removed == 0 {
		t.Fatal("first Close removed no spill files")
	}
	if err := s.Close(); err != nil {
		t.Fatalf("second Close: %v", err)
	}
	if got := s.Stats().SpillFilesRemoved; got != removed {
		t.Fatalf("second Close changed SpillFilesRemoved: %d -> %d", removed, got)
	}
	ents, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(ents) != 0 {
		t.Fatalf("%d files left in spill dir after Close", len(ents))
	}
}

func TestCloseSurfacesRemovalErrors(t *testing.T) {
	schema := workload.CatalogSales(16, 10, 7).Schema
	s, err := NewSorter(schema, []SortColumn{{Column: 0}}, Options{})
	if err != nil {
		t.Fatal(err)
	}
	// Track a "spill file" that cannot be removed: a non-empty directory.
	dir := t.TempDir()
	stuck := filepath.Join(dir, "stuck-run")
	if err := os.MkdirAll(filepath.Join(stuck, "child"), 0o755); err != nil {
		t.Fatal(err)
	}
	s.trackSpill(stuck)

	err = s.Close()
	if err == nil {
		t.Fatal("Close swallowed the removal error")
	}
	if !strings.Contains(err.Error(), "removing spill file") {
		t.Fatalf("Close error %q does not identify the removal failure", err)
	}
	if got := s.Stats().SpillRemoveErrors; got == 0 {
		t.Fatal("SpillRemoveErrors not counted")
	}
	// Double Close retries the stuck file and reports it again, safely.
	if err := s.Close(); err == nil {
		t.Fatal("second Close swallowed the persistent removal error")
	}
	// Once the obstacle is gone, Close succeeds and the file is untracked.
	if err := os.RemoveAll(filepath.Join(stuck, "child")); err != nil {
		t.Fatal(err)
	}
	if err := s.Close(); err != nil {
		t.Fatalf("Close after clearing the obstacle: %v", err)
	}
	if err := s.Close(); err != nil {
		t.Fatalf("final idempotent Close: %v", err)
	}
}

func TestTopNStats(t *testing.T) {
	tbl := workload.CatalogSales(4_096, 10, 7)
	top, err := NewTopN(tbl.Schema, []SortColumn{{Column: 3, Descending: true}}, 10,
		Options{Telemetry: obs.NewRecorder()})
	if err != nil {
		t.Fatal(err)
	}
	for _, c := range tbl.Chunks {
		if err := top.Append(c); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := top.Result(); err != nil {
		t.Fatal(err)
	}
	st := top.Stats()
	if st.RowsIngested != 4_096 {
		t.Errorf("RowsIngested = %d, want 4096", st.RowsIngested)
	}
	if st.Phases.Get(obs.PhaseIngest).Count == 0 || st.Phases.Get(obs.PhaseGather).Count == 0 {
		t.Errorf("TopN recorded no ingest/gather spans: %+v", st.Phases)
	}
}

func TestSortStatsRendering(t *testing.T) {
	st := spillSortStats(t, 8_000)
	text := st.String()
	for _, want := range []string{"rows ingested", "spill written / read", "merge", "gather"} {
		if !strings.Contains(text, want) {
			t.Errorf("String() missing %q:\n%s", want, text)
		}
	}
	var buf bytes.Buffer
	if err := st.WritePrometheus(&buf); err != nil {
		t.Fatal(err)
	}
	prom := buf.String()
	for _, want := range []string{
		"rowsort_rows_ingested_total 8000",
		"rowsort_spill_written_bytes_total",
		"rowsort_stage_merge_seconds",
		`rowsort_phase_busy_seconds{phase="spill-read"}`,
	} {
		if !strings.Contains(prom, want) {
			t.Errorf("WritePrometheus missing %q:\n%s", want, prom)
		}
	}
}

func TestTraceFromSpillingSort(t *testing.T) {
	// End-to-end: the recorder of a spilling sort must export a Chrome
	// trace whose spans cover run generation, spill write, read-ahead block
	// decoding (the default merge path prefetches, so spill decode time
	// lands on the prefetch lanes), streamed merge and materialization,
	// with one lane per worker.
	rec := obs.NewRecorder()
	tbl := workload.CatalogSales(16_000, 10, 7)
	keys := []SortColumn{{Column: 0}, {Column: 1}}
	_, _, err := SortTableStats(tbl, keys, Options{
		Threads: 2, RunSize: 1 << 11, SpillDir: t.TempDir(), Telemetry: rec,
	})
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := rec.WriteTrace(&buf); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	for _, want := range []string{
		`"name":"run-sort"`, `"name":"spill-write"`, `"name":"prefetch"`,
		`"name":"merge"`, `"name":"gather"`, `"name":"thread_name"`,
	} {
		if !strings.Contains(out, want) {
			t.Errorf("trace missing %s", want)
		}
	}
}
