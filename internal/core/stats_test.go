package core

import (
	"bytes"
	"os"
	"reflect"
	"runtime"
	"strings"
	"testing"
	"time"

	"rowsort/internal/obs"
	"rowsort/internal/spill"
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
	if st.Counters[obs.SpillFilesRemoved] != st.RunsGenerated {
		t.Errorf("SpillFilesRemoved = %d, want %d", st.Counters[obs.SpillFilesRemoved], st.RunsGenerated)
	}
	if st.Counters[obs.SpillRemoveErrors] != 0 {
		t.Errorf("SpillRemoveErrors = %d, want 0", st.Counters[obs.SpillRemoveErrors])
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
	removed := s.Stats().Counters[obs.SpillFilesRemoved]
	if removed == 0 {
		t.Fatal("first Close removed no spill files")
	}
	if err := s.Close(); err != nil {
		t.Fatalf("second Close: %v", err)
	}
	if got := s.Stats().Counters[obs.SpillFilesRemoved]; got != removed {
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
	tbl := workload.CatalogSales(2_000, 10, 7)
	ffs := &faultFS{FS: spill.OS()}
	s := ingestedSorter(t, tbl, []SortColumn{{Column: 0}}, Options{RunSize: 1 << 10, SpillDir: t.TempDir()}, pinFS(ffs))
	if s.Stats().SpillBytesWritten == 0 {
		t.Fatal("nothing spilled")
	}
	// The spilled runs' files cannot be removed.
	ffs.arm(fsFault{keepFiles: true})

	err := s.Close()
	if err == nil {
		t.Fatal("Close swallowed the removal error")
	}
	if !strings.Contains(err.Error(), "removing spill file") {
		t.Fatalf("Close error %q does not identify the removal failure", err)
	}
	if got := s.Stats().Counters[obs.SpillRemoveErrors]; got == 0 {
		t.Fatal("SpillRemoveErrors not counted")
	}
	// Double Close retries the stuck files and reports them again, safely.
	if err := s.Close(); err == nil {
		t.Fatal("second Close swallowed the persistent removal error")
	}
	// Once the obstacle is gone, Close succeeds and the files are untracked.
	ffs.arm(fsFault{})
	if err := s.Close(); err != nil {
		t.Fatalf("Close after clearing the obstacle: %v", err)
	}
	if left := spillFiles(t, s.spills.Root()); len(left) != 0 {
		t.Fatalf("%d spill files left", len(left))
	}
	if err := s.Close(); err != nil {
		t.Fatalf("final idempotent Close: %v", err)
	}
}

func TestSortStatsRendering(t *testing.T) {
	st := spillSortStats(t, 8_000)
	text := st.String()
	for _, want := range []string{"rows ingested", "spill written bytes", "spill read bytes", "stage merge", "stage gather", "run sort strategy"} {
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
		"# TYPE rowsort_merge_stall_seconds_total counter",
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

// TestSortStatsViewsCoverTable pins SortStats as a view of the descriptor
// table: String prints every descriptor exactly once (a counter at zero is
// left out, so the snapshot here has none), and every numeric field of the
// struct is a copy of some descriptor's value, no two of the same one — a
// field cannot count something the table does not know. The one exception is
// PhysKeyBytes, which benchmark/ reads and which copies NormKeyBytes.
func TestSortStatsViewsCoverTable(t *testing.T) {
	var v obs.Values
	backs := map[int64]string{} // distinct value -> descriptor name
	for c := range v {
		v[c] = int64(c+1) * 1_000_003
		backs[v[c]] = obs.Descs[c].Name
	}
	st := statsOf(v)

	text := st.String()
	for _, d := range obs.Descs {
		label := strings.TrimSuffix(strings.ReplaceAll(d.Name, "_", " "), " seconds")
		if n := strings.Count(text, " "+label+" "); n != 1 {
			t.Errorf("String() prints %q %d times, want once:\n%s", label, n, text)
		}
	}
	if rows := strings.Count(text, "\n"); rows != obs.NumCounters {
		t.Errorf("String() prints %d rows for %d descriptors:\n%s", rows, obs.NumCounters, text)
	}

	fields := 0
	var walk func(prefix string, rv reflect.Value)
	walk = func(prefix string, rv reflect.Value) {
		for i := 0; i < rv.NumField(); i++ {
			name, f := prefix+rv.Type().Field(i).Name, rv.Field(i)
			var n int64
			switch {
			case name == "Counters" || name == "Phases":
				continue
			case name == "PhysKeyBytes":
				if f.Int() != st.NormKeyBytes {
					t.Errorf("SortStats.PhysKeyBytes = %d, NormKeyBytes = %d", f.Int(), st.NormKeyBytes)
				}
				continue
			case f.Kind() == reflect.Struct:
				walk(name+".", f)
				continue
			case f.CanInt():
				n = f.Int()
			case f.CanUint():
				n = int64(f.Uint())
			default:
				continue // slices: decisions
			}
			if _, ok := backs[n]; !ok {
				t.Errorf("SortStats.%s = %d is backed by no descriptor", name, n)
			}
			delete(backs, n) // a second field of the same counter is not backed either
			fields++
		}
	}
	walk("", reflect.ValueOf(st))
	if fields < 21 {
		t.Errorf("only %d counter fields found in SortStats; benchmark/ alone reads 21", fields)
	}
}

// TestRegistrySnapshotEqualsStats: for a forced-spill sort after Close, the
// registry's snapshot and Stats() agree on every descriptor and on the
// decision log — they are two reads of one block.
func TestRegistrySnapshotEqualsStats(t *testing.T) {
	tbl := workload.CatalogSales(12_000, 10, 7)
	reg := obs.NewRegistry(0)
	_, st, err := SortTableStats(tbl, []SortColumn{{Column: 0}, {Column: 1}}, Options{
		Threads: 2, RunSize: 1_500, SpillDir: t.TempDir(), Telemetry: reg.Recorder("equal"),
	})
	if err != nil {
		t.Fatal(err)
	}
	snaps := reg.Snapshots()
	if len(snaps) != 1 || !snaps[0].Done || snaps[0].Stage != "done" {
		t.Fatalf("registry holds %+v, want the one finished run", snaps)
	}
	if st.SpillBytesRead == 0 || st.SpillBytesRead != st.SpillBytesWritten || st.DurTotal == 0 {
		t.Fatalf("the sort did not spill and drain: %+v", st)
	}
	for c, d := range obs.Descs {
		if got, want := snaps[0].Counters[c], st.Counters[c]; got != want {
			t.Errorf("snapshot %s = %d, Stats() %d", d.Name, got, want)
		}
	}
	if !reflect.DeepEqual(snaps[0].Strategy, st.StrategyDecisions) {
		t.Errorf("snapshot decisions %+v, Stats() %+v", snaps[0].Strategy, st.StrategyDecisions)
	}
}

// TestRetainedRunLeavesSorterCollectable: a registry that retains a run —
// finished or still live — holds its counter block, decisions and recorder,
// none of which can refer to the sorter, so the sorter and its buffers are
// garbage the moment the caller drops them. (The block samples the sort's
// broker, so nothing the broker holds may reach the sorter either: the live
// run here is a budgeted one.)
func TestRetainedRunLeavesSorterCollectable(t *testing.T) {
	tbl := workload.CatalogSales(4_096, 10, 7)
	for _, finish := range []bool{true, false} {
		reg := obs.NewRegistry(8)
		s, err := NewSorter(tbl.Schema, []SortColumn{{Column: 0}}, Options{
			MemoryLimit: 1 << 30, Telemetry: reg.Recorder("retained"),
		})
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
		if finish {
			if err := s.Finalize(); err != nil {
				t.Fatal(err)
			}
			if _, err := s.Result(); err != nil {
				t.Fatal(err)
			}
			if err := s.Close(); err != nil {
				t.Fatal(err)
			}
		}
		freed := make(chan struct{})
		runtime.SetFinalizer(s, func(*Sorter) { close(freed) })
		s, sink = nil, nil
		collected := false
		for i := 0; i < 50 && !collected; i++ {
			runtime.GC()
			select {
			case <-freed:
				collected = true
			case <-time.After(10 * time.Millisecond):
			}
		}
		snaps := reg.Snapshots()
		if len(snaps) != 1 || snaps[0].Done != finish || snaps[0].Counters[obs.RowsIngested] != 4_096 {
			t.Fatalf("finish=%v: the registry retains %+v, want the one run with its rows", finish, snaps)
		}
		if !collected {
			t.Errorf("finish=%v: the run the registry retains still pins its sorter", finish)
		}
	}
}
