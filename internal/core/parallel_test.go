package core

import (
	"bytes"
	"os"
	"path/filepath"
	"testing"

	"rowsort/internal/mem"
	"rowsort/internal/obs"
	"rowsort/internal/vector"
)

// parallelTestKeys sorts on every column, with the tie-prone varchar
// mid-key: a full-key tie is then a fully identical row, so output
// byte-identity is well-defined even when parallel ingest assigns rows to
// runs nondeterministically (equal rows are interchangeable).
var parallelTestKeys = []SortColumn{
	{Column: 1, NullsLast: true},
	{Column: 2, Descending: true},
	{Column: 3},
	{Column: 0},
}

// parallelSort runs the fully parallel pipeline — ParallelSink ingest, the
// final merge and gather on Rows' workers — and returns the result plus the
// sorter's stats.
func parallelSort(t *testing.T, tbl *vector.Table, keys []SortColumn, opt Options, prep ...func(*Sorter)) (*vector.Table, SortStats) {
	t.Helper()
	s, err := NewSorter(tbl.Schema, keys, opt)
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	for _, p := range prep {
		p(s)
	}
	sink := s.NewParallelSink()
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
	out, err := s.Result()
	if err != nil {
		t.Fatal(err)
	}
	st := s.Stats()
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	return out, st
}

// TestParallelSinkMatchesSink checks the streaming parallel ingest: a
// single producer feeding a ParallelSink yields the same table as a plain
// Sink at every worker count, in memory and with eager spilling.
func TestParallelSinkMatchesSink(t *testing.T) {
	tbl := mixedTable(3*vector.DefaultVectorSize+99, 103)
	want := sortWith(t, tbl, parallelTestKeys, Options{Threads: 1, RunSize: 700})
	wantRows := rowify(t, want)
	for _, threads := range []int{1, 2, 4, 8} {
		for _, spill := range []bool{false, true} {
			opt := Options{Threads: threads, RunSize: 700}
			if spill {
				opt.SpillDir = t.TempDir()
			}
			got, _ := parallelSort(t, tbl, parallelTestKeys, opt)
			if !bytes.Equal(rowify(t, got).Bytes(), wantRows.Bytes()) {
				t.Errorf("threads=%d spill=%v: ParallelSink output differs from Sink", threads, spill)
			}
		}
	}
}

// TestParallelSinkErrorPropagation checks a failing chunk poisons the
// group: the error surfaces from Close (or an earlier Append), later
// Appends refuse, and Close stays idempotent.
func TestParallelSinkErrorPropagation(t *testing.T) {
	tbl := mixedTable(2*vector.DefaultVectorSize, 104)
	s, err := NewSorter(tbl.Schema, parallelTestKeys, Options{Threads: 4, RunSize: 500})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	sink := s.NewParallelSink()
	bad := vector.NewChunk(tbl.Schema[:2], 1)
	bad.Vectors[0].AppendInt32(1)
	bad.Vectors[1].AppendInt16(2)
	var appendErr error
	for _, c := range []*vector.Chunk{tbl.Chunks[0], bad, tbl.Chunks[1]} {
		if err := sink.Append(c); err != nil {
			appendErr = err
			break
		}
	}
	closeErr := sink.Close()
	if appendErr == nil && closeErr == nil {
		t.Fatal("bad chunk produced no error from Append or Close")
	}
	if again := sink.Close(); again != closeErr {
		t.Errorf("second Close() = %v, want the same %v", again, closeErr)
	}
	if err := sink.Append(tbl.Chunks[0]); err == nil {
		t.Error("Append after Close succeeded")
	}
}

// TestParallelStreamCancellation abandons a budgeted streaming merge — with
// parallel ingest and the read-ahead stage live — mid-stream: Close must
// still stop the stage, delete every spill file, and return every broker
// byte.
func TestParallelStreamCancellation(t *testing.T) {
	tbl := mixedTable(6*vector.DefaultVectorSize, 105)
	broker := mem.NewBroker("cancel", 48<<10)
	s, err := NewSorter(tbl.Schema, parallelTestKeys,
		Options{Threads: 4, RunSize: 700, Broker: broker})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	sink := s.NewParallelSink()
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
	if !s.onDisk {
		t.Fatal("48KiB budget did not defer the final merge to the iterator")
	}

	it, err := s.Rows()
	if err != nil {
		t.Fatal(err)
	}
	// One chunk in, the merge (and its read-ahead stage) is mid-flight; walk
	// away.
	if chunk, err := it.Next(); err != nil || chunk == nil {
		t.Fatalf("first streamed chunk: %v, %v", chunk, err)
	}
	if err := it.Close(); err != nil {
		t.Fatal(err)
	}

	tmp := s.spills.Root()
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	if tmp != "" {
		if _, err := os.Stat(tmp); !os.IsNotExist(err) {
			t.Errorf("spill dir %s survived Close after abandoned merge", tmp)
		}
	}
	if used := broker.Used(); used != 0 {
		t.Errorf("broker holds %d bytes after Close, want 0", used)
	}
}

// TestMultiPassMergePlanRecorded forces intermediate merge passes with a
// budget far below fan-in × healthy blocks and checks the plan lands in
// the stats: passes ran, the final fan-in obeys the plan, and the output
// still matches the unbudgeted sort.
func TestMultiPassMergePlanRecorded(t *testing.T) {
	tbl := mixedTable(40_000, 106)
	want := sortWith(t, tbl, parallelTestKeys, Options{Threads: 1, RunSize: 600,
		SpillDir: t.TempDir(), ReadAhead: -1})
	wantRows := rowify(t, want)

	broker := mem.NewBroker("multipass", 64<<10)
	opt := Options{Threads: 2, RunSize: 600, Broker: broker}
	got, st := parallelSort(t, tbl, parallelTestKeys, opt)
	if st.MergePasses == 0 {
		t.Fatalf("64KiB budget over %d runs forced no intermediate merge passes: %+v",
			st.RunsGenerated, st)
	}
	if passRuns := st.Counters[obs.MergePassRuns]; passRuns < 2*st.MergePasses {
		t.Errorf("%d merge passes consumed only %d runs", st.MergePasses, passRuns)
	}
	if st.MergePassBytes == 0 {
		t.Error("merge passes rewrote no bytes")
	}
	if !bytes.Equal(rowify(t, got).Bytes(), wantRows.Bytes()) {
		t.Error("multi-pass merge output differs from single-pass sort")
	}
	if used := broker.Used(); used != 0 {
		t.Errorf("broker holds %d bytes after Close, want 0", used)
	}
}

// TestFinalizeShedsResidentRunsBeforeCascading pins what a budgeted Finalize
// does when the plan is short because runs are still in memory: it sheds
// residents, largest first, until the survivors can stream at once, instead
// of cascading passes over everything. How many runs are resident at
// Finalize is a matter of sink timing, so the test sets the state up by
// hand: every run resident but one, and the budget all but taken.
func TestFinalizeShedsResidentRunsBeforeCascading(t *testing.T) {
	tbl := mixedTable(40_000, 107)
	want := sortWith(t, tbl, parallelTestKeys, Options{Threads: 1, RunSize: 2500,
		SpillDir: t.TempDir(), ReadAhead: -1})

	broker := mem.NewBroker("shed", 64<<20)
	s, err := NewSorter(tbl.Schema, parallelTestKeys, Options{Threads: 1, RunSize: 2500, Broker: broker})
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
	if err := s.spillRun(s.runs[0], nil); err != nil {
		t.Fatal(err)
	}
	s.dropPools()
	hog := broker.Reserve("hog", broker.Remaining()-(32<<10))
	defer hog.Release()

	if err := s.Finalize(); err != nil {
		t.Fatal(err)
	}
	st := s.Stats()
	resident := 0
	for _, id := range s.resultIDs {
		if s.runs[id].keys != nil {
			resident++
		}
	}
	if st.MergePasses != 0 || st.PressureSpills == 0 || resident == 0 || len(s.resultIDs) != int(st.RunsGenerated) {
		t.Fatalf("32KiB short of %d runs: %d passes, %d runs shed, %d of %d survivors resident; want no pass, some shed, some resident",
			st.RunsGenerated, st.MergePasses, st.PressureSpills, resident, len(s.resultIDs))
	}
	got, err := s.Result()
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(rowify(t, got).Bytes(), rowify(t, want).Bytes()) {
		t.Error("output after shedding differs from the single-pass sort")
	}
}

// TestRangeTrimmedBlocksMergeLikeSequential pins the fence-cut tasks' block
// trimming against the merger-held code carry: a task's first block of a run
// usually starts mid-block (pad > 0 — its first key enters the tree through
// the initial tournament, with no carry), later blocks are coded against the
// carry, and the tasks' concatenated key rows must be the sequential merge's,
// at every thread count.
func TestRangeTrimmedBlocksMergeLikeSequential(t *testing.T) {
	tbl := mixedTable(40_000, 105)
	opt := Options{Threads: 1, RunSize: 5000, SpillDir: t.TempDir()}

	// White box: merge the same spilled runs (a single sink cuts the same
	// ones every time) as one task, and as the tasks the plan cuts, each
	// through a stage of its own — a stage reads its files once.
	drain := func(single bool) (keys []byte, tasks, trimmed int) {
		s := finalizedSorter(t, tbl, mergeTestKeys, opt, pinBlockRows(64))
		defer s.Close()
		plan := s.planSpillTasks(s.resultIDs, single)
		res := s.broker.Reserve("merge", 0)
		st, err := s.spills.NewStage(plan.Plan, res, s.opt.readAhead(), 1)
		if err != nil {
			t.Fatal(err)
		}
		defer st.Close(false)
		e := s.newExtMerge(s.ctx, plan, st, nil)
		for task := 0; task < plan.Tasks(); task++ {
			if err := e.open(task); err != nil {
				t.Fatal(err)
			}
			for i := range e.cur {
				if e.cur[i].pad > 0 {
					trimmed++
				}
			}
			for {
				keyRow, _, _, ok := e.next()
				if !ok {
					break
				}
				keys = append(keys, keyRow...)
				e.settle()
			}
			if e.err != nil {
				t.Fatal(e.err)
			}
		}
		// The last release of a run's last block removes its file, and
		// what the stage still holds is idle read buffers, whole ones.
		if left, _ := filepath.Glob(filepath.Join(opt.SpillDir, "*")); len(left) > 0 {
			t.Errorf("%d spill files outlive the last task: a block was never released", len(left))
		}
		if held, buf := res.Bytes(), s.mergeBlockBytes(plan.ids); held%buf != 0 {
			t.Errorf("the stage holds %d bytes after its last task, not a whole number of %d-byte read buffers", held, buf)
		}
		return keys, plan.Tasks(), trimmed
	}
	want, _, _ := drain(true)
	if len(want) != tbl.NumRows()*((len(want)/tbl.NumRows())&^7) || len(want) == 0 {
		t.Fatalf("sequential merge produced %d key bytes for %d rows", len(want), tbl.NumRows())
	}
	got, tasks, trimmed := drain(false)
	if tasks < 3 {
		t.Fatalf("only %d tasks: the test needs interior ones", tasks)
	}
	if trimmed == 0 {
		t.Fatal("no task started on a head-trimmed block: the case under test never ran")
	}
	if !bytes.Equal(got, want) {
		t.Fatal("concatenated task merges differ from the sequential merge's key rows")
	}

	// End to end at every thread count.
	seq := opt
	seq.SpillDir, seq.ReadAhead = t.TempDir(), -1
	wantTbl, _ := budgetedSort(t, tbl, mergeTestKeys, seq, pinBlockRows(5000))
	wantRows := rowify(t, wantTbl)
	for _, threads := range []int{1, 2, 4} {
		o := opt
		o.SpillDir, o.Threads = t.TempDir(), threads
		gotTbl, st := parallelSort(t, tbl, mergeTestKeys, o, pinBlockRows(64))
		if !bytes.Equal(rowify(t, gotTbl).Bytes(), wantRows.Bytes()) {
			t.Errorf("threads=%d: output differs from the sequential merge", threads)
		}
		if st.ExtMergeParts < 2 {
			t.Errorf("threads=%d: final merge ran in %d tasks, want >= 2", threads, st.ExtMergeParts)
		}
	}
}
