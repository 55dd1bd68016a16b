package core

import (
	"bytes"
	"errors"
	"fmt"
	"runtime"
	"testing"
	"time"

	"rowsort/internal/mergepath"
	"rowsort/internal/obs"
	"rowsort/internal/spill"
	"rowsort/internal/vector"
	"rowsort/internal/workload"
)

// Key distributions of drainTable.
const (
	keysUnique = iota
	keysDupHeavy
	keysAllEqual
	keysNearlySorted // workload.NearlySorted's, 0.1% disorder
	keysSawtooth     // workload.SawtoothRuns', ramps of 1,024
	numShapes
)

// drainTable builds n rows of (k Int64, s Varchar, id Int32) in chunks of
// chunkRows: k follows the named distribution, s is k's zero-padded decimal
// and a tail — longer than the 12-byte key prefix, so a run keyed on it merges
// under the tie-break comparator, which equal k reach on every match — and id
// numbers the input rows, so that two outputs with equal row bytes hold the
// same rows in the same order.
func drainTable(n, chunkRows, dist int, seed uint64) *vector.Table {
	rng := workload.NewRNG(seed)
	var shaped []int64
	switch dist {
	case keysNearlySorted:
		shaped = workload.NearlySorted(n, 0.001, seed).Column(0).Int64s()
	case keysSawtooth:
		shaped = workload.SawtoothRuns(n, 1024, seed).Column(0).Int64s()
	}
	schema := vector.Schema{
		{Name: "k", Type: vector.Int64},
		{Name: "s", Type: vector.Varchar},
		{Name: "id", Type: vector.Int32},
	}
	tbl := vector.NewTable(schema)
	for start := 0; start < n; start += chunkRows {
		count := min(chunkRows, n-start)
		c := vector.NewChunk(schema, count)
		for r := 0; r < count; r++ {
			k := int64(7)
			switch dist {
			case keysUnique:
				k = int64(rng.Uint64() >> 1)
			case keysDupHeavy:
				k = int64(rng.Intn(8))
			case keysNearlySorted, keysSawtooth:
				k = shaped[start+r]
			}
			c.Vectors[0].AppendInt64(k)
			c.Vectors[1].AppendString(fmt.Sprintf("%020d-tail", k))
			c.Vectors[2].AppendInt32(int32(start + r))
		}
		tbl.Chunks = append(tbl.Chunks, c)
	}
	return tbl
}

// drainKeys returns drainTable's sort keys: the varchar first when the merge
// is to run on the tie-break comparator, the integer alone otherwise.
func drainKeys(tieBreak bool) []SortColumn {
	if tieBreak {
		return []SortColumn{{Column: 1}, {Column: 0}}
	}
	return []SortColumn{{Column: 0}}
}

// pinBlockRows pins a test sorter's spill blocks to n rows (0 pins nothing).
func pinBlockRows(n int) func(*Sorter) { return func(s *Sorter) { s.pinBlockRows = n } }

// pinFS puts a test sorter's spill files on fsys.
func pinFS(fsys spill.FS) func(*Sorter) {
	return func(s *Sorter) { s.spills = spill.NewDir(fsys, s.opt.SpillDir, s.ctr, s.rec) }
}

// ingestedSorter ingests tbl through a single sink — so the runs, and with
// them the output bytes, are a function of the options — and stops short of
// Finalize. Each prep sees the sorter before the first row goes in, to set a
// test pin. The caller closes the sorter.
func ingestedSorter(t testing.TB, tbl *vector.Table, keys []SortColumn, opt Options, prep ...func(*Sorter)) *Sorter {
	t.Helper()
	s, err := NewSorter(tbl.Schema, keys, opt)
	if err != nil {
		t.Fatal(err)
	}
	for _, p := range prep {
		p(s)
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
	return s
}

// finalizedSorter is ingestedSorter, finalized.
func finalizedSorter(t testing.TB, tbl *vector.Table, keys []SortColumn, opt Options, prep ...func(*Sorter)) *Sorter {
	t.Helper()
	s := ingestedSorter(t, tbl, keys, opt, prep...)
	if err := s.Finalize(); err != nil {
		t.Fatal(err)
	}
	return s
}

// drainAll drains one Rows iterator to exhaustion and closes it.
func drainAll(t testing.TB, s *Sorter) *vector.Table {
	t.Helper()
	out, err := s.Result()
	if err != nil {
		t.Fatal(err)
	}
	return out
}

// sameChunks fails unless got equals want chunk for chunk: the same chunk
// boundaries and the same row-format bytes in every chunk.
func sameChunks(t *testing.T, ctx string, got, want *vector.Table) {
	t.Helper()
	if len(got.Chunks) != len(want.Chunks) {
		t.Fatalf("%s: %d chunks, want %d", ctx, len(got.Chunks), len(want.Chunks))
	}
	rows := func(c *vector.Chunk) []byte {
		return rowify(t, &vector.Table{Schema: got.Schema, Chunks: []*vector.Chunk{c}}).Bytes()
	}
	for i, g := range got.Chunks {
		if w := want.Chunks[i]; g.Len() != w.Len() || !bytes.Equal(rows(g), rows(w)) {
			t.Fatalf("%s: chunk %d (%d rows, want %d) differs", ctx, i, g.Len(), w.Len())
		}
	}
}

// resultFences returns how many fences a drain's plan has over the result's
// runs: a fence every spillBlockRows rows of each, on disk or in memory.
func resultFences(s *Sorter) int {
	n, stride := 0, s.spillBlockRows()
	for _, id := range s.resultIDs {
		n += (s.runs[id].rows + stride - 1) / stride
	}
	return n
}

// waitGoroutines polls until the goroutine count is back to base.
func waitGoroutines(t *testing.T, ctx string, base int) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for runtime.NumGoroutine() > base {
		if time.Now().After(deadline) {
			buf := make([]byte, 1<<16)
			t.Fatalf("%s: %d goroutines, %d before the iterator was opened\n%s",
				ctx, runtime.NumGoroutine(), base, buf[:runtime.Stack(buf, true)])
		}
		time.Sleep(time.Millisecond)
	}
}

// lifecycleRows is six tasks and a tail: more than two workers' window
// holds (so at Threads 2 a Close finds workers waiting for tickets), fewer
// than eight workers' does (so at Threads 8 it finds them all mid-task).
const lifecycleRows = 6*drainTaskRows + 999

// TestRowsCloseJoinsWorkers abandons the iterator before any Next, after the
// first chunk and in the middle of a task, inline and with workers running:
// Close returns promptly and leaves no goroutine behind.
func TestRowsCloseJoinsWorkers(t *testing.T) {
	tbl := workload.UniformInt64s(lifecycleRows, 7)
	for _, threads := range []int{1, 2, 8} {
		s := finalizedSorter(t, tbl, []SortColumn{{Column: 0}}, Options{Threads: threads})
		defer s.Close()
		for _, chunks := range []int{0, 1, 5} {
			ctx := fmt.Sprintf("threads=%d close after %d chunks", threads, chunks)
			base := runtime.NumGoroutine()
			it, err := s.Rows()
			if err != nil {
				t.Fatal(err)
			}
			for i := 0; i < chunks; i++ {
				if c, err := it.Next(); err != nil || c == nil {
					t.Fatalf("%s: chunk %d: %v, %v", ctx, i, c, err)
				}
			}
			start := time.Now()
			if err := it.Close(); err != nil {
				t.Fatalf("%s: %v", ctx, err)
			}
			if d := time.Since(start); d > 2*time.Second {
				t.Errorf("%s: Close took %v", ctx, d)
			}
			waitGoroutines(t, ctx, base)
			if c, err := it.Next(); c != nil || err != nil {
				t.Errorf("%s: Next after Close = %v, %v", ctx, c, err)
			}
		}
	}
}

// TestSorterCloseJoinsIteratorWorkers drops an iterator without closing it:
// Sorter.Close stops and joins its workers, and the iterator, should its
// owner come back to it, fails instead of waiting for chunks nobody makes.
func TestSorterCloseJoinsIteratorWorkers(t *testing.T) {
	tbl := workload.UniformInt64s(lifecycleRows, 8)
	base := runtime.NumGoroutine()
	s := finalizedSorter(t, tbl, []SortColumn{{Column: 0}}, Options{Threads: 2})
	it, err := s.Rows()
	if err != nil {
		t.Fatal(err)
	}
	if c, err := it.Next(); err != nil || c == nil {
		t.Fatalf("first chunk: %v, %v", c, err)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	waitGoroutines(t, "Sorter.Close with an open iterator", base)
	for rows := 0; ; {
		c, err := it.Next()
		if errors.Is(err, errSorterClosed) {
			break
		}
		if err != nil || c == nil {
			t.Fatalf("Next after Sorter.Close = %v, %v after %d rows; want the closed-sorter error", c, err, rows)
		}
		rows += c.Len()
	}
	if err := it.Close(); !errors.Is(err, errSorterClosed) {
		t.Errorf("Close after the failure = %v, want the iterator's first error", err)
	}
}

// TestRowsReiterationAndCounters drains one in-memory sort twice, then
// abandons a third iterator after a chunk: the drains are identical, and the
// counters say what happened — gather bytes per chunk actually gathered,
// merge counters of the latest iteration, not the sum of all. The iterator
// joins its workers before it publishes, so a drain's merge counters are all
// of its tasks', whichever worker ran which: the same at any thread count. (A
// worker left unjoined folds its last task in after the publish, in about
// four drains of five.)
func TestRowsReiterationAndCounters(t *testing.T) {
	tbl := workload.UniformInt64s(lifecycleRows, 9)
	var serial mergepath.Stats // a drain's merge counters at Threads 1
	for _, threads := range []int{1, 2} {
		s := finalizedSorter(t, tbl, []SortColumn{{Column: 0}}, Options{Threads: threads})
		defer s.Close()
		full := int64(lifecycleRows) * int64(s.layout.Width())
		if st := s.Stats(); st.GatherBytesMoved != 0 {
			t.Fatalf("threads=%d: %d gather bytes before any Rows", threads, st.GatherBytesMoved)
		}
		first := drainAll(t, s)
		st1 := s.Stats()
		if threads == 1 {
			serial = st1.Merge
		}
		if st1.GatherBytesMoved != full {
			t.Errorf("threads=%d: one drain moved %d gather bytes, want %d", threads, st1.GatherBytesMoved, full)
		}
		if st1.Merge.Comparisons == 0 {
			t.Errorf("threads=%d: a drain of %d runs counted no comparisons", threads, len(s.runs))
		}
		sameChunks(t, fmt.Sprintf("threads=%d second drain", threads), drainAll(t, s), first)
		st2 := s.Stats()
		if st2.GatherBytesMoved != 2*full {
			t.Errorf("threads=%d: two drains moved %d gather bytes, want %d", threads, st2.GatherBytesMoved, 2*full)
		}
		for i, m := range []mergepath.Stats{st1.Merge, st2.Merge} {
			if m != serial {
				t.Errorf("threads=%d: drain %d's merge counters %+v, a serial drain's %+v", threads, i+1, m, serial)
			}
		}
		if st2.Merge.Comparisons > st1.Merge.Comparisons*11/10 {
			t.Errorf("threads=%d: merge comparisons %d after two drains, %d after one: added, not replaced",
				threads, st2.Merge.Comparisons, st1.Merge.Comparisons)
		}

		it, err := s.Rows()
		if err != nil {
			t.Fatal(err)
		}
		if c, err := it.Next(); err != nil || c == nil {
			t.Fatalf("first chunk: %v, %v", c, err)
		}
		if err := it.Close(); err != nil {
			t.Fatal(err)
		}
		st3 := s.Stats()
		window := leadingRows(s, it.d.plan, drainWindowPerThread*threads) * int64(s.layout.Width())
		if moved := st3.GatherBytesMoved - st2.GatherBytesMoved; moved <= 0 || moved > window || moved >= full {
			t.Errorf("threads=%d: an iterator closed after one chunk moved %d gather bytes; want some, at most the window's %d, under the drain's %d",
				threads, moved, window, full)
		}
		if st3.Merge.Comparisons >= st1.Merge.Comparisons {
			t.Errorf("threads=%d: an iterator closed after one chunk reports %d comparisons, a drain %d",
				threads, st3.Merge.Comparisons, st1.Merge.Comparisons)
		}
		for i := 0; i < 4; i++ {
			drainAll(t, s)
			if m := s.Stats().Merge; m != serial {
				t.Errorf("threads=%d: drain %d's merge counters %+v, a serial drain's %+v", threads, i+3, m, serial)
				break
			}
		}
	}
}

// leadingRows returns the rows of the first n tasks of a plan p over runs in
// memory: every run's rows below the n-th task's upper bound.
func leadingRows(s *Sorter, p *mergePlan, n int) int64 {
	_, hi := p.Bound(min(n, p.Tasks()) - 1)
	rows := 0
	for _, id := range p.ids {
		_, to := keyRange(mergepath.Run{Data: s.runs[id].keys, Width: s.rowWidth}, nil, hi, p.cmp)
		rows += to
	}
	return int64(rows)
}

// TestRowsMergesLazily pins the mechanism: Finalize of an in-memory sort
// merges nothing, and when the first chunk is out, no more has been merged
// than the window's tasks in the drain's plan hold — the first chunk waited
// for the plan and one chunk's merge, not for the merge.
func TestRowsMergesLazily(t *testing.T) {
	const rows = 12*drainTaskRows + 5
	tbl := workload.UniformInt64s(rows, 10)
	for _, threads := range []int{1, 2} {
		s := finalizedSorter(t, tbl, []SortColumn{{Column: 0}}, Options{Threads: threads})
		defer s.Close()
		if len(s.runs) < 2 {
			t.Fatalf("%d runs: nothing to merge", len(s.runs))
		}
		if merged := s.ctr.Value(obs.RowsMerged); merged != 0 {
			t.Fatalf("threads=%d: Finalize merged %d rows", threads, merged)
		}
		it, err := s.Rows()
		if err != nil {
			t.Fatal(err)
		}
		if c, err := it.Next(); err != nil || c == nil {
			t.Fatalf("first chunk: %v, %v", c, err)
		}
		merged := s.ctr.Value(obs.RowsMerged)
		if window := leadingRows(s, it.d.plan, drainWindowPerThread*threads); merged == 0 || merged > window {
			t.Errorf("threads=%d: %d of %d rows merged when the first chunk returned; want at most the window's %d",
				threads, merged, rows, window)
		}
		if err := it.Close(); err != nil {
			t.Fatal(err)
		}
	}
}

// TestInMemorySortAllocatesNoMergedKeys pins what the lazy merge saves: an
// in-memory sort no longer allocates a second key array (rows x rowWidth
// bytes) to merge into. Finalize allocates next to nothing, and the drain
// allocates the output chunks and little else.
func TestInMemorySortAllocatesNoMergedKeys(t *testing.T) {
	const rows = 4*drainTaskRows + 321
	tbl := workload.UniformInt64s(rows, 11)
	s, err := NewSorter(tbl.Schema, []SortColumn{{Column: 0}}, Options{Threads: 1, RunSize: rows / 4})
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
	mergedKeys := uint64(rows * s.rowWidth)

	var m0, m1, m2 runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&m0)
	if err := s.Finalize(); err != nil {
		t.Fatal(err)
	}
	runtime.ReadMemStats(&m1)
	out := drainAll(t, s)
	runtime.ReadMemStats(&m2)

	if out.NumRows() != rows {
		t.Fatalf("drained %d rows, want %d", out.NumRows(), rows)
	}
	// Two Int64 columns and their validity: the chunks the caller keeps.
	outBytes := uint64(rows * (8 + 8 + 1))
	finalize, drain := m1.TotalAlloc-m0.TotalAlloc, m2.TotalAlloc-m1.TotalAlloc
	t.Logf("Finalize allocated %d bytes, the drain %d; a merged key array is %d, the output about %d",
		finalize, drain, mergedKeys, outBytes)
	if finalize > mergedKeys/8 {
		t.Errorf("Finalize allocated %d bytes; a merged key array would be %d", finalize, mergedKeys)
	}
	if drain > outBytes+mergedKeys/2 {
		t.Errorf("the drain allocated %d bytes for about %d of output: the merged key array (%d) moved into Rows?",
			drain, outBytes, mergedKeys)
	}
}
