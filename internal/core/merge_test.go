package core

import (
	"bytes"
	"fmt"
	"os"
	"path/filepath"
	"testing"

	"rowsort/internal/mergepath"
	"rowsort/internal/vector"
)

// sortWith runs a full single-sink sort of tbl under opt and returns the
// result table. A single sequential sink makes run assignment deterministic,
// so two sorts of the same table differing only in where their runs live
// must be byte-identical (the merge is stable, with ties to the lower run).
func sortWith(t *testing.T, tbl *vector.Table, keys []SortColumn, opt Options, prep ...func(*Sorter)) *vector.Table {
	t.Helper()
	s := finalizedSorter(t, tbl, keys, opt, prep...)
	defer s.Close()
	return resultChecked(t, s)
}

// mergeTestKeys interleaves a tie-break-prone varchar between two numeric
// segments, the layout where byte order stops being decisive mid-key (the
// varchar's full strings must order before the trailing segment's bytes are
// consulted).
var mergeTestKeys = []SortColumn{
	{Column: 1, NullsLast: true},
	{Column: 2, Descending: true},
	{Column: 0},
}

// TestExternalMergeEquivalence checks that the streaming external merge is
// byte-identical to the in-memory merge across block sizes and thread counts
// — and that the stream reads each spilled byte exactly once.
func TestExternalMergeEquivalence(t *testing.T) {
	tbl := mixedTable(3*vector.DefaultVectorSize+123, 93)
	want := sortWith(t, tbl, mergeTestKeys, Options{Threads: 1, RunSize: 700})
	checkSorted(t, tbl, want, mergeTestKeys, "in-memory reference")
	wantRows := rowify(t, want)

	for _, blockRows := range []int{1, 64, 512, 100000} {
		for _, threads := range []int{1, 4, 16} {
			s := finalizedSorter(t, tbl, mergeTestKeys,
				Options{Threads: threads, RunSize: 700, SpillDir: t.TempDir()}, pinBlockRows(blockRows))
			got := resultChecked(t, s)
			if !bytes.Equal(rowify(t, got).Bytes(), wantRows.Bytes()) {
				t.Fatalf("block=%d threads=%d: external merge differs from in-memory", blockRows, threads)
			}
			spill := s.Stats()
			written, read := spill.SpillBytesWritten, spill.SpillBytesRead
			if written == 0 {
				t.Fatalf("block=%d: sort never spilled", blockRows)
			}
			if read != written {
				t.Fatalf("block=%d threads=%d: read %d spill bytes, wrote %d (want exactly one pass)",
					blockRows, threads, read, written)
			}
			if err := s.Close(); err != nil {
				t.Fatal(err)
			}
		}
	}
}

// TestMergeStats checks the exported merge counters: comparisons are
// counted, offset-value coding resolves matches, and the tie-break path is
// exercised when string prefixes tie. The merge of resident runs happens in
// the result iterator, so the counters appear with the drain — and moving no
// key row, it reports no bytes moved.
func TestMergeStats(t *testing.T) {
	tbl := mixedTable(3*vector.DefaultVectorSize, 95)
	s, err := NewSorter(tbl.Schema, mergeTestKeys, Options{Threads: 1, RunSize: 400})
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
	if st := s.Stats().Merge; st != (mergepath.Stats{}) {
		t.Fatalf("Finalize of an in-memory sort merged: %+v", st)
	}
	resultChecked(t, s)
	st := s.Stats().Merge
	if st.Comparisons == 0 {
		t.Fatal("merge counted no comparisons")
	}
	if st.OVCHits == 0 {
		t.Fatal("offset-value coding resolved no matches")
	}
	if st.TieBreaks == 0 {
		t.Fatal("tie-break comparator never ran despite tied string prefixes")
	}
	if st.BytesMoved != 0 {
		t.Fatalf("in-memory merge reports %d key bytes moved; it copies none", st.BytesMoved)
	}
}

// spillFiles lists the rowsort-run-*.bin files left in dir.
func spillFiles(t *testing.T, dir string) []string {
	t.Helper()
	m, err := filepath.Glob(filepath.Join(dir, "rowsort-run-*.bin"))
	if err != nil {
		t.Fatal(err)
	}
	return m
}

// TestCloseRemovesSpillFiles checks the leak fix: an aborted sort (spilled
// runs, no Finalize) leaves files on disk until Close, which removes them;
// a completed SortTable leaves none behind at all.
func TestCloseRemovesSpillFiles(t *testing.T) {
	tbl := mixedTable(2*vector.DefaultVectorSize, 96)
	keys := []SortColumn{{Column: 0}}

	dir := t.TempDir()
	s, err := NewSorter(tbl.Schema, keys, Options{Threads: 2, RunSize: 300, SpillDir: dir})
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
	if len(spillFiles(t, dir)) == 0 {
		t.Fatal("sort never spilled; test needs a smaller RunSize")
	}
	// Abort without Finalize: Close must reclaim the files.
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	if left := spillFiles(t, dir); len(left) != 0 {
		t.Fatalf("Close left spill files behind: %v", left)
	}
	// Close is idempotent.
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}

	dir2 := t.TempDir()
	if _, err := SortTable(tbl, keys, Options{Threads: 2, RunSize: 300, SpillDir: dir2}); err != nil {
		t.Fatal(err)
	}
	if left := spillFiles(t, dir2); len(left) != 0 {
		t.Fatalf("SortTable left spill files behind: %v", left)
	}
}

// TestSpillErrorPropagation points SpillDir at a regular file so os.Create
// fails, and checks the error surfaces instead of panicking or leaking.
func TestSpillErrorPropagation(t *testing.T) {
	dir := t.TempDir()
	notADir := filepath.Join(dir, "file")
	if err := os.WriteFile(notADir, []byte("x"), 0o644); err != nil {
		t.Fatal(err)
	}
	tbl := mixedTable(vector.DefaultVectorSize, 97)
	s, err := NewSorter(tbl.Schema, []SortColumn{{Column: 0}},
		Options{Threads: 1, RunSize: 100, SpillDir: filepath.Join(notADir, "sub")})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	sink := s.NewSink()
	var sawErr error
	for _, c := range tbl.Chunks {
		if err := sink.Append(c); err != nil {
			sawErr = err
			break
		}
	}
	if sawErr == nil {
		sawErr = sink.Close()
	}
	if sawErr == nil {
		sawErr = s.Finalize()
	}
	if sawErr == nil {
		t.Fatal("sort with unwritable SpillDir reported no error")
	}
}

// TestExternalMergeManyRunCounts sweeps run counts (including 1 and a
// non-power-of-two k) through the streaming merge with a small block size.
func TestExternalMergeManyRunCounts(t *testing.T) {
	for _, runSize := range []int{100000, 2048, 777, 350} {
		tbl := mixedTable(2*vector.DefaultVectorSize+13, 98)
		name := fmt.Sprintf("runsize=%d", runSize)
		want := sortWith(t, tbl, mergeTestKeys, Options{Threads: 1, RunSize: runSize})
		wantRows := rowify(t, want)
		got := sortWith(t, tbl, mergeTestKeys,
			Options{Threads: 1, RunSize: runSize, SpillDir: t.TempDir()}, pinBlockRows(64))
		if !bytes.Equal(rowify(t, got).Bytes(), wantRows.Bytes()) {
			t.Fatalf("%s: external merge differs from in-memory", name)
		}
	}
}
