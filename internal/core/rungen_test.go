package core

import (
	"bytes"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"testing"

	"rowsort/internal/row"
	"rowsort/internal/vector"
	"rowsort/internal/workload"
)

// widePayloadTable is the benchmark's mem-wide-payload shape: an Int32 key,
// twelve Int64 payload columns and one 24-byte Varchar — 120-byte payload
// rows plus a string heap, 16-byte key rows.
func widePayloadTable(n int, seed uint64) *vector.Table {
	rng := workload.NewRNG(seed)
	schema := vector.Schema{{Name: "k", Type: vector.Int32}}
	for i := 0; i < 12; i++ {
		schema = append(schema, vector.Column{Name: fmt.Sprintf("p%d", i), Type: vector.Int64})
	}
	schema = append(schema, vector.Column{Name: "s", Type: vector.Varchar})
	tbl := vector.NewTable(schema)
	for start := 0; start < n; start += vector.DefaultVectorSize {
		count := min(vector.DefaultVectorSize, n-start)
		c := vector.NewChunk(schema, count)
		for r := 0; r < count; r++ {
			c.Vectors[0].AppendInt32(int32(rng.Uint32()))
			for p := 1; p <= 12; p++ {
				c.Vectors[p].AppendInt64(int64(rng.Uint64()))
			}
			c.Vectors[13].AppendString(fmt.Sprintf("payload-%016x", rng.Uint64()))
		}
		if err := tbl.AppendChunk(c); err != nil {
			panic(err)
		}
	}
	return tbl
}

// TestRunGenerationCopiesOnce pins what an unbudgeted in-memory sort
// allocates and checks that the sink's pending payload set stops growing
// after its first run.
//
// The allocation bound is a multiple of the bytes one row occupies in the
// row formats (payload row plus key row). A whole sort through the public
// calls — the resident runs, the merged keys and the result chunks are all
// in it — measured 2.8x with copy-once run generation and 6.3x before it,
// when every run regrew its pending buffers through append; the bound sits
// between the two.
func TestRunGenerationCopiesOnce(t *testing.T) {
	const runSize, runs = 8 * vector.DefaultVectorSize, 4
	tbl := widePayloadTable(runs*runSize, 7)
	keys := []SortColumn{{Column: 0}}

	var m0, m1 runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&m0)

	s, err := NewSorter(tbl.Schema, keys, Options{Threads: 1, RunSize: runSize})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	sink := s.NewSink()
	var capAtCut []int64
	for _, c := range tbl.Chunks {
		cut := sink.runs
		if err := sink.Append(c); err != nil {
			t.Fatal(err)
		}
		if sink.runs != cut {
			capAtCut = append(capAtCut, sink.payload.CapBytes())
		}
	}
	if err := sink.Close(); err != nil {
		t.Fatal(err)
	}
	if err := s.Finalize(); err != nil {
		t.Fatal(err)
	}
	it, err := s.Rows()
	if err != nil {
		t.Fatal(err)
	}
	got := 0
	for {
		c, err := it.Next()
		if err != nil {
			t.Fatal(err)
		}
		if c == nil {
			break
		}
		got += c.Len()
	}
	if err := it.Close(); err != nil {
		t.Fatal(err)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	runtime.ReadMemStats(&m1)

	if got != tbl.NumRows() {
		t.Fatalf("sorted %d rows, want %d", got, tbl.NumRows())
	}
	if len(capAtCut) != runs {
		t.Fatalf("sink cut %d runs, want %d", len(capAtCut), runs)
	}
	for i, c := range capAtCut[1:] {
		if c != capAtCut[0] {
			t.Errorf("pending payload capacity after run %d is %d, after run 1 it was %d: the set regrew",
				i+2, c, capAtCut[0])
		}
	}

	rowBytes := float64(s.place.layout.Width() + s.place.rowWidth)
	perRow := float64(m1.TotalAlloc-m0.TotalAlloc) / float64(tbl.NumRows())
	const bound = 4.0
	t.Logf("allocated %.1f bytes/row = %.2fx of the %v row-format bytes", perRow, perRow/rowBytes, rowBytes)
	if perRow > bound*rowBytes {
		t.Errorf("sort allocated %.1f bytes/row, %.2fx the row-format bytes; want under %.1fx",
			perRow, perRow/rowBytes, bound)
	}
}

// nullHeavyTable has a NULL in four of every ten slots of every column but
// the first, a nullable varchar key and a varchar payload: the rows whose
// never-written NULL slots, and the string heaps whose lengths differ run
// to run, are what a recycled buffer's stale bytes would show through.
func nullHeavyTable(n int, seed uint64) *vector.Table {
	rng := workload.NewRNG(seed)
	schema := vector.Schema{
		{Name: "id", Type: vector.Int32},
		{Name: "grp", Type: vector.Int64},
		{Name: "name", Type: vector.Varchar},
		{Name: "note", Type: vector.Varchar},
		{Name: "score", Type: vector.Float64},
	}
	null := func() bool { return rng.Float64() < 0.4 }
	tbl := vector.NewTable(schema)
	for start := 0; start < n; start += 500 {
		count := min(500, n-start)
		c := vector.NewChunk(schema, count)
		for r := 0; r < count; r++ {
			c.Vectors[0].AppendInt32(int32(rng.Uint32()))
			if null() {
				c.Vectors[1].AppendNull()
			} else {
				c.Vectors[1].AppendInt64(int64(rng.Intn(40)))
			}
			if null() {
				c.Vectors[2].AppendNull()
			} else {
				c.Vectors[2].AppendString(fmt.Sprintf("n%03d", rng.Intn(300)))
			}
			if null() {
				c.Vectors[3].AppendNull()
			} else {
				c.Vectors[3].AppendString("padpadpadpadpadpadpad"[:rng.Intn(21)])
			}
			if null() {
				c.Vectors[4].AppendNull()
			} else {
				c.Vectors[4].AppendFloat64(rng.Float64())
			}
		}
		if err := tbl.AppendChunk(c); err != nil {
			panic(err)
		}
	}
	return tbl
}

// runImage is every byte of a sort that a stale buffer could corrupt: each
// run as it stood after run generation (resident buffers, or the spill
// file), and the sorted output in row format.
type runImage struct {
	runs   [][]byte
	output []byte
}

// sortImage sorts tbl over two sinks fed alternate chunks from this
// goroutine, so run contents and ids are the same on every call. With fresh
// set, nothing is ever reused: the sorter's pools are nil (which always
// allocate and never retain) and every run gets a sink of its own.
func sortImage(t *testing.T, tbl *vector.Table, keys []SortColumn, opt Options, fresh bool) runImage {
	t.Helper()
	s, err := NewSorter(tbl.Schema, keys, opt)
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	if fresh {
		s.sets, s.keyBufs = nil, nil
	} else {
		// What a duplicate-group sort leaves in a scratch buffer is not
		// row-aligned: a recycled key buffer may hold anything anywhere,
		// the alignment padding behind each row's reference included.
		for i := 0; i < 4; i++ {
			s.putKeyBuf(bytes.Repeat([]byte{0xEE}, opt.RunSize*s.place.rowWidth)[:0])
		}
	}
	var sinks [2]*Sink
	var pending [2]int
	for i := range sinks {
		sinks[i] = s.NewSink()
	}
	for i, c := range tbl.Chunks {
		w := i % len(sinks)
		if err := sinks[w].Append(c); err != nil {
			t.Fatal(err)
		}
		if pending[w] += c.Len(); pending[w] >= opt.RunSize {
			pending[w] = 0
			if fresh {
				if err := sinks[w].Close(); err != nil {
					t.Fatal(err)
				}
				sinks[w] = s.NewSink()
			}
		}
	}
	for _, k := range sinks {
		if err := k.Close(); err != nil {
			t.Fatal(err)
		}
	}

	var img runImage
	for _, r := range s.runs {
		if opt.SpillDir != "" {
			b, err := os.ReadFile(filepath.Join(opt.SpillDir, fmt.Sprintf("rowsort-run-%d.bin", r.id)))
			if err != nil {
				t.Fatal(err)
			}
			img.runs = append(img.runs, b)
			continue
		}
		var b bytes.Buffer
		b.Write(r.keys)
		if r.payload == nil {
			img.runs = append(img.runs, b.Bytes()) // an inline payload is in the key rows
			continue
		}
		if _, err := r.payload.WriteTo(&b); err != nil {
			t.Fatal(err)
		}
		img.runs = append(img.runs, b.Bytes())
	}
	if err := s.Finalize(); err != nil {
		t.Fatal(err)
	}
	out, err := s.Result()
	if err != nil {
		t.Fatal(err)
	}
	img.output = rowify(t, out).Bytes()
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	return img
}

// TestRecycledBuffersLeakNoStaleBytes sorts a NULL-heavy table whose row
// count leaves each sink a short last run — landing in buffers whose tails
// still hold an older, longer run — and requires every run and the output
// to equal, byte for byte, those of the same sort done with fresh buffers
// everywhere; in memory and eagerly spilled. The table is sorted twice: on
// its strings, with its payload in a set, and, without its string columns,
// on its integers, with its Float64 riding inline in 24-byte key rows, one
// byte of padding behind it.
func TestRecycledBuffersLeakNoStaleBytes(t *testing.T) {
	const runSize = 3000
	tbl := nullHeavyTable(2*3*runSize+1700, 11)
	ints := vector.NewTable(vector.Schema{tbl.Schema[0], tbl.Schema[1], tbl.Schema[4]})
	for _, c := range tbl.Chunks {
		ints.Chunks = append(ints.Chunks, &vector.Chunk{Vectors: []*vector.Vector{c.Vectors[0], c.Vectors[1], c.Vectors[4]}})
	}
	for _, tc := range []struct {
		name string
		tbl  *vector.Table
		keys []SortColumn
	}{
		{"", tbl, []SortColumn{{Column: 2, NullsLast: true}, {Column: 1, Descending: true}, {Column: 0}}},
		{"inline-", ints, []SortColumn{{Column: 1, NullsLast: true}, {Column: 0, Descending: true}}},
	} {
		for _, spill := range []bool{false, true} {
			name := tc.name + "memory"
			if spill {
				name = tc.name + "spill"
			}
			t.Run(name, func(t *testing.T) {
				image := func(fresh bool) runImage {
					opt := Options{Threads: 2, RunSize: runSize}
					if spill {
						opt.SpillDir = t.TempDir()
					}
					return sortImage(t, tc.tbl, tc.keys, opt, fresh)
				}
				want, got := image(true), image(false)
				if len(got.runs) != len(want.runs) || len(want.runs) < 8 {
					t.Fatalf("recycled sort cut %d runs, fresh sort %d, want the same and at least 8",
						len(got.runs), len(want.runs))
				}
				for i := range want.runs {
					if !bytes.Equal(got.runs[i], want.runs[i]) {
						t.Errorf("run %d differs between recycled and fresh buffers", i)
					}
				}
				if !bytes.Equal(got.output, want.output) {
					t.Error("sorted output differs between recycled and fresh buffers")
				}
			})
		}
	}
}

// TestIngestPlanFollowsSinkShare pins planIngest's one rule, budget or not: a
// sink's share is the budget's half split over Threads, or sinkCacheShare
// (8 MiB) where that is less, and a run is the whole vectors the share holds
// at pendingRowBytes, capped at RunSize. Rows of 64 bytes or less — the int
// and catalog rows, their payload inline — keep RunSize; the customer and
// wide rows, whose payload sits in a set, take what 8 MiB holds (customer's
// 92-byte pending row, two 32-byte key rows, a 24-byte payload row and a
// permutation entry, 44 vectors); a 16 MiB
// budget at two threads shares 4 MiB; an explicit RunSize under the share
// stands. Unbudgeted, the wide row's 24-byte strings end its runs at 24
// vectors, before the planned 27, and from its second chunk on the sink's
// key buffer holds exactly those rows: no run regrows it at its last chunk.
func TestIngestPlanFollowsSinkShare(t *testing.T) {
	const mib = 1 << 20
	v := vector.DefaultVectorSize
	wide := widePayloadTable(0, 1).Schema
	catalog := []SortColumn{{Column: 0}, {Column: 1}, {Column: 2}, {Column: 3}}
	for _, tc := range []struct {
		name   string
		schema vector.Schema
		keys   []SortColumn
		opt    Options
		row    int64 // placement.pendingRow
		share  int64
		rows   int
	}{
		{"IntKeySchema", workload.IntKeySchema, []SortColumn{{Column: 0}}, Options{Threads: 2}, 48, 8 * mib, DefaultRunSize},
		{"catalog_sales at RunSize 2^16", workload.CatalogSalesSchema, catalog, Options{Threads: 2, RunSize: 1 << 16}, 64, 8 * mib, 1 << 16},
		{"customer names", workload.CustomerSchema, []SortColumn{{Column: 4}, {Column: 5}}, Options{Threads: 2}, 92, 8 * mib, 44 * v},
		{"the wide row", wide, []SortColumn{{Column: 0}}, Options{Threads: 2}, 148, 8 * mib, 27 * v},
		{"catalog_sales under 16 MiB", workload.CatalogSalesSchema, catalog, Options{Threads: 2, MemoryLimit: 16 * mib}, 64, 4 * mib, 32 * v},
		{"the wide row at RunSize 4,096", wide, []SortColumn{{Column: 0}}, Options{Threads: 2, RunSize: 2 * v}, 148, 8 * mib, 2 * v},
	} {
		s, err := NewSorter(tc.schema, tc.keys, tc.opt)
		if err != nil {
			t.Fatal(err)
		}
		if got := s.place.pendingRow; got != tc.row {
			t.Errorf("%s: %d bytes a pending row, want %d", tc.name, got, tc.row)
		}
		if s.sinkShare != tc.share || s.runRows != tc.rows {
			t.Errorf("%s: runs of %d rows in a %d-byte share, want %d rows in %d", tc.name, s.runRows, s.sinkShare, tc.rows, tc.share)
		}
		s.Close()
	}

	tbl := widePayloadTable(2*24*v+v, 3)
	s, err := NewSorter(tbl.Schema, []SortColumn{{Column: 0}}, Options{Threads: 1})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	sink := s.NewSink()
	for i, c := range tbl.Chunks {
		if err := sink.Append(c); err != nil {
			t.Fatal(err)
		}
		if got := cap(sink.keys) / s.place.rowWidth; i == 1 && got != 24*v {
			t.Errorf("after two chunks of wide rows the sink's key buffer holds %d rows, want the %d its heap cuts at", got, 24*v)
		}
	}
	if err := sink.Close(); err != nil {
		t.Fatal(err)
	}
	if len(s.runs) != 3 {
		t.Fatalf("wide rows cut %d runs, want 3", len(s.runs))
	}
	for i, r := range s.runs[:2] {
		if r.rows != 24*v {
			t.Errorf("wide run %d holds %d rows, want %d", i, r.rows, 24*v)
		}
	}
}

// TestBudgetedSinkCutsAtPlannedRunSize is the budgeted side of run-sized
// pending buffers. A budget fixes the run size up front (planIngest), and a
// sink reserves that run as it reserves a RunSize under the cache share: its
// reservation never exceeds its share of the budget plus the chunk it is
// taking in, and on fixed-width input every run but the last holds exactly
// the planned rows; on strings that fill the share first, runs end sooner,
// all of one length. Unbudgeted, a RunSize the cache share holds is reserved
// whole by the sink's second chunk, which the test checks too — otherwise
// the budgeted bound would hold for the wrong reason.
func TestBudgetedSinkCutsAtPlannedRunSize(t *testing.T) {
	const runSize = 32 * vector.DefaultVectorSize
	keys := []SortColumn{{Column: 0}}

	// A budget whose sink share holds four chunks of fixed-width rows, far
	// below what the table needs, so runs spill as the sink goes.
	fixed := workload.CatalogSales(runSize, 10, 5)
	planned := 4 * vector.DefaultVectorSize
	probe, err := NewSorter(fixed.Schema, keys, Options{Threads: 1})
	if err != nil {
		t.Fatal(err)
	}
	perRow := probe.place.pendingRow
	probe.Close()
	limit := 2 * int64(planned) * perRow
	s, err := NewSorter(fixed.Schema, keys, Options{Threads: 1, RunSize: runSize, MemoryLimit: limit})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	if s.runRows != planned || s.sinkShare != limit/2 {
		t.Fatalf("a %d-byte budget planned runs of %d rows and a %d-byte share, want %d rows and %d bytes",
			limit, s.runRows, s.sinkShare, planned, limit/2)
	}
	sink := s.NewSink()
	chunk := int64(vector.DefaultVectorSize) * perRow
	for _, c := range fixed.Chunks {
		if err := sink.Append(c); err != nil {
			t.Fatal(err)
		}
		if got := sink.res.Bytes(); got > s.sinkShare+chunk {
			t.Fatalf("budgeted sink reserved %d bytes, more than its %d-byte share plus one %d-byte chunk",
				got, s.sinkShare, chunk)
		}
	}
	if err := sink.Close(); err != nil {
		t.Fatal(err)
	}
	if len(s.runs) != runSize/planned {
		t.Fatalf("sink cut %d runs, want %d", len(s.runs), runSize/planned)
	}
	for i, r := range s.runs {
		if r.rows != planned {
			t.Errorf("run %d holds %d rows, want the planned %d", i, r.rows, planned)
		}
	}
	if st := s.Stats(); st.PressureSpills == 0 {
		t.Error("the budget forced no run to disk; it is meant to be tight")
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	if used := s.broker.Used(); used != 0 {
		t.Errorf("broker holds %d bytes after Close, want 0", used)
	}

	// Under the same plan, 120-byte strings fill the share first: runs end
	// before the planned rows, all of one length, and the sink reserves no
	// string heap for rows its share cannot hold.
	schema := vector.Schema{{Name: "k", Type: vector.Int32}, {Name: "s", Type: vector.Varchar}}
	strs := vector.NewTable(schema)
	rng := workload.NewRNG(3)
	for start := 0; start < runSize; start += vector.DefaultVectorSize {
		c := vector.NewChunk(schema, vector.DefaultVectorSize)
		for r := 0; r < vector.DefaultVectorSize; r++ {
			c.Vectors[0].AppendInt32(int32(rng.Uint32()))
			c.Vectors[1].AppendString(fmt.Sprintf("%0120d", rng.Uint64()))
		}
		if err := strs.AppendChunk(c); err != nil {
			t.Fatal(err)
		}
	}
	h, err := NewSorter(schema, keys, Options{Threads: 1, RunSize: runSize, MemoryLimit: limit})
	if err != nil {
		t.Fatal(err)
	}
	defer h.Close()
	hsink := h.NewSink()
	var strChunk int64 // one chunk's live bytes, strings and all
	for _, c := range strs.Chunks {
		if err := hsink.Append(c); err != nil {
			t.Fatal(err)
		}
		if strChunk == 0 {
			strChunk = hsink.liveBytes()
		}
		if got := hsink.res.Bytes(); got > h.sinkShare+strChunk {
			t.Fatalf("string sink reserved %d bytes, more than its %d-byte share plus one %d-byte chunk",
				got, h.sinkShare, strChunk)
		}
	}
	if err := hsink.Close(); err != nil {
		t.Fatal(err)
	}
	for i, r := range h.runs[:len(h.runs)-1] {
		if r.rows >= h.runRows || r.rows != h.runs[0].rows {
			t.Errorf("string run %d holds %d rows, run 0 %d; want every run but the last as long, and under the planned %d",
				i, r.rows, h.runs[0].rows, h.runRows)
		}
	}
	if err := h.Close(); err != nil {
		t.Fatal(err)
	}

	// Unbudgeted, wide rows at half that RunSize — 16 vectors, which the cache
	// share holds, strings and all — are reserved whole ahead: the sink's
	// largest excess of reservation over twice its live bytes passes one chunk.
	const underShare = runSize / 2
	tbl := widePayloadTable(underShare-vector.DefaultVectorSize, 5)
	u, err := NewSorter(tbl.Schema, keys, Options{Threads: 1, RunSize: underShare})
	if err != nil {
		t.Fatal(err)
	}
	defer u.Close()
	usink := u.NewSink()
	var slack, wide int64
	for _, c := range tbl.Chunks {
		if err := usink.Append(c); err != nil {
			t.Fatal(err)
		}
		if usink.runs != 0 {
			t.Fatal("unbudgeted sink cut a run short of RunSize")
		}
		live := int64(len(usink.keys) + usink.payload.MemSize())
		wide = max(wide, live/int64(usink.n)*int64(c.Len()))
		slack = max(slack, usink.res.Bytes()-2*live)
	}
	if err := usink.Close(); err != nil {
		t.Fatal(err)
	}
	if slack <= wide {
		t.Errorf("unbudgeted sink never reserved ahead (largest excess %d bytes, one chunk is %d)", slack, wide)
	}
}

// TestStrategyDecisionsRecorded pins the run-sort rules and their log: one
// decision per generated run, run ids unique and in range, each naming the
// kernel that ran and, where a rule other than radix's decided, why. Random
// keys radix-sort; runs that arrive in order — sorted, all equal — are not
// sorted at all; a run in order but for its last row radix-sorts; a run whose
// keys may tie radix-sorts, then sorts its byte-equal groups under the
// comparator.
func TestStrategyDecisionsRecorded(t *testing.T) {
	const runRows, runs = vector.DefaultVectorSize, 4
	sorted, lastOut := make([]uint32, runs*runRows), make([]uint32, runs*runRows)
	for i := range sorted {
		sorted[i], lastOut[i] = uint32(i), uint32(i)
		if i%runRows == runRows-1 {
			lastOut[i] = 0
		}
	}
	col0 := []SortColumn{{Column: 0}}
	for _, tc := range []struct {
		name      string
		tbl       *vector.Table
		keys      []SortColumn
		algo, why string
	}{
		{"random", workload.UintColumnsTable(workload.Dist{Random: true}.Generate(len(sorted), 2, 144)),
			[]SortColumn{{Column: 0}, {Column: 1}}, "msd-radix", ""},
		{"sorted", workload.UintColumnsTable([][]uint32{sorted}), col0, "none", "presorted"},
		{"all equal", workload.UintColumnsTable([][]uint32{make([]uint32, len(sorted))}), col0, "none", "presorted"},
		{"in order but the last row", workload.UintColumnsTable([][]uint32{lastOut}), col0, "msd-radix", ""},
		{"tie-break", mixedTable(len(sorted), 91), mergeTestKeys, "msd-radix", "tie-break"},
	} {
		// One sink, a run a chunk.
		s := finalizedSorter(t, tc.tbl, tc.keys, Options{Threads: 2, RunSize: runRows})
		checkSorted(t, tc.tbl, resultChecked(t, s), tc.keys, tc.name)
		st := s.Stats()
		s.Close()
		if len(st.StrategyDecisions) != runs || st.RunsGenerated != runs {
			t.Fatalf("%s: %d decisions for %d runs, want %d", tc.name, len(st.StrategyDecisions), st.RunsGenerated, runs)
		}
		ruled := 0 // runs decided by the rule under test
		for i, d := range st.StrategyDecisions {
			want := StrategyDecision{Run: i, Rows: runRows, Algo: tc.algo, Why: tc.why}
			if tc.why == "tie-break" && d.Why == "" {
				// A run none of whose chunks reported a possible tie.
				want.Algo, want.Why = "msd-radix", ""
			} else {
				ruled++
			}
			if d != want {
				t.Fatalf("%s: decision %+v, want %+v", tc.name, d, want)
			}
		}
		if ruled == 0 {
			t.Fatalf("%s: no run was decided by the rule under test", tc.name)
		}
	}
}

// TestSortRunComparesBytesUnlessTied pins the paper's memcmp: a run whose
// keys cannot tie is ordered by its key bytes alone — never through the
// segment-wise tie-breaking comparator, whose payload lookup the varchar
// key's equal values would reach on every match. The lookup handed to sortRun
// fails the test if it is ever called.
func TestSortRunComparesBytesUnlessTied(t *testing.T) {
	// 14-byte names under a 16-byte prefix, so the run is byte-decisive, drawn
	// from 40 values, so equal keys meet all the time.
	tbl := workload.LowCardStrings(3_000, 40, 77)
	s, err := NewSorter(tbl.Schema, []SortColumn{{Column: 0, PrefixLen: 16}}, Options{Threads: 1})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	k := s.NewSink()
	for _, c := range tbl.Chunks {
		if err := k.Append(c); err != nil {
			t.Fatal(err)
		}
	}
	keys, _, n, tieBreak := k.cut()
	if tieBreak || !s.enc.TiesPossible() {
		t.Fatalf("the run should be byte-decisive (tieBreak = %v) on a segment that could tie", tieBreak)
	}
	k.sortRun(keys, "msd-radix", tieBreak, func(int, uint32) (*row.RowSet, int) {
		t.Error("a byte-decisive run was compared through the payload lookup")
		return k.payload, 0
	})
	for i := 1; i < n; i++ {
		if bytes.Compare(keys[(i-1)*s.place.rowWidth:][:s.keyWidth], keys[i*s.place.rowWidth:][:s.keyWidth]) > 0 {
			t.Fatalf("key rows %d and %d are out of order", i-1, i)
		}
	}
}
