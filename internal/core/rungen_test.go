package core

import (
	"bytes"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"slices"
	"testing"

	"rowsort/internal/mem"
	"rowsort/internal/obs"
	"rowsort/internal/row"
	"rowsort/internal/strategy"
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

	rowBytes := float64(s.layout.Width() + s.rowWidth)
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
			s.putKeyBuf(bytes.Repeat([]byte{0xEE}, opt.RunSize*s.rowWidth)[:0])
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
// everywhere; in memory and eagerly spilled.
func TestRecycledBuffersLeakNoStaleBytes(t *testing.T) {
	const runSize = 3000
	tbl := nullHeavyTable(2*3*runSize+1700, 11)
	keys := []SortColumn{{Column: 2, NullsLast: true}, {Column: 1, Descending: true}, {Column: 0}}
	for _, spill := range []bool{false, true} {
		name := "memory"
		if spill {
			name = "spill"
		}
		t.Run(name, func(t *testing.T) {
			image := func(fresh bool) runImage {
				opt := Options{Threads: 2, RunSize: runSize}
				if spill {
					opt.SpillDir = t.TempDir()
				}
				return sortImage(t, tbl, keys, opt, fresh)
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

// TestBudgetedSinkReservesNothingAhead is the other side of run-sized
// pending buffers: under a budget the broker accounts capacity, so a sink
// must never hold more than twice what is live in it plus the chunk it is
// taking in. The same input unbudgeted reserves the whole run by its
// second chunk, which the test checks too — otherwise the budgeted bound
// would hold for the wrong reason.
func TestBudgetedSinkReservesNothingAhead(t *testing.T) {
	const runSize = 32 * vector.DefaultVectorSize
	tbl := widePayloadTable(runSize-vector.DefaultVectorSize, 5)
	keys := []SortColumn{{Column: 0}}

	// peakSlack feeds one sink the table (short of a run, so it never cuts)
	// and returns the largest excess of its reservation over twice its live
	// bytes.
	peakSlack := func(opt Options) (slack, chunk int64) {
		s, err := NewSorter(tbl.Schema, keys, opt)
		if err != nil {
			t.Fatal(err)
		}
		defer s.Close()
		sink := s.NewSink()
		for _, c := range tbl.Chunks {
			if err := sink.Append(c); err != nil {
				t.Fatal(err)
			}
			if sink.runs != 0 {
				t.Fatal("sink cut a run; the budget is meant to be roomy")
			}
			live := int64(len(sink.keys) + sink.payload.MemSize())
			chunk = max(chunk, live/int64(sink.n)*int64(c.Len()))
			slack = max(slack, sink.res.Bytes()-2*live)
		}
		if err := sink.Close(); err != nil {
			t.Fatal(err)
		}
		return slack, chunk
	}

	broker := mem.NewBroker("roomy", 1<<30)
	slack, chunk := peakSlack(Options{Threads: 1, RunSize: runSize, Broker: broker})
	if slack > chunk {
		t.Errorf("budgeted sink reserved %d bytes beyond twice its live bytes, more than one %d-byte chunk", slack, chunk)
	}
	if used := broker.Used(); used != 0 {
		t.Errorf("broker holds %d bytes after Close, want 0", used)
	}
	if slack, chunk := peakSlack(Options{Threads: 1, RunSize: runSize}); slack <= chunk {
		t.Errorf("unbudgeted sink never reserved ahead (largest excess %d bytes, one chunk is %d)", slack, chunk)
	}
}

// TestStrategyDecisionsRecorded pins the one-executor property: however a
// run's plan came about — sampled, or dictated by a tie-break — its decision
// is recorded through the same path (one entry per generated run, run ids
// unique and in range, every field a plan has filled in, sampled statistics
// present exactly when the plan was sampled), and Algo names the kernel that
// ran, which the kernels' own counters confirm.
func TestStrategyDecisionsRecorded(t *testing.T) {
	uints := workload.UintColumnsTable(workload.Dist{Random: true}.Generate(8_000, 2, 144))
	uintKeys := []SortColumn{{Column: 0}, {Column: 1}}
	col0 := []SortColumn{{Column: 0}}
	// Sorted, in 64-row duplicate groups: every sample sees DupRunFrac ~ 63/64.
	groups := make([]uint32, 16_000)
	// Groups of two with a single row after every twelfth: adjacent groups
	// average 1.92 rows in every run, under the collector's bar of two, while
	// 48 % of adjacent pairs are equal — so a good share of the 256-row samples
	// read one half or more, and their duplicate-group plans miss.
	nearPairs := make([]uint32, 40_000)
	for i := range groups {
		groups[i] = uint32(i / 64)
	}
	for i := range nearPairs {
		nearPairs[i] = uint32(i/25*13+i%25/2) * 2654435761
	}

	for _, tc := range []struct {
		name   string
		tbl    *vector.Table
		keys   []SortColumn
		forced string   // expected Forced value, "" = sampled plan
		algos  []string // the kernels the runs may name; nil = any
	}{
		{"sampled", uints, uintKeys, "", []string{"msd-radix"}},
		{"sampled dup-group", workload.UintColumnsTable([][]uint32{groups}), col0, "", []string{"dup-group"}},
		{"dup-group miss", workload.UintColumnsTable([][]uint32{nearPairs}), col0, "dup-group-miss", []string{"msd-radix"}},
		{"tie-break", mixedTable(8_000, 91), mergeTestKeys, "tie-break", []string{"pdqsort"}},
	} {
		s := finalizedSorter(t, tc.tbl, tc.keys, Options{Threads: 2, RunSize: 1000})
		checkSorted(t, tc.tbl, resultChecked(t, s), tc.keys, tc.name)
		st := s.Stats()
		s.Close()
		if int64(len(st.StrategyDecisions)) != st.RunsGenerated {
			t.Fatalf("%s: %d decisions for %d runs", tc.name, len(st.StrategyDecisions), st.RunsGenerated)
		}
		seen := map[int]bool{}
		ran := map[string]int64{}
		asPlanned := 0 // runs whose plan came about the way under test
		for _, d := range st.StrategyDecisions {
			if seen[d.Run] || d.Run < 0 || d.Run >= int(st.RunsGenerated) {
				t.Fatalf("%s: bad or duplicate run id %d", tc.name, d.Run)
			}
			seen[d.Run] = true
			ran[d.Algo]++
			if d.Algo == "" || d.Rows <= 0 || d.MergeRole == "" {
				t.Fatalf("%s: incomplete decision %+v", tc.name, d)
			}
			algos := tc.algos
			if tc.forced != "" && d.Forced == "" {
				// Sampled where the row expects otherwise: a run none of whose
				// chunks reported a possible tie, or whose sample read under the
				// duplicate-group gate.
				algos = []string{"msd-radix"}
			} else if asPlanned++; d.Forced != tc.forced {
				t.Fatalf("%s: forced = %q, want %q", tc.name, d.Forced, tc.forced)
			}
			if !slices.Contains(algos, d.Algo) {
				t.Fatalf("%s: run sorted by %q, want one of %v", tc.name, d.Algo, algos)
			}
			if sampled := d.RadixCost > 0 && d.PdqCost > 0; sampled != (d.Forced != "tie-break") {
				t.Fatalf("%s: sampled statistics on a dictated plan, or none on a sampled one: %+v", tc.name, d)
			}
			if d.Algo == "dup-group" && (d.DupRunFrac < 0.5 || d.MergeRole != "dup-heavy" || !d.FrontCode) {
				t.Fatalf("%s: a duplicate-group run's plan should read half its pairs equal, merge dup-heavy and front-code: %+v", tc.name, d)
			}
		}
		if asPlanned == 0 {
			t.Fatalf("%s: no run's plan came about the way under test", tc.name)
		}
		if ran["dup-group"] != st.Counters[obs.DupGroupRuns] || (ran["dup-group"] > 0) != (st.Counters[obs.DupGroupRows] > 0) {
			t.Fatalf("%s: decisions name %v; the kernel counted %d grouped runs and %d grouped rows",
				tc.name, ran, st.Counters[obs.DupGroupRuns], st.Counters[obs.DupGroupRows])
		}
	}
}

// TestSortRunComparesBytesUnlessTied pins the paper's memcmp: a run whose
// keys cannot tie is compared, when its plan is a comparison sort, with one
// bytes.Compare over the key prefix — never through the segment-wise
// tie-breaking comparator, whose payload lookup the varchar key's equal
// values would reach on every match. The lookup handed to sortRun fails the
// test if it is ever called.
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
	if tieBreak || !s.enc.SegCanTie(0) {
		t.Fatalf("the run should be byte-decisive (tieBreak = %v) on a segment that could tie", tieBreak)
	}
	var dec StrategyDecision
	keys = k.sortRun(keys, n, strategy.Plan{Algo: strategy.AlgoPdqsort}, false,
		func(uint32, uint32) (*row.RowSet, int) {
			t.Error("a byte-decisive run was compared through the payload lookup")
			return k.payload, 0
		}, &dec)
	if dec.Algo != "pdqsort" {
		t.Fatalf("sortRun ran %q, want pdqsort", dec.Algo)
	}
	for i := 1; i < n; i++ {
		if bytes.Compare(keys[(i-1)*s.rowWidth:][:s.keyWidth], keys[i*s.rowWidth:][:s.keyWidth]) > 0 {
			t.Fatalf("key rows %d and %d are out of order", i-1, i)
		}
	}
}
