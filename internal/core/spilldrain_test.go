package core

import (
	"bytes"
	"fmt"
	"io"
	"os"
	"runtime"
	"syscall"
	"testing"
	"time"

	"rowsort/internal/mem"
	"rowsort/internal/obs"
	"rowsort/internal/spill"
	"rowsort/internal/vector"
	"rowsort/internal/workload"
)

// tablesEqual asserts a and b hold identical rows in identical order.
func tablesEqual(t *testing.T, want, got *vector.Table, ctx string) {
	t.Helper()
	if got.NumRows() != want.NumRows() {
		t.Fatalf("%s: got %d rows, want %d", ctx, got.NumRows(), want.NumRows())
	}
	for c := range want.Schema {
		wc, gc := want.Column(c), got.Column(c)
		for i := 0; i < want.NumRows(); i++ {
			if wv, gv := wc.Value(i), gc.Value(i); wv != gv {
				t.Fatalf("%s: row %d col %d: got %v, want %v", ctx, i, c, gv, wv)
			}
		}
	}
}

// spilledSorter ingests tbl through a single sink with every run kept in
// memory, then spills by hand the runs spill selects — in blocks of blockRows
// rows (0: as the sorter would), their keys front-coded where that shrinks
// them when frontCode says so, as a merge pass's output is — and finalizes. The runs are those of an
// in-memory sort under the same options, so its oracle is this sort's too.
// The caller closes the sorter.
func spilledSorter(t testing.TB, tbl *vector.Table, keys []SortColumn, opt Options, blockRows int, frontCode bool, spill func(run int) bool) *Sorter {
	t.Helper()
	s := ingestedSorter(t, tbl, keys, opt, pinBlockRows(blockRows))
	s.pinFrontCode = frontCode
	for i, r := range s.runs {
		if r.spill != nil {
			t.Fatalf("run %d spilled during ingest", i)
		}
		if spill(i) {
			if err := s.spillRun(r, nil); err != nil {
				t.Fatal(err)
			}
		}
	}
	if err := s.Finalize(); err != nil {
		t.Fatal(err)
	}
	return s
}

func allRuns(int) bool { return true }

// within runs f on its own goroutine and fails the test, with every
// goroutine's stack, if it has not returned in time: a hung merge must not
// hang the suite.
func within(t *testing.T, ctx string, limit time.Duration, f func()) {
	t.Helper()
	done := make(chan struct{})
	go func() {
		defer close(done)
		f()
	}()
	select {
	case <-done:
	case <-time.After(limit):
		buf := make([]byte, 1<<20)
		t.Fatalf("%s: not done after %v\n%s", ctx, limit, buf[:runtime.Stack(buf, true)])
	}
}

// TestSpilledRowsGridByteIdentity is the byte-identity bar of the merge over
// spilled runs: whatever the worker count, the block size, the key sections'
// coding and which runs are on disk, Rows yields the rows the scalar-merge oracle
// yields for the same runs in memory — compared as rows, since a task's last
// chunk may be short — across run counts on both sides of a power of two,
// merges with and without the tie-break comparator, and unique,
// duplicate-heavy and all-equal keys (where every fence ties, and the plan
// must degrade to one task).
func TestSpilledRowsGridByteIdentity(t *testing.T) {
	const n = 3*vector.DefaultVectorSize + 17
	sorts, tasks, frontCoded := 0, int64(0), int64(0)
	for _, runs := range []int{1, 2, 3, 16, 17} {
		// A sink cuts a run at the first chunk boundary at or past RunSize: a
		// run is a whole number of chunks, about n/runs rows together.
		chunks := ((n+runs-1)/runs + vector.DefaultVectorSize - 1) / vector.DefaultVectorSize
		chunkRows := ((n+runs-1)/runs + chunks - 1) / chunks
		perRun := chunks * chunkRows
		tables := [len(drainKeyNames)]*vector.Table{}
		for dist := range tables {
			tables[dist] = drainTable(n, chunkRows, dist, uint64(n+runs))
		}
		for _, tieBreak := range []bool{false, true} {
			for dist, tbl := range tables {
				keys := drainKeys(tieBreak)
				mem0 := finalizedSorter(t, tbl, keys, Options{Threads: 1, RunSize: perRun})
				if len(mem0.runs) != runs {
					t.Fatalf("%d runs generated, want %d", len(mem0.runs), runs)
				}
				want := rowify(t, oracleResult(t, mem0)).Bytes()
				mem0.Close()
				for _, frontCode := range []bool{false, true} {
					// One block a run, the default, one that leaves a ragged
					// last block, and blocks of a few rows.
					for _, blockRows := range []int{perRun, 0, 2*perRun/5 + 1, 7} {
						check := func(ctx string, opt Options, spill func(int) bool) {
							opt.RunSize = perRun
							s := spilledSorter(t, tbl, keys, opt, blockRows, frontCode, spill)
							ctx = fmt.Sprintf("%s: runs=%d keys=%s tie=%v frontcode=%v block=%d threads=%d",
								ctx, runs, drainKeyNames[dist], tieBreak, frontCode, blockRows, opt.Threads)
							got := drainAll(t, s)
							if !bytes.Equal(rowify(t, got).Bytes(), want) {
								t.Fatalf("%s: rows differ from the oracle's", ctx)
							}
							st := s.Stats()
							if st.SpillBytesRead != st.SpillBytesWritten {
								t.Fatalf("%s: read %d spill bytes, wrote %d", ctx, st.SpillBytesRead, st.SpillBytesWritten)
							}
							if dist == keysAllEqual && st.ExtMergeParts != 1 {
								t.Fatalf("%s: %d tasks over keys that all tie on the cut prefix, want 1", ctx, st.ExtMergeParts)
							}
							sorts++
							tasks += st.ExtMergeParts
							frontCoded += st.Counters[obs.SpillFCBlocks]
							if err := s.Close(); err != nil {
								t.Fatalf("%s: %v", ctx, err)
							}
						}
						threads := []int{1, 2, 4, 8}
						if frontCode {
							threads = []int{1, 4}
						}
						for _, th := range threads {
							check("all spilled", Options{Threads: th}, allRuns)
						}
						check("mixed, budgeted", Options{Threads: 2, Broker: mem.NewBroker("grid", 1<<30)},
							func(run int) bool { return run%2 == 1 || runs == 1 })
					}
				}
			}
		}
	}
	if tasks < 4*int64(sorts) || frontCoded == 0 {
		t.Errorf("%d sorts ran %d tasks and wrote %d front-coded blocks: the grid missed what it is for", sorts, tasks, frontCoded)
	}
}

// TestSpillFilesAreOneFormat pins that every writer of a run's file — a run a
// sink cut, one pinned to try front-coding, an intermediate merge pass — goes
// through the one spill.Writer and so the one format (whose bytes
// internal/spill's own tests pin): a cut run's blocks stay raw even where
// coding would shrink them, a pinned run's are front-coded, a pass codes what
// it produced, and a merge over a mix of them drains byte-identical to the
// in-memory oracle. A stage opens a file only if it starts with the format's
// header.
func TestSpillFilesAreOneFormat(t *testing.T) {
	// coded spills run r and returns how many of its blocks, and how many
	// front-coded, that wrote.
	coded := func(s *Sorter, r *sortedRun) (blocks int, frontCoded int64) {
		t.Helper()
		before := s.ctr.Value(obs.SpillFCBlocks)
		if err := s.spillRun(r, nil); err != nil {
			t.Fatal(err)
		}
		return r.spill.NumBlocks(), s.ctr.Value(obs.SpillFCBlocks) - before
	}
	const perRun, blockRows = vector.DefaultVectorSize, 512
	tbl := drainTable(5*perRun, perRun, keysDupHeavy, 23)

	// A run a sink cut is written raw, on these keys too — eight values, so
	// every block would shrink.
	keys := drainKeys(false)
	def := ingestedSorter(t, tbl, keys, Options{Threads: 1, RunSize: perRun}, pinBlockRows(blockRows))
	for _, r := range def.runs {
		if n, fc := coded(def, r); n != perRun/blockRows || fc != 0 {
			t.Errorf("cut run %d: %d blocks, %d front-coded", r.id, n, fc)
		}
	}
	def.Close()

	// The mix: every other run pinned to try front-coding. With the budget
	// all but taken, Finalize merges the five files down to two in passes of
	// two: ((0 1) (2 3)) and 4.
	opt := Options{Threads: 1, RunSize: perRun}
	mem0 := finalizedSorter(t, tbl, keys, opt)
	want := rowify(t, oracleResult(t, mem0)).Bytes()
	mem0.Close()
	broker := mem.NewBroker("one-format", 1<<30)
	opt.Broker, opt.ReadAhead = broker, -1
	s := ingestedSorter(t, tbl, keys, opt, pinBlockRows(blockRows))
	defer s.Close()
	for i, r := range s.runs {
		s.pinFrontCode = i%2 == 1
		if n, fc := coded(s, r); n != perRun/blockRows || (fc > 0) != s.pinFrontCode {
			t.Errorf("run %d, front-coding %v: %d blocks, %d front-coded", i, s.pinFrontCode, n, fc)
		}
	}
	s.pinFrontCode = false
	s.dropPools()
	hog := broker.Reserve("hog", broker.Remaining()-(1<<10))
	defer hog.Release()
	before := s.ctr.Value(obs.SpillFCBlocks)
	if err := s.Finalize(); err != nil {
		t.Fatal(err)
	}
	if st := s.Stats(); st.MergePasses != 3 || len(s.streamActive) != 2 || s.streamActive[1] != 4 {
		t.Fatalf("%d passes left runs %v, want three and a pass's output beside run 4", st.MergePasses, s.streamActive)
	}
	if s.ctr.Value(obs.SpillFCBlocks) == before {
		t.Error("the passes wrote no front-coded key sections")
	}
	if got := rowify(t, drainAll(t, s)).Bytes(); !bytes.Equal(got, want) {
		t.Error("the merge of a pass's output and a raw run differs from the oracle")
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
}

// TestAdaptiveFrontCodedSpillMatchesResident is the front-coding round trip
// through the public options, and its refusal: an external sort — eager, or
// under a budget small enough to force merge passes — must produce exactly
// the rows of the same sort run fully in memory. A run a sink cuts is written
// raw, so an eager spill front-codes nothing, even of duplicate-heavy keys; a
// merge pass's output tries, and front-codes duplicate-heavy keys. Sorted
// high-cardinality keys it leaves raw: a pass's neighbours share two key
// bytes and the validity byte of nine, a predicted ratio above the writer's
// cutoff, and coding them costs more time than it saves bytes.
func TestAdaptiveFrontCodedSpillMatchesResident(t *testing.T) {
	vals := make([]uint32, 40_000)
	for i := range vals {
		vals[i] = uint32(i / 32)
	}
	dupHeavy := workload.UintColumnsTable([][]uint32{vals})
	uniform := workload.UniformInt64s(1<<16, 7)
	keys := []SortColumn{{Column: 0}}
	for _, c := range []struct {
		name   string
		tbl    *vector.Table
		budget bool
		coded  bool
	}{
		{"duplicate-heavy, eager spill", dupHeavy, false, false},
		{"duplicate-heavy, merge passes", dupHeavy, true, true},
		{"uniform, merge passes", uniform, true, false},
	} {
		base := Options{Threads: 1, RunSize: 1500}
		resident, err := SortTable(c.tbl, keys, base)
		if err != nil {
			t.Fatal(err)
		}
		ext := base
		if c.budget {
			ext.Broker = mem.NewBroker("passes", 64<<10)
		} else {
			ext.SpillDir = t.TempDir()
		}
		spilled, st, err := SortTableStats(c.tbl, keys, ext)
		if err != nil {
			t.Fatal(err)
		}
		fc := st.Counters[obs.SpillFCBlocks]
		if st.SpillBytesWritten == 0 || (st.MergePasses > 0) != c.budget || (fc > 0) != c.coded {
			t.Errorf("%s: %d spill bytes, %d merge passes, %d blocks front-coded", c.name, st.SpillBytesWritten, st.MergePasses, fc)
		}
		tablesEqual(t, resident, spilled, c.name)
	}
}

// TestSpilledDrainSurvivesSkew is the case the demand read exists for: every
// block of one run lies between two consecutive fences of the other, past
// the last key of the block before them. The forecast — which orders blocks
// by their first key — wants all of the dense run's blocks before the wide
// run's next one; the merge cannot emit a dense row until it has seen that
// one. With the stage at its smallest the drain must still finish.
func TestSpilledDrainSurvivesSkew(t *testing.T) {
	const perRun, blockRows = 4096, 16
	schema := vector.Schema{{Name: "k", Type: vector.Int64}}
	tbl := vector.NewTable(schema)
	for run := 0; run < 2; run++ {
		for start := 0; start < perRun; start += vector.DefaultVectorSize {
			c := vector.NewChunk(schema, vector.DefaultVectorSize)
			for i := start; i < start+vector.DefaultVectorSize; i++ {
				k := int64(i) * 1_000_000 // the wide run: a block spans 16,000,000
				if run == 1 {
					k = 31_000_001 + int64(i) // the dense run: all between the wide run's second block and its third
				}
				c.Vectors[0].AppendInt64(k)
			}
			tbl.Chunks = append(tbl.Chunks, c)
		}
	}
	keys := []SortColumn{{Column: 0}}
	mem0 := finalizedSorter(t, tbl, keys, Options{Threads: 1, RunSize: perRun})
	want := rowify(t, oracleResult(t, mem0)).Bytes()
	mem0.Close()
	for _, threads := range []int{1, 4} {
		for _, readAhead := range []int{-1, 1} {
			ctx := fmt.Sprintf("threads=%d readahead=%d", threads, readAhead)
			s := spilledSorter(t, tbl, keys, Options{Threads: threads, RunSize: perRun, ReadAhead: readAhead},
				blockRows, false, allRuns)
			var got *vector.Table
			var err error
			within(t, ctx, 30*time.Second, func() { got, err = s.Result() })
			if err != nil || !bytes.Equal(rowify(t, got).Bytes(), want) {
				t.Errorf("%s: rows differ from the oracle's (%v)", ctx, err)
			}
			if err := s.Close(); err != nil {
				t.Error(err)
			}
		}
	}
}

// sixteenSpilledRuns is a sort of sixteen runs of sixteen blocks each, all on
// disk: sixteen tasks or so.
func sixteenSpilledRuns(t testing.TB, opt Options) (*Sorter, *vector.Table) {
	const perRun, blockRows = 8 * vector.DefaultVectorSize, 1024
	tbl := workload.CatalogSales(16*perRun, 10, 17)
	opt.RunSize = perRun
	s := spilledSorter(t, tbl, []SortColumn{{Column: 0}, {Column: 1}, {Column: 2}, {Column: 3}}, opt, blockRows, false, allRuns)
	if len(s.runs) != 16 || s.runs[0].spill.NumBlocks() != 16 {
		t.Fatalf("%d runs of %d blocks", len(s.runs), s.runs[0].spill.NumBlocks())
	}
	return s, tbl
}

// TestSpilledRowsMergesLazily pins the mechanism: Finalize of a sort whose
// runs are on disk reads and merges nothing, and when the first chunk is out
// no more blocks have been read than the stage may hold — the first chunk
// waited for one block of each run, not for the merge — with no more
// goroutines running than the workers and the stage's one.
func TestSpilledRowsMergesLazily(t *testing.T) {
	for _, threads := range []int{1, 2} {
		s, _ := sixteenSpilledRuns(t, Options{Threads: threads})
		defer s.Close()
		if st := s.Stats(); st.SpillBytesRead != 0 || s.ctr.Value(obs.RowsMerged) != 0 || st.Merge.Comparisons != 0 {
			t.Fatalf("threads=%d: Finalize read %d spill bytes and merged %d rows", threads, st.SpillBytesRead, s.ctr.Value(obs.RowsMerged))
		}
		base := runtime.NumGoroutine()
		it, err := s.Rows()
		if err != nil {
			t.Fatal(err)
		}
		if c, err := it.Next(); err != nil || c == nil {
			t.Fatalf("first chunk: %v, %v", c, err)
		}
		// With read-ahead on every block read is a prefetched one. A block is
		// read because a task asked for it or as the forecast's: the tasks
		// that can have been claimed — the window's, while the consumer is on
		// its first — ask only for blocks their key ranges span, and the
		// forecast holds at most ReadAhead blocks a run and claimant that
		// nobody asked for. That bounds the reads however the goroutines
		// were scheduled.
		plan := s.planSpillTasks(s.streamActive, s.opt.limited())
		window := 1
		if threads > 1 {
			window = drainWindowPerThread * threads
		}
		_, hi := plan.Bound(min(window, plan.Tasks()) - 1)
		spanned := 0
		for i := range plan.ids {
			first, end := plan.Span(i, nil, hi)
			spanned += end - first
		}
		claimants := min(threads, plan.Tasks())
		most := int64(spanned + claimants*DefaultReadAhead*len(plan.ids))
		if n := s.ctr.Value(obs.PrefetchedBlocks); n < 16 || n > most || most > 16*16/2 {
			t.Errorf("threads=%d: %d of 256 blocks read when the first chunk returned; want one a run at least, at most %d",
				threads, n, most)
		}
		if merged, window := s.ctr.Value(obs.RowsMerged), int64(drainWindowPerThread*threads*drainTaskRows); merged == 0 || merged > window {
			t.Errorf("threads=%d: %d rows merged when the first chunk returned; want at most the window's %d", threads, merged, window)
		}
		if extra, most := runtime.NumGoroutine()-base, threads+1; extra > most || (threads == 1 && extra != 1) {
			t.Errorf("threads=%d: %d goroutines more than before Rows; want the stage's, and a worker a thread beyond one", threads, extra)
		}
		if err := it.Close(); err != nil {
			t.Fatal(err)
		}
		waitGoroutines(t, fmt.Sprintf("threads=%d", threads), base)
	}
}

// TestSpilledDrainReadsEachBlockOnce pins the read amplification at 1: a
// block that straddles a task boundary is decoded once and handed to both
// tasks, whatever the worker count.
func TestSpilledDrainReadsEachBlockOnce(t *testing.T) {
	for _, threads := range []int{1, 2, 4, 8} {
		for rep := 0; rep < 2; rep++ {
			s, tbl := sixteenSpilledRuns(t, Options{Threads: threads})
			if out := drainAll(t, s); out.NumRows() != tbl.NumRows() {
				t.Fatalf("drained %d of %d rows", out.NumRows(), tbl.NumRows())
			}
			st := s.Stats()
			if st.SpillBytesRead != st.SpillBytesWritten || st.SpillBytesWritten == 0 {
				t.Errorf("threads=%d: read %d spill bytes, wrote %d", threads, st.SpillBytesRead, st.SpillBytesWritten)
			}
			if st.ExtMergeParts < 8 || st.MergeFanIn != 16 || st.Merge.BytesMoved != 0 {
				t.Errorf("threads=%d: %d tasks, fan-in %d, %d key bytes moved", threads, st.ExtMergeParts, st.MergeFanIn, st.Merge.BytesMoved)
			}
			if left := spillFiles(t, s.spills.Root()); len(left) != 0 {
				t.Errorf("threads=%d: %d spill files left by a drain that ran to the end", threads, len(left))
			}
			if err := s.Close(); err != nil {
				t.Fatal(err)
			}
		}
	}
}

// TestSpilledSortHoldsNoOutput pins what the lazy merge saves a spilled sort:
// Finalize and the drain hold no more than the stage's blocks — the peak stays
// run generation's — and allocate the blocks they read and the chunks they
// return, not a merged key array (rows x rowWidth bytes) nor a second copy
// of the payload.
func TestSpilledSortHoldsNoOutput(t *testing.T) {
	const perRun, blockRows = 8 * vector.DefaultVectorSize, 1024
	tbl := workload.CatalogSales(16*perRun, 10, 18)
	keys := []SortColumn{{Column: 0}, {Column: 1}, {Column: 2}, {Column: 3}}
	s := ingestedSorter(t, tbl, keys, Options{Threads: 1, RunSize: perRun, SpillDir: t.TempDir()}, pinBlockRows(blockRows))
	defer s.Close()
	rungenPeak := s.broker.Peak()
	mergedKeys := uint64(tbl.NumRows() * s.rowWidth)

	var m0, m1 runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&m0)
	if err := s.Finalize(); err != nil {
		t.Fatal(err)
	}
	out := drainAll(t, s)
	runtime.ReadMemStats(&m1)
	if out.NumRows() != tbl.NumRows() {
		t.Fatalf("drained %d rows, want %d", out.NumRows(), tbl.NumRows())
	}

	st := s.Stats()
	blockBytes := st.SpillBytesWritten / (16 * 16)
	if most := rungenPeak + 16*2*blockBytes; st.PeakResidentRunBytes > most {
		t.Errorf("peak %d bytes; run generation's was %d and the stage holds two blocks a run of about %d each",
			st.PeakResidentRunBytes, rungenPeak, blockBytes)
	}
	outBytes := uint64(rowify(t, out).MemSize())
	alloc := m1.TotalAlloc - m0.TotalAlloc
	t.Logf("Finalize and the drain allocated %d bytes: %d of blocks read, about %d of output; a merged key array is %d",
		alloc, st.SpillBytesRead, outBytes, mergedKeys)
	if most := uint64(st.SpillBytesRead) + 2*outBytes + mergedKeys/2; alloc > most {
		t.Errorf("Finalize and the drain allocated %d bytes, want at most %d: is the output materialised again?", alloc, most)
	}
}

// faultySorter is a default sort of eight spilled runs of eight blocks, and
// the directory they are in.
func faultySorter(t *testing.T, threads int) (*Sorter, string) {
	const perRun, blockRows = 2 * vector.DefaultVectorSize, 512
	tbl := drainTable(8*perRun, vector.DefaultVectorSize, keysUnique, 19)
	s := spilledSorter(t, tbl, drainKeys(false), Options{Threads: threads, RunSize: perRun}, blockRows, false, allRuns)
	if len(s.runs) != 8 {
		t.Fatalf("%d runs", len(s.runs))
	}
	return s, s.spills.Root()
}

// noLeaks checks what every end of a spilled sort must leave behind: no
// goroutine, no file, no broker byte.
func noLeaks(t *testing.T, ctx string, s *Sorter, dir string, base int) {
	t.Helper()
	if err := s.Close(); err != nil {
		t.Errorf("%s: Sorter.Close: %v", ctx, err)
	}
	waitGoroutines(t, ctx, base)
	if left := spillFiles(t, dir); len(left) != 0 {
		t.Errorf("%s: %d spill files left after Close", ctx, len(left))
	}
	if _, err := os.Stat(dir); dir != "" && !os.IsNotExist(err) {
		t.Errorf("%s: the private spill directory is still there after Close (%v)", ctx, err)
	}
	if used := s.broker.Used(); used != 0 {
		t.Errorf("%s: broker holds %d bytes after Close", ctx, used)
	}
}

// A sort with runs on disk goes through these stages, in this order; a fault
// is armed as the sort enters one.
const (
	stageRunSpill     = iota // resident runs are written out
	stagePassRewrite         // Finalize, its budget all but gone, merges files into files
	stageForecastRead        // the drain, read-ahead on: the fault is the forecast goroutine's
	stageDemandRead          // the drain, read-ahead off: every read is a claimant's
	stageClose               // Sorter.Close after a drain abandoned
	numFaultStages
)

var faultStageNames = [numFaultStages]string{"run spill", "pass rewrite", "forecast read", "demand read", "close"}

// spillFaults is the fault table's first axis: what the filesystem does, as
// a function of the stage it does it in, and the stages it can be done in.
var spillFaults = []struct {
	name   string
	stages []int
	fault  func(stage int) fsFault
}{
	{"ENOSPC at byte 100000", []int{stageRunSpill, stagePassRewrite},
		func(int) fsFault { return fsFault{writeErr: syscall.ENOSPC, writeAt: 100_000} }},
	{"short write", []int{stageRunSpill, stagePassRewrite},
		func(int) fsFault { return fsFault{writeErr: io.ErrShortWrite, writeAt: 7} }},
	{"ENOSPC and a remove that fails", []int{stageRunSpill, stagePassRewrite},
		func(int) fsFault { return fsFault{writeErr: syscall.ENOSPC, writeAt: 40_000, keepFiles: true} }},
	{"EIO on read", []int{stagePassRewrite, stageForecastRead, stageDemandRead}, func(stage int) fsFault {
		if stage == stageForecastRead {
			return fsFault{readErr: syscall.EIO, from: "(*Stage).forecast"}
		}
		return fsFault{readErr: syscall.EIO, readAt: 10} // past the headers
	}},
	{"truncated file", []int{stagePassRewrite, stageForecastRead, stageDemandRead},
		func(int) fsFault { return fsFault{truncateAt: 100_000} }},
	{"missing file", []int{stagePassRewrite, stageForecastRead, stageDemandRead},
		func(int) fsFault { return fsFault{missing: true} }},
	{"failing remove", []int{stagePassRewrite, stageForecastRead, stageDemandRead, stageClose},
		func(int) fsFault { return fsFault{keepFiles: true} }},
	{"panicking FS", []int{stageForecastRead, stageDemandRead}, func(stage int) fsFault {
		if stage == stageForecastRead {
			return fsFault{panics: true, from: "(*Stage).forecast"}
		}
		return fsFault{panics: true, from: "(*Stage).Acquire"} // not under Rows, which is the caller's
	}},
}

// TestSpilledDrainFaults is the fault table: every fault the filesystem seam
// can produce, in every stage of a spilled sort it can occur in, inline and
// with workers, under a private and a shared broker. Every cell ends in a
// returned error — from the stage it hit, or from Sorter.Close when all that
// failed was a removal, and then with the right rows — never a short or wrong
// result, never a hang; a worker's or the forecast's panic is such an error
// too. When the fault is gone a second Close succeeds, and nothing is left:
// no file, no goroutine, no broker byte.
func TestSpilledDrainFaults(t *testing.T) {
	const perRun, blockRows = 2 * vector.DefaultVectorSize, 512
	tbl := drainTable(8*perRun, vector.DefaultVectorSize, keysUnique, 19)
	keys := drainKeys(false)
	mem0 := finalizedSorter(t, tbl, keys, Options{Threads: 1, RunSize: perRun})
	want := rowify(t, oracleResult(t, mem0)).Bytes()
	mem0.Close()

	for _, f := range spillFaults {
		for _, stage := range f.stages {
			for _, threads := range []int{1, 4} {
				for _, shared := range []bool{false, true} {
					ctx := fmt.Sprintf("%s in %s, threads=%d shared broker=%v", f.name, faultStageNames[stage], threads, shared)
					base := runtime.NumGoroutine()
					opt := Options{Threads: threads, RunSize: perRun}
					if stage == stageDemandRead {
						opt.ReadAhead = -1
					}
					var broker *mem.Broker
					switch {
					case shared:
						broker = mem.NewBroker("shared", 1<<30)
						opt.Broker = broker
					case stage == stagePassRewrite:
						opt.MemoryLimit = 1 << 30 // passes are a budget's doing
					}
					ffs := &faultFS{FS: spill.OS()}
					s := ingestedSorter(t, tbl, keys, opt, pinBlockRows(blockRows), pinFS(ffs))
					var out *vector.Table
					var err error
					var dir string
					panicked := false
					within(t, ctx, 30*time.Second, func() {
						// The sort, stage by stage, until something fails.
						steps := [numFaultStages]func() error{
							stageRunSpill: func() error {
								for _, r := range s.runs {
									if err := s.spillRun(r, nil); err != nil {
										return err
									}
								}
								return nil
							},
							stagePassRewrite: func() error {
								if stage == stagePassRewrite {
									s.dropPools()
									hog := s.broker.Reserve("hog", s.broker.Remaining()-(1<<10))
									defer hog.Release()
								}
								return s.Finalize()
							},
							stageDemandRead: func() (err error) {
								it, err := s.Rows()
								if err != nil {
									return err
								}
								defer func() {
									if r := recover(); r != nil {
										panicked, err = true, fmt.Errorf("Next panicked: %v", r)
									}
									if cerr := it.Close(); err == nil {
										err = cerr
									}
								}()
								out = vector.NewTable(tbl.Schema)
								for len(out.Chunks) < 3 || stage != stageClose {
									c, err := it.Next()
									if c == nil {
										return err
									}
									out.Chunks = append(out.Chunks, c)
								}
								return nil
							},
						}
						for at, step := range steps {
							if at == stage || (at == stageDemandRead && stage == stageForecastRead) {
								ffs.arm(f.fault(stage))
							}
							if at == stagePassRewrite {
								dir = s.spills.Root() // every run is out, or none will be
							}
							if step != nil && err == nil {
								err = step()
							}
						}
					})
					// With Threads 1, and under any budget (the merge is then one
					// task), the merge runs on the caller's goroutine and a panic
					// under it is the caller's; a worker's must not be.
					if panicked && threads > 1 && !shared {
						t.Errorf("%s: %v", ctx, err)
					}
					cerr := s.Close()
					if err == nil && cerr == nil {
						t.Errorf("%s: the fault went off %d times and no error was returned", ctx, ffs.fired)
					}
					if err == nil && stage != stageClose && !bytes.Equal(rowify(t, out).Bytes(), want) {
						t.Errorf("%s: no step failed and the rows differ from the oracle's", ctx)
					}
					if ffs.fired == 0 {
						t.Errorf("%s: the fault never went off", ctx)
					}
					// (Workers run ahead of an abandoned drain: by Close they may have
					// read, and removed, every file, and what fails to go is the
					// directory, which is reported and not counted.)
					if removeErrs := s.ctr.Value(obs.SpillRemoveErrors); (removeErrs > 0) != f.fault(stage).keepFiles && stage != stageClose {
						t.Errorf("%s: %d removals counted failed", ctx, removeErrs)
					}
					ffs.arm(fsFault{})
					noLeaks(t, ctx, s, dir, base)
					if used := broker.Used(); used != 0 {
						t.Errorf("%s: the shared broker holds %d bytes after Close", ctx, used)
					}
				}
			}
		}
	}
}

// TestSpilledDrainAbandoned closes the iterator over spilled runs mid-task,
// and the sorter under a live iterator: both leak nothing, the iterator is
// single-use either way, and one the sorter was closed under fails. In the
// last shape a task is about 64 chunks, more than a slot holds, and the
// iterator is closed with every worker blocked on a full slot: a send that
// cannot see the drain stop hangs Close there.
func TestSpilledDrainAbandoned(t *testing.T) {
	type shape struct {
		threads               int
		closeSorter, oversize bool
	}
	shapes := []shape{{1, false, false}, {1, true, false}, {4, false, false}, {4, true, false}, {4, false, true}}
	for _, sh := range shapes {
		ctx := fmt.Sprintf("threads=%d sorter closed first=%v oversized tasks=%v", sh.threads, sh.closeSorter, sh.oversize)
		base := runtime.NumGoroutine()
		var s *Sorter
		if sh.oversize {
			const perRun = 1 << 15
			tbl := drainTable(8*perRun, vector.DefaultVectorSize, keysUnique, 23)
			s = spilledSorter(t, tbl, drainKeys(false), Options{Threads: sh.threads, RunSize: perRun}, 8192, false, allRuns)
		} else {
			s, _ = faultySorter(t, sh.threads)
		}
		dir := s.spills.Root()
		it, err := s.Rows()
		if err != nil {
			t.Fatal(err)
		}
		if sh.oversize && s.resultRows/it.d.tasks <= (drainTaskChunks+1)*vector.DefaultVectorSize {
			t.Fatalf("%s: %d tasks of %d rows fit a slot", ctx, it.d.tasks, s.resultRows)
		}
		for i := 0; i < 3; i++ {
			if c, err := it.Next(); err != nil || c == nil {
				t.Fatalf("%s: chunk %d: %v, %v", ctx, i, c, err)
			}
		}
		if sh.oversize {
			// Close only once every worker is blocked on its full slot.
			within(t, ctx, 10*time.Second, func() {
				for _, slot := range it.d.slots[:it.d.tasks] {
					for len(slot) < cap(slot) {
						time.Sleep(time.Millisecond)
					}
				}
			})
		}
		if sh.closeSorter {
			if err := s.Close(); err != nil {
				t.Fatal(err)
			}
			within(t, ctx, 30*time.Second, func() {
				for err == nil {
					_, err = it.Next()
				}
			})
			if err != errSorterClosed {
				t.Errorf("%s: Next under a closed sorter: %v", ctx, err)
			}
		}
		var cerr error
		within(t, ctx, 10*time.Second, func() { cerr = it.Close() })
		if cerr != err {
			t.Errorf("%s: Close returned %v, want %v", ctx, cerr, err)
		}
		if _, err := s.Rows(); err == nil {
			t.Errorf("%s: a second Rows over spilled runs succeeded", ctx)
		}
		noLeaks(t, ctx, s, dir, base)
	}
}
