package core

import (
	"bytes"
	"fmt"
	"os"
	"runtime"
	"slices"
	"testing"
	"time"

	"rowsort/internal/mem"
	"rowsort/internal/obs"
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
// rows (0: as the sorter would) — and finalizes. The runs are those of an
// in-memory sort under the same options, so its oracle is this sort's too.
// The caller closes the sorter.
func spilledSorter(t testing.TB, tbl *vector.Table, keys []SortColumn, opt Options, blockRows int, spill func(run int) bool) *Sorter {
	t.Helper()
	s := ingestedSorter(t, tbl, keys, opt, pinBlockRows(blockRows))
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

// TestSpillFilesAreOneFormat pins that every writer of a run's file under a
// budget — a sink shedding under pressure, Finalize shedding what is still
// resident, an intermediate merge pass — goes through the one spill.Writer
// at the budget's one block size: every block but a run's last holds exactly
// budgetSpillBlockRows rows, the size the fan-in plan reserved. A merge over
// all of them drains byte-identical to the in-memory oracle, which it could
// not if a block held other than the rows its file's index says: a block's
// rows are counted as it is decoded, and a stage opens a file only if it
// starts with the format's header. The drain's runs — a pass's output, run
// 7, then run 4, which followed its inputs — are out of run-id order, and
// their 18 fences make two tasks: a bound splits their equal keys in merge
// order.
func TestSpillFilesAreOneFormat(t *testing.T) {
	const perRun = 1700 // three full blocks and a ragged last
	tbl := drainTable(5*perRun, perRun, keysDupHeavy, 23)
	keys := drainKeys(false)
	opt := Options{Threads: 1, RunSize: perRun}
	mem0 := finalizedSorter(t, tbl, keys, opt)
	want := rowify(t, oracleResult(t, mem0)).Bytes()
	mem0.Close()

	broker := mem.NewBroker("one-format", 1<<30)
	opt.Broker, opt.ReadAhead = broker, -1
	s := ingestedSorter(t, tbl, keys, opt)
	defer s.Close()
	check := func(who string, r *sortedRun) {
		t.Helper()
		switch f := r.spill; {
		case f == nil:
			t.Errorf("%s run %d is not on disk", who, r.id)
		case f.BlockRows() != budgetSpillBlockRows || f.NumBlocks() != (r.rows+budgetSpillBlockRows-1)/budgetSpillBlockRows:
			t.Errorf("%s run %d of %d rows: %d blocks of %d", who, r.id, r.rows, f.NumBlocks(), f.BlockRows())
		}
	}
	// With the budget a byte over, a sink sheds the largest resident run.
	s.dropPools()
	hog := broker.Reserve("hog", broker.Remaining()+1)
	if err := s.spillUnderPressure(nil); err != nil {
		t.Fatal(err)
	}
	hog.Release()
	check("pressure-shed", s.runs[0])

	// With the budget all but taken once the four runs still resident are
	// shed, Finalize sheds them and merges the five files down to two in
	// passes of two: ((0 1) (2 3)) and 4.
	s.dropPools()
	hog = broker.Reserve("hog", broker.Remaining()+s.runRes.Bytes()-(1<<10))
	defer hog.Release()
	if err := s.Finalize(); err != nil {
		t.Fatal(err)
	}
	if st := s.Stats(); st.MergePasses != 3 || st.PressureSpills != 5 || !slices.Equal(s.resultIDs, []uint32{7, 4}) {
		t.Fatalf("%d passes and %d runs shed left runs %v, want three and five leaving a pass's output beside run 4",
			st.MergePasses, st.PressureSpills, s.resultIDs)
	}
	check("Finalize-shed", s.runs[4])
	check("pass output", s.runs[7])
	if got := rowify(t, drainAll(t, s)).Bytes(); !bytes.Equal(got, want) {
		t.Error("the merge of a pass's output and a shed run differs from the oracle")
	}
	if parts := s.Stats().ExtMergeParts; parts != 2 {
		t.Errorf("the drain of %d fences ran %d tasks, want 2", resultFences(s), parts)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
}

// TestFanInPlanCountsStringHeap pins the block a budgeted merge plans for:
// the largest block of the files it merges, string heap and all — what the
// block stage charges for one. Eight spilled runs with a 64-byte varchar
// payload are left a budget of four runs' (1 + ReadAhead) blocks and a half:
// the plan must merge them in passes, and no merge, pass or drain, may hold
// more than that budget beyond the documented slack — a block a run whose
// rows are still being gathered.
func TestFanInPlanCountsStringHeap(t *testing.T) {
	const runs, perRun = 8, 4 * budgetSpillBlockRows
	schema := vector.Schema{{Name: "k", Type: vector.Int64}, {Name: "s", Type: vector.Varchar}}
	tbl := vector.NewTable(schema)
	rng := workload.NewRNG(29)
	for start := 0; start < runs*perRun; start += vector.DefaultVectorSize {
		c := vector.NewChunk(schema, vector.DefaultVectorSize)
		for i := 0; i < vector.DefaultVectorSize; i++ {
			k := int64(rng.Uint64() >> 1)
			c.Vectors[0].AppendInt64(k)
			c.Vectors[1].AppendString(fmt.Sprintf("%064d", k))
		}
		tbl.Chunks = append(tbl.Chunks, c)
	}
	keys := []SortColumn{{Column: 0}}
	mem0 := finalizedSorter(t, tbl, keys, Options{Threads: 1, RunSize: perRun})
	want := rowify(t, oracleResult(t, mem0)).Bytes()
	mem0.Close()

	root := mem.NewBroker("root", 1<<30)
	s := ingestedSorter(t, tbl, keys, Options{Threads: 1, RunSize: perRun, Broker: root})
	defer s.Close()
	if len(s.runs) != runs {
		t.Fatalf("%d runs", len(s.runs))
	}
	for _, r := range s.runs {
		if err := s.spillRun(r, nil); err != nil {
			t.Fatal(err)
		}
	}
	f := s.runs[0].spill
	block := f.Size() / int64(f.NumBlocks()) // every block holds as many bytes, and the header is a few more
	// Every merge's stage reserves from the sorter's broker: a child of it in
	// its place sees their charges alone.
	s.dropPools()
	merges := s.broker.Child("merges", 0)
	s.broker = merges
	budget := 4*int64(1+DefaultReadAhead)*block + block/2
	hog := root.Reserve("hog", s.broker.Remaining()-budget)
	defer hog.Release()
	if err := s.Finalize(); err != nil {
		t.Fatal(err)
	}
	if got := rowify(t, drainAll(t, s)).Bytes(); !bytes.Equal(got, want) {
		t.Error("rows differ from the oracle's")
	}
	if peak, most := merges.Peak(), budget+4*block; peak > most {
		t.Errorf("the merges held %d bytes at their peak: %.1f blocks of %d bytes, where the plan had %.1f and the slack is 4",
			peak, float64(peak)/float64(block), block, float64(budget)/float64(block))
	}
	if st := s.Stats(); st.MergePasses == 0 {
		t.Errorf("a fan-in of %d planned for %d runs in a budget of 4 runs' blocks", st.MergeFanIn, runs)
	}
}

// TestBudgetDecidesDrainClaimants pins that a budgeted drain runs on as
// many workers as the budget Finalize left affords — one, the consumer
// itself, when it affords no more, all of Threads when it affords them, and
// never fewer for more budget — over runs half of which are still in
// memory, and that every count drains the oracle's rows and leaves no byte
// charged.
func TestBudgetDecidesDrainClaimants(t *testing.T) {
	const perRun, threads = 2 * vector.DefaultVectorSize, 4
	tbl := drainTable(8*perRun, vector.DefaultVectorSize, keysUnique, 31)
	keys := drainKeys(false)
	mem0 := finalizedSorter(t, tbl, keys, Options{Threads: 1, RunSize: perRun})
	want := rowify(t, oracleResult(t, mem0)).Bytes()
	mem0.Close()

	last, seen := 0, map[int]bool{}
	for _, left := range []int64{0, 512 << 10, 1 << 20, 2 << 20, 3 << 20, 4 << 20, 8 << 20, 1 << 29} {
		ctx := fmt.Sprintf("%d bytes left", left)
		root := mem.NewBroker("root", 1<<30)
		s := spilledSorter(t, tbl, keys, Options{Threads: threads, RunSize: perRun, Broker: root}, 0,
			func(run int) bool { return run%2 == 1 })
		s.dropPools()
		hog := root.Reserve("hog", s.broker.Remaining()-left)
		it, err := s.Rows()
		if err != nil {
			t.Fatal(err)
		}
		claimants := max(len(it.d.slots)/drainWindowPerThread, 1)
		if claimants < last || claimants > threads {
			t.Errorf("%s: %d claimants, after %d for less", ctx, claimants, last)
		}
		last, seen[claimants] = claimants, true
		out := vector.NewTable(tbl.Schema)
		for {
			c, err := it.Next()
			if err != nil {
				t.Fatalf("%s: %v", ctx, err)
			}
			if c == nil {
				break
			}
			out.Chunks = append(out.Chunks, c)
		}
		if !bytes.Equal(rowify(t, out).Bytes(), want) {
			t.Errorf("%s: rows differ from the oracle's", ctx)
		}
		if err := s.Close(); err != nil {
			t.Fatal(err)
		}
		hog.Release()
		if used := root.Used(); used != 0 {
			t.Errorf("%s: %d bytes still charged after Close", ctx, used)
		}
	}
	if !seen[1] || !seen[threads] || len(seen) < 3 {
		t.Errorf("claimant counts %v over the budgets: want one, %d and one between", seen, threads)
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
				blockRows, allRuns)
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
	s := spilledSorter(t, tbl, []SortColumn{{Column: 0}, {Column: 1}, {Column: 2}, {Column: 3}}, opt, blockRows, allRuns)
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
		plan := it.d.plan
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
	s := spilledSorter(t, tbl, drainKeys(false), Options{Threads: threads, RunSize: perRun}, blockRows, allRuns)
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
	if _, err := os.Stat(dir); dir != "" && s.opt.SpillDir == "" && !os.IsNotExist(err) {
		t.Errorf("%s: the private spill directory is still there after Close (%v)", ctx, err)
	}
	if used := s.broker.Used(); used != 0 {
		t.Errorf("%s: broker holds %d bytes after Close", ctx, used)
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
			s = spilledSorter(t, tbl, drainKeys(false), Options{Threads: sh.threads, RunSize: perRun}, 8192, allRuns)
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
