package core

import (
	"encoding/binary"
	"errors"
	"flag"
	"fmt"
	"io"
	"runtime"
	"slices"
	"syscall"
	"testing"
	"time"

	"rowsort/internal/mem"
	"rowsort/internal/normkey"
	"rowsort/internal/obs"
	"rowsort/internal/row"
	"rowsort/internal/spill"
	"rowsort/internal/vector"
	"rowsort/internal/workload"
)

// Where a plan keeps its runs.
const (
	storeMemory  = iota // no budget: every run stays in memory
	storeEager          // SpillDir and no budget: every run spills as it is cut
	storePrivate        // a private 1 MiB MemoryLimit: runs spill under pressure
	storeShared         // a shared 1 GiB Broker: every other run spilled by hand (a mixed drain)
	storeTight          // a shared 64 KiB Broker: Finalize merges files into files
	numStores
)

// The spill block a plan pins: none (4,096 rows, 512 under a budget), one a
// run, one that leaves a ragged last block, or seven rows.
const (
	blockDefault = iota
	blockOneARun
	blockRagged
	block7
	numBlocks
)

// The table a plan sorts: drainTable keyed on k (byte-decisive) or on s, k
// (the tie-break comparator), a random schema and key spec, or fitMixTable —
// whose runs mix chunks that leave s in the keys with chunks that cannot —
// keyed on s ASC, on s twice (ASC beside DESC or NOCASE, or at two prefix
// lengths) or on s DESC alone, which leaves no string in the keys.
const (
	schemaByteKeys = iota
	schemaTieKeys
	schemaRandom
	schemaFitMix
	schemaKeyedTwice
	schemaDescOnly
	numSchemas
)

var planRuns, planThreads, planAhead = []int{1, 2, 3, 16, 17}, []int{1, 2, 4, 8}, []int{-1, 0, 2}

// plan is one point of the sorter's plan space, and the fault, if any, that
// the filesystem produces at one stage of it.
type plan struct {
	schema, shape, rows int // the table: drainTable's key shape, up to 3 drain tasks
	runs                int // runs one sink cuts without a budget
	several             bool
	threads             int
	storage, block      int
	readAhead           int
	fault               string // a spillFaults row, or ""
	stage               int
	seed                int
}

// decodePlan reads a plan off fuzz bytes, an axis a byte (rows three, the
// seed two); bytes past the end read as zero. A fault's plan is made one its
// stage exists in.
func decodePlan(b []byte) plan {
	next := func(n int) int {
		v := 0
		if len(b) > 0 {
			v, b = int(b[0]), b[1:]
		}
		return v % n
	}
	p := plan{schema: next(numSchemas), shape: next(numShapes)}
	p.rows = (next(256) | next(256)<<8 | next(256)<<16) % (3*drainTaskRows + 1)
	p.runs, p.several = planRuns[next(len(planRuns))], next(2) == 1
	p.threads = planThreads[next(len(planThreads))]
	p.storage, p.block = next(numStores), next(numBlocks)
	p.readAhead = planAhead[next(len(planAhead))]
	fault, stage := next(len(spillFaults)+1), next(256)
	p.seed = next(256) | next(256)<<8
	p.several = p.several && p.threads > 1
	if fault > 0 {
		f := spillFaults[fault-1]
		p.fault, p.stage = f.name, f.stages[stage%len(f.stages)]
	}
	switch {
	case p.fault == "":
	case p.stage == stageDemandRead:
		p.readAhead = -1 // every read is a claimant's
	case p.stage == stageForecastRead:
		p.readAhead = max(p.readAhead, 0)
	case p.stage == stagePassRewrite && p.storage <= storeEager:
		p.storage = storePrivate // passes are a budget's doing
	}
	return p
}

// encode is decodePlan's inverse, for the seeds.
func (p plan) encode() []byte {
	at := func(pool []int, v int) byte { return byte(slices.Index(pool, v)) }
	bit := map[bool]byte{true: 1}
	fault := faultRow(p.fault)
	stage := 0
	if fault >= 0 {
		stage = slices.Index(spillFaults[fault].stages, p.stage)
	}
	return []byte{byte(p.schema), byte(p.shape), byte(p.rows), byte(p.rows >> 8), byte(p.rows >> 16),
		at(planRuns, p.runs), bit[p.several], at(planThreads, p.threads), byte(p.storage), byte(p.block),
		at(planAhead, p.readAhead), byte(fault + 1), byte(stage), byte(p.seed), byte(p.seed >> 8)}
}

// table builds the plan's input, its last column numbering the rows, in
// chunks cut so that one sink with RunSize perRun cuts p.runs runs (fewer if
// the rows are fewer).
func (p plan) table() (tbl *vector.Table, keys []SortColumn, perRun int) {
	// A sink cuts a run at the first chunk boundary at or past RunSize: a
	// run is a whole number of chunks, about rows/runs rows together.
	per := max(1, (p.rows+p.runs-1)/p.runs)
	chunks := (per + vector.DefaultVectorSize - 1) / vector.DefaultVectorSize
	chunkRows := (per + chunks - 1) / chunks
	switch p.schema {
	case schemaByteKeys, schemaTieKeys:
		return drainTable(p.rows, chunkRows, p.shape, uint64(p.seed)), drainKeys(p.schema == schemaTieKeys), chunks * chunkRows
	case schemaFitMix, schemaKeyedTwice, schemaDescOnly:
		return fitMixTable(p.rows, chunkRows, p.shape, uint64(p.seed)), fitMixKeys(p.schema, p.seed), chunks * chunkRows
	}
	rng := workload.NewRNG(uint64(p.seed))
	schema := make(vector.Schema, 1+rng.Intn(6), 7)
	for c := range schema {
		schema[c] = vector.Column{Name: fmt.Sprintf("c%d", c), Type: vector.Type(1 + rng.Intn(int(vector.Varchar)))}
	}
	keys = make([]SortColumn, 1+rng.Intn(len(schema)))
	for i := range keys {
		keys[i] = SortColumn{Column: rng.Intn(len(schema)), Descending: rng.Intn(2) == 1,
			NullsLast: rng.Intn(2) == 1, CaseInsensitive: rng.Intn(4) == 0}
		if rng.Intn(4) == 0 {
			keys[i].PrefixLen = 1 + rng.Intn(6) // stress string truncation
		}
	}
	schema = append(schema, vector.Column{Name: "id", Type: vector.Int32})
	tbl = vector.NewTable(schema)
	for start := 0; start < p.rows; start += chunkRows {
		count := min(chunkRows, p.rows-start)
		c := vector.NewChunk(schema, count)
		for r := range count {
			for _, v := range c.Vectors[:len(schema)-1] {
				appendRandomValue(v, rng)
			}
			c.Vectors[len(schema)-1].AppendInt32(int32(start + r))
		}
		tbl.Chunks = append(tbl.Chunks, c)
	}
	return tbl, keys, chunks * chunkRows
}

// fitMixTable is drainTable with s rewritten chunk by chunk: short names —
// NULLs, empty strings and strings exactly the 12-byte prefix among them, in
// both cases, drawn from few values so that equal names are common — and, in
// every third chunk, every eighth name overflowing the prefix, or in the next
// one holding a NUL. A chunk of names that fit leaves them in the keys of an
// ASC binary key on s; one where a name does not keeps all of its on the
// heap. A run of several chunks holds both kinds, and merges under the
// tie-break comparator.
func fitMixTable(n, chunkRows, dist int, seed uint64) *vector.Table {
	tbl := drainTable(n, chunkRows, dist, seed)
	for i, c := range tbl.Chunks {
		ks := c.Vectors[0].Int64s()
		names := vector.New(vector.Varchar, c.Len())
		for r, k := range ks[:c.Len()] {
			name := fmt.Sprintf("%c%d", "nN"[k>>3&1], k%97)
			switch {
			case r%8 == 0 && (i+int(seed))%3 == 1:
				name = fmt.Sprintf("%020d-tail", k)
			case r%8 == 0 && (i+int(seed))%3 == 2:
				name += "\x00z"
			case r%16 == 1:
				names.AppendNull()
				continue
			case r%16 == 3:
				name = ""
			case r%16 == 5:
				name = fmt.Sprintf("%012d", k%1_000_000_000_000)
			}
			names.AppendString(name)
		}
		c.Vectors[1] = names
	}
	return tbl
}

// fitMixKeys returns the key spec of a fit-mix schema: s ASC then k; s keyed
// twice, ASC beside DESC or NOCASE or at two prefix lengths (which the seed
// picks), then k; or s DESC alone, then k.
func fitMixKeys(schema, seed int) []SortColumn {
	switch schema {
	case schemaKeyedTwice:
		return [][]SortColumn{
			{{Column: 1}, {Column: 1, Descending: true}, {Column: 0}},
			{{Column: 1, Descending: true, NullsLast: true}, {Column: 1}, {Column: 0}},
			{{Column: 1, CaseInsensitive: true}, {Column: 1}, {Column: 0}},
			{{Column: 1, PrefixLen: 4}, {Column: 1}, {Column: 0, Descending: true}},
		}[seed%4]
	case schemaDescOnly:
		return []SortColumn{{Column: 1, Descending: true, NullsLast: seed%2 == 1}, {Column: 0}}
	}
	return []SortColumn{{Column: 1}, {Column: 0}}
}

// sorter returns a sorter of the plan on fsys, its pins set, and the broker
// it shares, if any.
func (p plan) sorter(t *testing.T, tbl *vector.Table, keys []SortColumn, perRun int, fsys spill.FS) (*Sorter, *mem.Broker) {
	opt := Options{Threads: p.threads, RunSize: perRun, ReadAhead: p.readAhead}
	switch p.storage {
	case storeEager:
		opt.SpillDir = t.TempDir()
	case storePrivate:
		opt.MemoryLimit = 1 << 20
	case storeShared:
		opt.Broker = mem.NewBroker("shared", 1<<30)
	case storeTight:
		opt.Broker = mem.NewBroker("tight", 64<<10)
	}
	s, err := NewSorter(tbl.Schema, keys, opt)
	if err != nil {
		t.Fatalf("%+v: %v", p, err)
	}
	s.pinBlockRows = [numBlocks]int{0, perRun, 2*perRun/5 + 1, 7}[p.block]
	pinFS(fsys)(s)
	return s, opt.Broker
}

// ingest feeds tbl to s through one sink or a ParallelSink, then spills by
// hand all runs (spillAll) or, in a shared plan, every other one.
func (p plan) ingest(s *Sorter, tbl *vector.Table, spillAll bool) error {
	var sink interface {
		Append(*vector.Chunk) error
		Close() error
	} = s.NewSink()
	if p.several {
		sink = s.NewParallelSink()
	}
	var err error
	for _, c := range tbl.Chunks {
		if err = sink.Append(c); err != nil {
			break
		}
	}
	if cerr := sink.Close(); err == nil {
		err = cerr
	}
	for i, r := range s.runs {
		if err == nil && r.spill == nil && (spillAll || p.storage == storeShared && (i%2 == 1 || len(s.runs) == 1)) {
			err = s.spillRun(r, nil)
		}
	}
	return err
}

// FuzzSortPlanSpace draws a plan and, optionally, a filesystem fault at one
// stage of it, and checks what holds across the plan space: the oracle's
// output (checkOracle), the same chunks at any thread count, each spilled
// byte read once, drain tasks cut as planned (checkDrain); a fault that goes
// off ends in an error, never a short or wrong result; nothing hangs or is
// left after Close (check). The seeds are the corners of the tests it
// replaced; a replay of them must reach every fault cell, a pressure spill, a
// merge pass and a drain of several tasks from disk.
func FuzzSortPlanSpace(f *testing.F) {
	seeds := 0
	seed := func(p plan) { f.Add(p.encode()); seeds++ }
	const odd = 3*vector.DefaultVectorSize + 17 // fills neither a chunk nor a task
	const pastTask = drainTaskRows + vector.DefaultVectorSize + 5

	// TestRowsThreadGridByteIdentity: in memory, 1 to 17 runs, one fence past a task, 8 workers.
	seed(plan{rows: 1000, runs: 1, threads: 8})
	seed(plan{schema: schemaTieKeys, shape: keysDupHeavy, rows: odd, runs: 17, threads: 4, seed: 1})
	seed(plan{shape: keysAllEqual, rows: pastTask, runs: 16, threads: 2})
	seed(plan{schema: schemaTieKeys, shape: keysAllEqual, rows: pastTask, runs: 3, threads: 4})
	seed(plan{shape: keysDupHeavy, rows: 20_000, runs: 2, threads: 8, block: block7})
	// TestSpilledRowsGridByteIdentity: all spilled or mixed, every block pin, all-equal keys.
	seed(plan{rows: odd, runs: 1, threads: 1, storage: storeEager, block: blockOneARun})
	seed(plan{schema: schemaTieKeys, shape: keysDupHeavy, rows: odd, runs: 2, threads: 2, storage: storeShared, block: blockRagged})
	seed(plan{schema: schemaTieKeys, shape: keysAllEqual, rows: odd, runs: 3, threads: 4, storage: storeShared, block: block7})
	seed(plan{shape: keysAllEqual, rows: odd, runs: 16, threads: 8, storage: storeEager, block: block7})
	seed(plan{schema: schemaTieKeys, rows: odd, runs: 17, threads: 4, storage: storeShared})
	seed(plan{shape: keysDupHeavy, rows: odd, runs: 17, threads: 8, storage: storeShared, block: blockRagged, seed: 2})
	seed(plan{rows: odd, runs: 16, threads: 2, storage: storeShared, block: blockOneARun})
	// TestOrderShapesMatchOracle's order shapes, mixed and eager.
	seed(plan{shape: keysNearlySorted, rows: 20_000, runs: 3, threads: 4, storage: storeShared, block: block7})
	seed(plan{shape: keysSawtooth, rows: 20_000, runs: 16, threads: 2, storage: storeEager})
	// TestQuickRandomSchemasAndSpecs: random schemas and specs, several sinks, no row.
	seed(plan{schema: schemaRandom, rows: 3999, runs: 17, several: true, threads: 4, seed: 1})
	seed(plan{schema: schemaRandom, rows: 2500, runs: 3, several: true, threads: 2, seed: 2})
	seed(plan{schema: schemaRandom, rows: 1, runs: 1, threads: 4, seed: 3})
	seed(plan{schema: schemaRandom, runs: 2, threads: 1, storage: storeEager, seed: 4})
	seed(plan{schema: schemaRandom, rows: 3000, runs: 16, threads: 4, storage: storeEager, seed: 5})
	// FuzzMemoryBudget: budgets that spill mid-sink, against the unlimited sort's order.
	seed(plan{schema: schemaRandom, rows: 2*vector.DefaultVectorSize + 777, runs: 16, threads: 1, storage: storeTight, seed: 6})
	seed(plan{schema: schemaRandom, rows: 2*vector.DefaultVectorSize + 777, runs: 2, threads: 1, storage: storePrivate, seed: 7})
	seed(plan{schema: schemaTieKeys, shape: keysDupHeavy, rows: 40_000, runs: 17, threads: 1, storage: storePrivate})
	// TestExternalMergeEquivalence, TestExternalMergeManyRunCounts: eager, blocks 7 to a run.
	seed(plan{schema: schemaRandom, rows: 3*vector.DefaultVectorSize + 123, runs: 17, threads: 4, storage: storeEager, block: block7, seed: 8})
	seed(plan{schema: schemaRandom, rows: 2*vector.DefaultVectorSize + 13, runs: 3, threads: 8, storage: storeEager, block: blockOneARun, seed: 9})
	// TestAdaptiveFrontCodedSpillMatchesResident: merge passes, duplicate-heavy and uniform.
	seed(plan{shape: keysDupHeavy, rows: 40_000, runs: 16, threads: 1, storage: storeTight})
	seed(plan{rows: 1 << 16, runs: 17, threads: 2, storage: storeTight})
	// TestParallelExternalSortByteIdentity: a ParallelSink under budgets that spill.
	seed(plan{schema: schemaRandom, rows: 40_000, runs: 16, several: true, threads: 8, storage: storePrivate, seed: 10})
	seed(plan{schema: schemaTieKeys, shape: keysDupHeavy, rows: 40_000, runs: 17, several: true, threads: 2, storage: storeTight})
	// TestPartitionedMergeMatchesSequential: tasks, read-ahead off and deep.
	seed(plan{schema: schemaRandom, rows: 40_000, runs: 17, threads: 2, storage: storeEager, block: blockRagged, readAhead: -1, seed: 11})
	seed(plan{schema: schemaTieKeys, shape: keysDupHeavy, rows: 40_000, runs: 17, threads: 8, storage: storeEager, block: block7, readAhead: 2})
	// TestSpilledDrainFaults: each cell at Threads 1, private, and 4, shared.
	for _, sf := range spillFaults {
		for _, stage := range sf.stages {
			seed(plan{rows: 8 * 2 * vector.DefaultVectorSize, runs: 3, threads: 1, fault: sf.name, stage: stage, seed: 19})
			seed(plan{rows: 8 * 2 * vector.DefaultVectorSize, runs: 3, threads: 4, storage: storeShared, fault: sf.name, stage: stage, seed: 19})
		}
	}
	// Strings left in the keys: runs that mix chunks whose names fit with
	// chunks where one overflows or holds a NUL, in memory, on disk, through
	// merge passes and through a budgeted drain; s keyed twice; s DESC alone.
	seed(plan{schema: schemaFitMix, shape: keysDupHeavy, rows: 20_000, runs: 3, threads: 4})
	seed(plan{schema: schemaFitMix, rows: 20_000, runs: 3, threads: 2, seed: 1})
	seed(plan{schema: schemaFitMix, shape: keysDupHeavy, rows: odd, runs: 3, threads: 2, storage: storeEager, block: block7})
	seed(plan{schema: schemaFitMix, rows: 20_000, runs: 16, threads: 4, storage: storeShared, block: blockRagged, seed: 2})
	seed(plan{schema: schemaFitMix, shape: keysDupHeavy, rows: 40_000, runs: 16, threads: 1, storage: storeTight})
	seed(plan{schema: schemaFitMix, rows: 40_000, runs: 17, several: true, threads: 2, storage: storeTight, seed: 1})
	seed(plan{schema: schemaFitMix, shape: keysDupHeavy, rows: 40_000, runs: 17, threads: 2, storage: storePrivate, seed: 2})
	seed(plan{schema: schemaKeyedTwice, shape: keysDupHeavy, rows: 20_000, runs: 3, threads: 2})
	seed(plan{schema: schemaKeyedTwice, rows: 20_000, runs: 3, threads: 4, storage: storeEager, block: block7, seed: 1})
	seed(plan{schema: schemaKeyedTwice, shape: keysDupHeavy, rows: 20_000, runs: 16, threads: 2, storage: storeShared, seed: 2})
	seed(plan{schema: schemaKeyedTwice, shape: keysDupHeavy, rows: 40_000, runs: 16, threads: 1, storage: storeTight, seed: 3})
	seed(plan{schema: schemaDescOnly, shape: keysDupHeavy, rows: 20_000, runs: 3, threads: 4})
	seed(plan{schema: schemaDescOnly, rows: 20_000, runs: 17, threads: 2, storage: storeEager, block: blockRagged, seed: 1})

	reached := map[string]bool{}
	ran := 0
	f.Fuzz(func(t *testing.T, b []byte) {
		ran++
		for _, r := range decodePlan(b).check(t) {
			reached[r] = true
		}
	})
	if f.Failed() || ran < seeds || flag.Lookup("test.fuzz").Value.String() != "" {
		return // not a replay of the whole corpus
	}
	want := []string{"a pressure spill", "a merge pass", "a drain of several tasks from disk", "a tie-breaking run of both string slots"}
	for _, sf := range spillFaults {
		for _, stage := range sf.stages {
			want = append(want, sf.name+" in "+faultStageNames[stage])
		}
	}
	for _, w := range want {
		if !reached[w] {
			f.Errorf("no seed reached %s: the seeds miss what they are for", w)
		}
	}
}

// check sorts the plan, checks it, and returns what it reached.
func (p plan) check(t *testing.T) (reached []string) {
	ctx := fmt.Sprintf("%+v", p)
	tbl, keys, perRun := p.table()
	base := runtime.NumGoroutine()
	ffs := &faultFS{FS: spill.OS()}
	s, shared := p.sorter(t, tbl, keys, perRun, ffs)
	var fault fsFault
	if i := faultRow(p.fault); i >= 0 {
		fault = spillFaults[i].fault(p.stage)
	}
	var out *vector.Table
	var err error
	var tasks int
	panicked, mixed := false, false
	within(t, ctx, 30*time.Second, func() {
		// The sort, stage by stage, until something fails; a fault is armed
		// as the sort enters its stage.
		arm := func(stages ...int) {
			if p.fault != "" && slices.Contains(stages, p.stage) {
				ffs.arm(fault)
			}
		}
		arm(stageRunSpill)
		err = p.ingest(s, tbl, p.fault != "")
		mixed = mixesSlots(s)
		arm(stagePassRewrite)
		if err == nil {
			hog := func() {}
			if p.fault != "" && p.stage == stagePassRewrite {
				s.dropPools()
				hog = s.broker.Reserve("hog", s.broker.Remaining()-(1<<10)).Release
			}
			err = s.Finalize()
			hog()
		}
		arm(stageForecastRead, stageDemandRead)
		if err == nil {
			tasks = s.planSpillTasks(s.resultIDs, false).Tasks()
			out, panicked, err = p.drain(s, tbl.Schema)
		}
		arm(stageClose)
	})
	dir := s.spills.Root()
	cerr := s.Close()
	st := s.Stats()
	fired, slow := ffs.fired > 0, fault.stall > 0
	for what, ok := range map[string]bool{
		p.fault + " in " + faultStageNames[p.stage]: fired,
		"a pressure spill":                          st.PressureSpills > 0,
		"a merge pass":                              st.MergePasses > 0,
		"a drain of several tasks from disk":        s.onDisk && tasks > 1,
		"a tie-breaking run of both string slots":   mixed,
	} {
		if ok {
			reached = append(reached, what)
		}
	}
	// With Threads 1 the merge runs on the caller's goroutine and a panic
	// under it is the caller's; a worker's must not be.
	if panicked && p.threads > 1 {
		t.Errorf("%s: %v", ctx, err)
	}
	switch {
	case fired && !slow && err == nil && cerr == nil:
		t.Errorf("%s: the fault went off %d times and no error was returned", ctx, ffs.fired)
	case (!fired || slow) && (err != nil || cerr != nil):
		t.Errorf("%s: %v, %v with no fault", ctx, err, cerr)
	case fired && fault.flip && !errors.Is(err, spill.ErrCorrupt):
		t.Errorf("%s: %v, want spill.ErrCorrupt", ctx, err)
	}
	// (Workers run ahead of an abandoned drain: by Close they may have read,
	// and removed, every file, and what fails to go is the directory, which
	// is reported and not counted.)
	if removeErrs := s.ctr.Value(obs.SpillRemoveErrors); (removeErrs > 0) != (fired && fault.keepFiles) && p.stage != stageClose {
		t.Errorf("%s: %d removals counted failed", ctx, removeErrs)
	}
	if err == nil && p.stage != stageClose {
		p.checkDrain(t, s, tbl, keys, perRun, out, st, tasks)
	}
	ffs.arm(fsFault{})
	noLeaks(t, ctx, s, dir, base)
	if used := shared.Used(); used != 0 {
		t.Errorf("%s: the shared broker holds %d bytes after Close", ctx, used)
	}
	return reached
}

// mixesSlots reports whether a run of s still in memory merges under the
// tie-break comparator with strings both left in its keys and on its heap.
func mixesSlots(s *Sorter) bool {
	for _, r := range s.runs {
		if r.keys == nil || !r.tieBreak || r.payload.HeapLen() == 0 {
			continue
		}
		for c, key := range s.strKey {
			for i := 0; key >= 0 && i < r.rows; i++ {
				if r.payload.Valid(i, c) && binary.LittleEndian.Uint32(r.payload.Row(i)[s.layout.Offset(c):]) == row.KeyResident {
					return true
				}
			}
		}
	}
	return false
}

// drain reads s's result through Rows — three chunks of it when the plan's
// fault is at Close — and reports whether Next panicked.
func (p plan) drain(s *Sorter, schema vector.Schema) (out *vector.Table, panicked bool, err error) {
	it, err := s.Rows()
	if err != nil {
		return nil, false, err
	}
	defer func() {
		if r := recover(); r != nil {
			panicked, err = true, fmt.Errorf("Next panicked: %v", r)
		}
		if cerr := it.Close(); err == nil {
			err = cerr
		}
	}()
	out = vector.NewTable(schema)
	for len(out.Chunks) < 3 || p.stage != stageClose {
		c, err := it.Next()
		if c == nil {
			return out, false, err
		}
		out.Chunks = append(out.Chunks, c)
	}
	return out, false, nil
}

// checkDrain checks the output and counters of s, a plan drained to the end
// in tasks: and, for one sink and no fault, its drain against the same plan
// drained at Threads 1 — a mixed plan's runs all on disk, which must plan as
// many tasks.
func (p plan) checkDrain(t *testing.T, s *Sorter, tbl *vector.Table, keys []SortColumn, perRun int, out *vector.Table, st SortStats, tasks int) {
	t.Helper()
	ctx := fmt.Sprintf("%+v", p)
	checkOracle(t, ctx, tbl, out, keys, !p.several)
	anyTie := slices.ContainsFunc(s.resultIDs, func(id uint32) bool { return s.runs[id].tieBreak })
	switch fences := resultFences(s); {
	case st.SpillBytesRead != st.SpillBytesWritten:
		t.Errorf("%s: read %d spill bytes, wrote %d", ctx, st.SpillBytesRead, st.SpillBytesWritten)
	case p.readAhead < 0 && st.PrefetchedBlocks != 0, st.PrefetchHits > st.PrefetchedBlocks,
		p.readAhead >= 0 && st.SpillBytesRead > 0 && st.PrefetchedBlocks == 0:
		t.Errorf("%s: %d blocks prefetched, %d hits", ctx, st.PrefetchedBlocks, st.PrefetchHits)
	case p.storage == storeEager && (st.MergePasses != 0 || p.rows > 0 && st.SpillBytesWritten == 0):
		t.Errorf("%s: eager spill wrote %d bytes in %d merge passes", ctx, st.SpillBytesWritten, st.MergePasses)
	case fences > drainTaskFences && !(anyTie && s.onDisk) && tasks < 2:
		t.Errorf("%s: %d task over %d fences", ctx, tasks, fences)
	case p.schema == schemaTieKeys && p.shape == keysAllEqual && s.onDisk && tasks != 1:
		t.Errorf("%s: %d tasks over keys that all tie on the cut prefix, want 1", ctx, tasks)
	}
	if p.several || p.fault != "" || p.threads == 1 && p.storage != storeShared {
		return
	}
	again, _ := p.sorter(t, tbl, keys, perRun, spill.OS())
	defer again.Close()
	if err := p.ingest(again, tbl, p.storage == storeShared); err != nil {
		t.Fatalf("%s: %v", ctx, err)
	}
	if err := again.Finalize(); err != nil {
		t.Fatalf("%s: %v", ctx, err)
	}
	if spilled := again.planSpillTasks(again.resultIDs, false).Tasks(); spilled != tasks {
		t.Errorf("%s: the drain plans %d tasks, the same runs all on disk %d", ctx, tasks, spilled)
	}
	again.opt.Threads = 1 // Rows reads the options when it is called
	sameChunks(t, ctx+", against Threads 1", out, drainAll(t, again))
}

// checkOracle fails unless got is tbl sorted on keys, every input row once
// and intact (tbl's last column numbers its rows). When stable — one sink,
// whose chunks arrive in input order — each row is where oracleSort's stable
// order puts it; else each position holds the oracle's keys.
func checkOracle(t *testing.T, ctx string, tbl, got *vector.Table, keys []SortColumn, stable bool) {
	t.Helper()
	n := tbl.NumRows()
	if got.NumRows() != n {
		t.Fatalf("%s: got %d rows, want %d", ctx, got.NumRows(), n)
	}
	cols, order := oracleSort(tbl, keys)
	nkeys, _ := NormKeys(tbl.Schema, keys)
	keyCols := make([]*vector.Vector, len(keys))
	for i, k := range keys {
		keyCols[i] = cols[k.Column]
	}
	gotCols := make([]*vector.Vector, len(cols))
	for c := range cols {
		gotCols[c] = got.Column(c)
	}
	seen := make([]bool, n)
	for pos, id32 := range gotCols[len(cols)-1].Int32s() {
		id, want := int(id32), order[pos]
		if seen[id] {
			t.Fatalf("%s: position %d holds input row %d twice", ctx, pos, id)
		}
		seen[id] = true
		for c := range cols {
			if g, w := gotCols[c].Value(pos), cols[c].Value(id); g != w {
				t.Fatalf("%s: position %d holds input row %d with column %d %v, want %v", ctx, pos, id, c, g, w)
			}
		}
		switch {
		case stable && id != want:
			t.Fatalf("%s: position %d holds input row %d, the stable oracle row %d", ctx, pos, id, want)
		case normkey.CompareRows(nkeys, keyCols, id, want) != 0:
			t.Fatalf("%s: position %d holds input row %d, whose keys are not the oracle's (row %d)", ctx, pos, id, want)
		}
	}
}

// appendRandomValue appends a random (possibly NULL) value of v's type,
// biased toward small domains so ties and tie-breaks are common.
func appendRandomValue(v *vector.Vector, rng *workload.RNG) {
	if rng.Float64() < 0.12 {
		v.AppendNull()
		return
	}
	small := rng.Intn(2) == 0 // small domains produce ties
	switch v.Type() {
	case vector.Bool:
		v.AppendBool(rng.Intn(2) == 1)
	case vector.Int8:
		v.AppendInt8(int8(rng.Uint32()))
	case vector.Int16:
		v.AppendInt16(int16(rng.Uint32()))
	case vector.Int32:
		if small {
			v.AppendInt32(int32(rng.Intn(8)) - 4)
		} else {
			v.AppendInt32(int32(rng.Uint32()))
		}
	case vector.Int64:
		v.AppendInt64(int64(rng.Uint64()))
	case vector.Uint8:
		v.AppendUint8(uint8(rng.Uint32()))
	case vector.Uint16:
		v.AppendUint16(uint16(rng.Uint32()))
	case vector.Uint32:
		if small {
			v.AppendUint32(uint32(rng.Intn(8)))
		} else {
			v.AppendUint32(rng.Uint32())
		}
	case vector.Uint64:
		v.AppendUint64(rng.Uint64())
	case vector.Float32:
		v.AppendFloat32(float32(rng.Intn(16)))
	case vector.Float64:
		v.AppendFloat64(rng.Float64() * 10)
	case vector.Varchar:
		letters := "abAB"
		l := rng.Intn(20)
		b := make([]byte, l)
		for i := range b {
			b[i] = letters[rng.Intn(len(letters))]
		}
		v.AppendString(string(b))
	}
}

// A sort with runs on disk goes through these stages, in this order; a fault
// is armed as the sort enters one.
const (
	stageRunSpill     = iota // runs are written out: by the sinks, then by hand
	stagePassRewrite         // Finalize, its budget all but gone, merges files into files
	stageForecastRead        // the drain, read-ahead on: the fault is the forecast goroutine's
	stageDemandRead          // the drain, read-ahead off: every read is a claimant's
	stageClose               // Sorter.Close after a drain abandoned
	numFaultStages
)

var faultStageNames = [numFaultStages]string{"run spill", "pass rewrite", "forecast read", "demand read", "close"}

// spillFault is a row of the fault axis: what the filesystem does, as a
// function of the stage it does it in, and the stages it can be done in.
type spillFault struct {
	name   string
	stages []int
	fault  func(stage int) fsFault
}

// faultRow returns the index of the spillFaults row named name, or -1.
func faultRow(name string) int {
	return slices.IndexFunc(spillFaults, func(f spillFault) bool { return f.name == name })
}

var spillFaults = []spillFault{
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
	{"bit flip", []int{stagePassRewrite, stageForecastRead, stageDemandRead}, func(stage int) fsFault {
		if stage == stageForecastRead {
			return fsFault{flip: true, from: "(*Stage).forecast"}
		}
		return fsFault{flip: true, readAt: 10} // past the headers
	}},
	{"slow device", []int{stageForecastRead, stageDemandRead}, func(stage int) fsFault {
		if stage == stageForecastRead {
			return fsFault{stall: 20 * time.Millisecond, from: "(*Stage).forecast"}
		}
		return fsFault{stall: 20 * time.Millisecond, readAt: 10} // past the headers
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
