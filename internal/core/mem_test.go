package core

import (
	"bytes"
	"errors"
	"fmt"
	"math"
	"os"
	"reflect"
	"runtime"
	"strings"
	"sync"
	"testing"

	"rowsort/internal/mem"
	"rowsort/internal/vector"
	"rowsort/internal/workload"
)

func TestOptionsValidation(t *testing.T) {
	tbl := mixedTable(64, 1)
	keys := []SortColumn{{Column: 0}}
	cases := []struct {
		name string
		opt  Options
		want string
	}{
		{"negative threads", Options{Threads: -1}, "Threads"},
		{"negative run size", Options{RunSize: -5}, "RunSize"},
		{"negative memory limit", Options{MemoryLimit: -100}, "MemoryLimit"},
	}
	for _, c := range cases {
		_, err := NewSorter(tbl.Schema, keys, c.opt)
		if err == nil {
			t.Errorf("%s: NewSorter accepted %+v", c.name, c.opt)
			continue
		}
		if !strings.Contains(err.Error(), c.want) {
			t.Errorf("%s: error %q does not name the offending field %s", c.name, err, c.want)
		}
	}
}

// TestFingerprintShowsEveryBehaviouralOption sets each Options field away
// from its zero value, alone, and requires the fingerprint to show it: an
// option that changes what a sort does and is missing from the run's
// signature makes two different setups read the same. The observer — who
// watches — is the only exception. The field list is pinned too: an eighth
// option is a decision, not an accident.
func TestFingerprintShowsEveryBehaviouralOption(t *testing.T) {
	observers := map[string]bool{"Telemetry": true}
	var fields []string
	zero := Options{}.Fingerprint()
	typ := reflect.TypeOf(Options{})
	for i := 0; i < typ.NumField(); i++ {
		var o Options
		f, v := typ.Field(i), reflect.ValueOf(&o).Elem().Field(i)
		fields = append(fields, f.Name)
		switch v.Kind() {
		case reflect.Int, reflect.Int64:
			v.SetInt(12345)
		case reflect.Bool:
			v.SetBool(true)
		case reflect.String:
			v.SetString("x")
		case reflect.Pointer:
			v.Set(reflect.New(f.Type.Elem()))
		default:
			t.Fatalf("Options.%s: the test cannot set a %s", f.Name, v.Kind())
		}
		if err := o.Validate(); err != nil {
			t.Fatalf("Options.%s: %v", f.Name, err)
		}
		if got := o.Fingerprint(); (got == zero) != observers[f.Name] {
			t.Errorf("Options.%s set: fingerprint %q, the zero value's %q", f.Name, got, zero)
		}
	}
	if want := "Threads RunSize SpillDir ReadAhead MemoryLimit Broker Telemetry"; strings.Join(fields, " ") != want {
		t.Errorf("Options fields are %q, want %q", strings.Join(fields, " "), want)
	}
}

// budgetedSort runs a single-sink sort of tbl under opt and returns the
// result plus the sorter's stats. A single sequential sink makes run
// assignment deterministic, so outputs are byte-comparable across options.
func budgetedSort(t *testing.T, tbl *vector.Table, keys []SortColumn, opt Options, prep ...func(*Sorter)) (*vector.Table, SortStats) {
	t.Helper()
	s := finalizedSorter(t, tbl, keys, opt, prep...)
	defer s.Close()
	out := resultChecked(t, s)
	st := s.Stats()
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	return out, st
}

// TestAdaptiveSpillOverBudget is the issue's acceptance criterion: a sort
// whose footprint exceeds 4x the memory limit completes by adaptively
// spilling (no SpillDir configured), stays within the budget plus the
// documented slack, and produces output byte-identical to the unlimited
// sort.
func TestAdaptiveSpillOverBudget(t *testing.T) {
	tbl := mixedTable(6*vector.DefaultVectorSize+123, 95)
	base := Options{Threads: 1, RunSize: 900}
	wantTbl, unlimited := budgetedSort(t, tbl, mergeTestKeys, base)
	wantRows := rowify(t, wantTbl)
	if unlimited.PeakResidentRunBytes <= 0 {
		t.Fatalf("unlimited sort recorded no peak: %+v", unlimited)
	}

	// A budget four times smaller than the measured unlimited footprint.
	budget := unlimited.PeakResidentRunBytes / 4
	broker := mem.NewBroker("test-budget", budget)
	opt := base
	opt.Broker = broker

	s, err := NewSorter(tbl.Schema, mergeTestKeys, opt)
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
	got := resultChecked(t, s)

	st := s.Stats()
	if st.PressureSpills == 0 {
		t.Errorf("budget %d (1/4 of %d) forced no pressure spills: %+v",
			budget, unlimited.PeakResidentRunBytes, st)
	}
	if st.MemoryPressureEvents == 0 {
		t.Error("no pressure events recorded despite spilling")
	}
	if st.SpillBytesWritten == 0 || st.SpillBytesRead != st.SpillBytesWritten {
		t.Errorf("spill accounting: written %d, read %d (want equal, nonzero)",
			st.SpillBytesWritten, st.SpillBytesRead)
	}
	if !bytes.Equal(rowify(t, got).Bytes(), wantRows.Bytes()) {
		t.Error("budgeted sort output differs from unlimited sort")
	}
	checkSorted(t, tbl, got, mergeTestKeys, "budgeted")

	// SpillDir is empty, so the sorter made itself a private temp dir.
	tmp := s.spills.Root()
	if tmp == "" {
		t.Error("no private spill directory despite empty SpillDir")
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	if tmp != "" {
		if _, err := os.Stat(tmp); !os.IsNotExist(err) {
			t.Errorf("private spill dir %s survived Close (stat err: %v)", tmp, err)
		}
	}

	// The balance returns to zero and the peak respects the budget to
	// within a tenth: the plan sheds for a run's reordered payload before it
	// is built, so charging it does not carry the sort past its headroom.
	if used := broker.Used(); used != 0 {
		t.Errorf("broker holds %d bytes after Close, want 0", used)
	}
	if peak := broker.Peak(); peak > budget*11/10 {
		t.Errorf("broker peak %d exceeds 1.1 times the budget %d", peak, budget)
	}
	if broker.Peak() >= unlimited.PeakResidentRunBytes {
		t.Errorf("budgeted peak %d not below unlimited peak %d",
			broker.Peak(), unlimited.PeakResidentRunBytes)
	}
}

// TestPrivateBudgetCutsSameRuns pins that under a private budget the runs
// are a function of the input: the budget fixes the run size before ingest
// (planIngest), so five sorts of one table cut as many runs, and merge in as
// many passes, whatever the sinks' interleaving; and the plan, not the race
// between sinks, decides which runs go to disk (spillUnderPressure), so they
// shed as many runs and write as many bytes. Each output is value for value
// the unlimited sort's (the keys take in a unique column, so the order is
// total), and the peak stays within a tenth of the limit over it. Customer's
// names add a string heap to the bytes the cut counts. (A run the heap ends
// before its planned rows is TestBudgetedSinkCutsAtPlannedRunSize's.)
func TestPrivateBudgetCutsSameRuns(t *testing.T) {
	const rows, limit, sorts = 1 << 17, 2 << 20, 5
	cases := []struct {
		name    string
		tbl     *vector.Table
		keys    []SortColumn
		threads []int
	}{
		{"catalog", workload.CatalogSales(rows, 10, 42),
			[]SortColumn{{Column: 0}, {Column: 1}, {Column: 2}, {Column: 3}, {Column: 4}}, []int{1, 2, 4}},
		{"customer", workload.Customer(rows, 42),
			[]SortColumn{{Column: 4}, {Column: 5}, {Column: 0}}, []int{2}},
	}
	for _, c := range cases {
		want, _, err := SortTableStats(c.tbl, c.keys, Options{Threads: 1})
		if err != nil {
			t.Fatal(err)
		}
		for _, threads := range c.threads {
			t.Run(fmt.Sprintf("%s/threads=%d", c.name, threads), func(t *testing.T) {
				var first SortStats
				for i := 0; i < sorts; i++ {
					got, st, err := SortTableStats(c.tbl, c.keys, Options{Threads: threads, MemoryLimit: limit})
					if err != nil {
						t.Fatal(err)
					}
					if i == 0 {
						first = st
					} else if st.RunsGenerated != first.RunsGenerated || st.MergePasses != first.MergePasses ||
						st.PressureSpills != first.PressureSpills || st.SpillBytesWritten != first.SpillBytesWritten {
						t.Errorf("sort %d cut %d runs, shed %d writing %d bytes, in %d passes; sort 1 cut %d, shed %d writing %d, in %d",
							i+1, st.RunsGenerated, st.PressureSpills, st.SpillBytesWritten, st.MergePasses,
							first.RunsGenerated, first.PressureSpills, first.SpillBytesWritten, first.MergePasses)
					}
					tablesEqual(t, want, got, fmt.Sprintf("sort %d", i+1))
					if st.PeakResidentRunBytes > limit*11/10 {
						t.Errorf("sort %d: peak %d is over 1.1 times the %d-byte limit", i+1, st.PeakResidentRunBytes, limit)
					}
				}
				t.Logf("%d runs, %d shed, %d bytes written, peak %.3f of the limit", first.RunsGenerated,
					first.PressureSpills, first.SpillBytesWritten, float64(first.PeakResidentRunBytes)/limit)
				if first.SpillBytesWritten == 0 {
					t.Error("the budget sent nothing to disk; it is meant to be tight")
				}
			})
		}
	}
}

// TestBudgetShedsByPlan runs the benchmark's ext-budget-pressure shape —
// 2^19 catalog_sales rows by four keys under a 16 MiB limit, one Sink a
// thread at Threads 2, each fed its chunks from its own goroutine — twelve
// times. A sink's share is 4 MiB and a run 2 MiB of key rows, so beside two
// open sinks the plan holds four runs. A sink places each run when it next
// needs memory, its last one in Close, when it counts for nothing; so only
// the six runs placed while both sinks are open can be shed: two at most, and
// one where a sink closes before the other's third run is placed. The peak is
// the limit at most. (Before the plan admitted runs, the peak was 18 or
// 20 MiB and one to four runs were shed, by timing.)
func TestBudgetShedsByPlan(t *testing.T) {
	const rows, limit, threads, sorts = 1 << 19, 16 << 20, 2, 12
	tbl := workload.CatalogSales(rows, 10, 42)
	keys := []SortColumn{{Column: 0}, {Column: 1}, {Column: 2}, {Column: 3}}
	want, _, err := SortTableStats(tbl, keys, Options{Threads: 1})
	if err != nil {
		t.Fatal(err)
	}
	least, most := int64(math.MaxInt64), int64(0)
	for i := 0; i < sorts; i++ {
		s, err := NewSorter(tbl.Schema, keys, Options{Threads: threads, MemoryLimit: limit})
		if err != nil {
			t.Fatal(err)
		}
		errs := make([]error, threads)
		var wg sync.WaitGroup
		for w := range threads {
			wg.Add(1)
			go func() {
				defer wg.Done()
				sink := s.NewSink()
				for c := w; c < len(tbl.Chunks) && errs[w] == nil; c += threads {
					errs[w] = sink.Append(tbl.Chunks[c])
				}
				if err := sink.Close(); errs[w] == nil {
					errs[w] = err
				}
			}()
		}
		wg.Wait()
		if err := errors.Join(errs...); err != nil {
			t.Fatal(err)
		}
		if err := s.Finalize(); err != nil {
			t.Fatal(err)
		}
		got, err := s.Result()
		if err := errors.Join(err, s.Close()); err != nil {
			t.Fatal(err)
		}
		// Rows equal on the four keys may come in another order from two
		// sinks; the keys may not.
		if got.NumRows() != rows {
			t.Fatalf("sort %d: %d rows, want %d", i+1, got.NumRows(), rows)
		}
		for _, k := range keys {
			wc, gc := want.Column(k.Column), got.Column(k.Column)
			for r := 0; r < rows; r++ {
				if wc.Value(r) != gc.Value(r) {
					t.Fatalf("sort %d: row %d key column %d: got %v, want %v", i+1, r, k.Column, gc.Value(r), wc.Value(r))
				}
			}
		}
		st := s.Stats()
		if st.RunsGenerated != 8 || st.MergePasses != 0 {
			t.Errorf("sort %d: %d runs in %d passes, want 8 in none", i+1, st.RunsGenerated, st.MergePasses)
		}
		if st.PressureSpills < 1 || st.PressureSpills > 2 {
			t.Errorf("sort %d shed %d runs, want one or two", i+1, st.PressureSpills)
		}
		if st.PeakResidentRunBytes > limit {
			t.Errorf("sort %d: peak %d is over the %d-byte limit", i+1, st.PeakResidentRunBytes, limit)
		}
		least, most = min(least, st.PressureSpills), max(most, st.PressureSpills)
	}
	t.Logf("%d sorts shed %d to %d runs", sorts, least, most)
}

// TestBudgetedSortAllocatesLikeEagerSpill pins what a budgeted sort
// allocates against the eager-spill sort of the same input: within twice its
// bytes a row. A budgeted sink fills the same run-sized buffers an unbudgeted
// one does and keeps them from run to run, so what a budget adds is its
// smaller runs' merge state, not a buffer per run.
func TestBudgetedSortAllocatesLikeEagerSpill(t *testing.T) {
	const rows = 1 << 17
	tbl := workload.CatalogSales(rows, 10, 7)
	keys := []SortColumn{{Column: 0}, {Column: 1}, {Column: 2}, {Column: 3}}
	perRow := func(opt Options) float64 {
		var m0, m1 runtime.MemStats
		runtime.GC()
		runtime.ReadMemStats(&m0)
		_, st, err := SortTableStats(tbl, keys, opt)
		runtime.ReadMemStats(&m1)
		if err != nil {
			t.Fatal(err)
		}
		if st.SpillBytesWritten == 0 {
			t.Fatalf("%+v spilled nothing", opt)
		}
		return float64(m1.TotalAlloc-m0.TotalAlloc) / rows
	}
	eager := perRow(Options{Threads: 2, RunSize: rows / 8, SpillDir: t.TempDir()})
	budgeted := perRow(Options{Threads: 2, MemoryLimit: 4 << 20, SpillDir: t.TempDir()})
	t.Logf("allocated %.1f B/row under a budget, %.1f B/row spilling eagerly", budgeted, eager)
	if budgeted > 2*eager {
		t.Errorf("a budgeted sort allocated %.1f B/row, more than twice the eager-spill sort's %.1f", budgeted, eager)
	}
}

// TestConcurrentSortersSharedBroker runs four sorters against one shared
// broker under -race: each must produce output byte-identical to its
// unlimited reference, and the shared balance must return to zero once
// every sorter is closed.
func TestConcurrentSortersSharedBroker(t *testing.T) {
	const n = 4
	base := Options{Threads: 1, RunSize: 600}
	tables := make([]*vector.Table, n)
	wants := make([][]byte, n)
	for i := range tables {
		tables[i] = mixedTable(2*vector.DefaultVectorSize+157*i, uint64(100+i))
		ref, _ := budgetedSort(t, tables[i], mergeTestKeys, base)
		wants[i] = rowify(t, ref).Bytes()
	}

	// A budget far below the combined footprint: every sorter degrades to
	// disk, and their pressure interleaves through the shared parent.
	shared := mem.NewBroker("shared", 64<<10)
	sorters := make([]*Sorter, n)
	for i := range sorters {
		opt := base
		opt.Broker = shared
		s, err := NewSorter(tables[i].Schema, mergeTestKeys, opt)
		if err != nil {
			t.Fatal(err)
		}
		sorters[i] = s
	}

	outs := make([]*vector.Table, n)
	stats := make([]SortStats, n)
	errs := make([]error, n)
	var wg sync.WaitGroup
	for i := range sorters {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			s := sorters[i]
			sink := s.NewSink()
			for _, c := range tables[i].Chunks {
				if err := sink.Append(c); err != nil {
					errs[i] = err
					return
				}
			}
			if err := sink.Close(); err != nil {
				errs[i] = err
				return
			}
			if err := s.Finalize(); err != nil {
				errs[i] = err
				return
			}
			outs[i], errs[i] = s.Result()
			stats[i] = s.Stats()
		}(i)
	}
	wg.Wait()

	spills := int64(0)
	for i := range sorters {
		if errs[i] != nil {
			t.Fatalf("sorter %d: %v", i, errs[i])
		}
		if !bytes.Equal(rowify(t, outs[i]).Bytes(), wants[i]) {
			t.Errorf("sorter %d: output under shared budget differs from unlimited", i)
		}
		spills += stats[i].PressureSpills
		if err := sorters[i].Close(); err != nil {
			t.Fatalf("close sorter %d: %v", i, err)
		}
	}
	if spills == 0 {
		t.Error("64KiB shared budget forced no pressure spills across four sorters")
	}
	if used := shared.Used(); used != 0 {
		t.Errorf("shared broker holds %d bytes after all sorters closed, want 0", used)
	}
}

// TestFailedSortTableReturnsSharedBudget pins that a sink its owner walks
// away from cannot leak: SortTable stops at the first Append that fails —
// here a chunk whose second column has the wrong type — without closing that
// worker's sink, and Sorter.Close hands every sink's bytes back to the broker
// the sort shares with others.
func TestFailedSortTableReturnsSharedBudget(t *testing.T) {
	tbl := workload.UniformInt64s(1<<14, 7)
	last := tbl.Chunks[len(tbl.Chunks)-1]
	wrong := vector.New(vector.Varchar, last.Len())
	for i := 0; i < last.Len(); i++ {
		wrong.AppendString("x")
	}
	last.Vectors[1] = wrong
	shared := mem.NewBroker("shared", 1<<30)
	_, err := SortTable(tbl, []SortColumn{{Column: 0}}, Options{Threads: 2, Broker: shared})
	if err == nil || !strings.Contains(err.Error(), "layout wants") {
		t.Fatalf("SortTable of a chunk with a mistyped column: %v", err)
	}
	if used := shared.Used(); used != 0 {
		t.Errorf("the shared broker holds %d bytes after a failed SortTable", used)
	}
}

// TestRowsIteratorMatchesResult checks the chunked iterator against the
// materialized Result on an in-memory sort.
func TestRowsIteratorMatchesResult(t *testing.T) {
	tbl := mixedTable(3*vector.DefaultVectorSize+57, 98)
	s, err := NewSorter(tbl.Schema, mergeTestKeys, Options{Threads: 2, RunSize: 800})
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

	if _, err := s.Rows(); err == nil {
		t.Fatal("Rows before Finalize did not error")
	}
	if err := s.Finalize(); err != nil {
		t.Fatal(err)
	}

	it, err := s.Rows()
	if err != nil {
		t.Fatal(err)
	}
	streamed := vector.NewTable(s.schema)
	rows := 0
	for {
		chunk, err := it.Next()
		if err != nil {
			t.Fatal(err)
		}
		if chunk == nil {
			break
		}
		if chunk.Len() > vector.DefaultVectorSize {
			t.Fatalf("chunk of %d rows exceeds the vector size", chunk.Len())
		}
		rows += chunk.Len()
		streamed.Chunks = append(streamed.Chunks, chunk)
	}
	if err := it.Close(); err != nil {
		t.Fatal(err)
	}
	if rows != tbl.NumRows() {
		t.Fatalf("iterator produced %d rows, want %d", rows, tbl.NumRows())
	}

	// In-memory results are re-materializable: the iterator does not
	// consume the runs.
	if want := resultChecked(t, s); !bytes.Equal(rowify(t, streamed).Bytes(), rowify(t, want).Bytes()) {
		t.Error("Rows() chunks differ from materialized Result")
	}
}

// TestStreamingRowsSingleUse pins the contract of a budgeted external
// merge: the deferred final merge is single-pass, so a second Rows() call
// fails loudly, and abandoning the iterator early still leaves Close able
// to reclaim every spill file and reservation.
func TestStreamingRowsSingleUse(t *testing.T) {
	tbl := mixedTable(4*vector.DefaultVectorSize, 99)
	broker := mem.NewBroker("single-use", 48<<10)
	s, err := NewSorter(tbl.Schema, mergeTestKeys, Options{Threads: 1, RunSize: 700, Broker: broker})
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
	if !s.onDisk {
		t.Fatal("48KiB budget did not defer the final merge to the iterator")
	}

	it, err := s.Rows()
	if err != nil {
		t.Fatal(err)
	}
	// Read one chunk, then walk away mid-merge.
	if chunk, err := it.Next(); err != nil || chunk == nil {
		t.Fatalf("first streamed chunk: %v, %v", chunk, err)
	}
	if err := it.Close(); err != nil {
		t.Fatal(err)
	}

	if _, err := s.Rows(); err == nil || !strings.Contains(err.Error(), "already consumed") {
		t.Fatalf("second Rows() = %v, want single-use error", err)
	}

	// Close must reclaim the unconsumed spill files, the private temp dir,
	// and every reservation the abandoned merge held.
	tmp := s.spills.Root()
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	if tmp != "" {
		if _, err := os.Stat(tmp); !os.IsNotExist(err) {
			t.Errorf("spill dir %s survived Close after abandoned iterator", tmp)
		}
	}
	if used := broker.Used(); used != 0 {
		t.Errorf("broker holds %d bytes after Close, want 0", used)
	}
}
