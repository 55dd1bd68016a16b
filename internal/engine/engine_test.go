package engine

import (
	"os"
	"runtime"
	"testing"
	"time"

	"rowsort/internal/core"
	"rowsort/internal/obs"
	"rowsort/internal/vector"
	"rowsort/internal/workload"
)

func scanTable(t *testing.T, n int) *vector.Table {
	t.Helper()
	return workload.CatalogSales(n, 10, 51)
}

func TestScanRoundTrip(t *testing.T) {
	tbl := scanTable(t, 5000)
	out, err := Run(Scan(tbl))
	if err != nil {
		t.Fatal(err)
	}
	if out.NumRows() != 5000 {
		t.Fatalf("rows = %d", out.NumRows())
	}
}

func TestProject(t *testing.T) {
	tbl := scanTable(t, 100)
	p, err := Project(Scan(tbl), []int{4, 0})
	if err != nil {
		t.Fatal(err)
	}
	out, err := Run(p)
	if err != nil {
		t.Fatal(err)
	}
	if len(out.Schema) != 2 || out.Schema[0].Name != "cs_item_sk" || out.Schema[1].Name != "cs_warehouse_sk" {
		t.Fatalf("schema = %v", out.Schema)
	}
	if _, err := Project(Scan(tbl), []int{99}); err == nil {
		t.Fatal("bad column should error")
	}
}

func TestFilter(t *testing.T) {
	tbl := scanTable(t, 5000)
	// Keep rows with quantity > 50.
	f := Filter(Scan(tbl), func(c *vector.Chunk, r int) bool {
		return c.Vectors[3].Valid(r) && c.Vectors[3].Int32s()[r] > 50
	})
	out, err := Run(f)
	if err != nil {
		t.Fatal(err)
	}
	if out.NumRows() == 0 || out.NumRows() >= 5000 {
		t.Fatalf("filter kept %d rows", out.NumRows())
	}
	q := out.Column(3)
	for i := 0; i < q.Len(); i++ {
		if q.Value(i).(int32) <= 50 {
			t.Fatal("filter leaked a row")
		}
	}
}

func TestSortOperator(t *testing.T) {
	tbl := scanTable(t, 6000)
	keys := []core.SortColumn{{Column: 3, Descending: true}}
	out, err := Run(Sort(Scan(tbl), keys, core.Options{Threads: 2, RunSize: 1000}))
	if err != nil {
		t.Fatal(err)
	}
	if out.NumRows() != 6000 {
		t.Fatalf("rows = %d", out.NumRows())
	}
	q := out.Column(3)
	for i := 1; i < q.Len(); i++ {
		if q.Value(i).(int32) > q.Value(i-1).(int32) {
			t.Fatal("not sorted DESC")
		}
	}
}

func TestLimitOffset(t *testing.T) {
	tbl := scanTable(t, 5000)
	keys := []core.SortColumn{{Column: 4}}
	full, err := Run(Sort(Scan(tbl), keys, core.Options{}))
	if err != nil {
		t.Fatal(err)
	}
	out, err := Run(Limit(Sort(Scan(tbl), keys, core.Options{}), 10, 3))
	if err != nil {
		t.Fatal(err)
	}
	if out.NumRows() != 10 {
		t.Fatalf("limit rows = %d", out.NumRows())
	}
	want, got := full.Column(4), out.Column(4)
	for i := 0; i < 10; i++ {
		if got.Value(i) != want.Value(i+3) {
			t.Fatalf("offset row %d mismatch", i)
		}
	}
}

func TestSortOperatorWithMemoryBudget(t *testing.T) {
	// A one-byte budget forces the sort through adaptive spilling and the
	// deferred streaming merge; the operator output must match the
	// unlimited plan, and LIMIT must be able to abandon the stream early
	// (Close reclaims the unconsumed spill files).
	tbl := scanTable(t, 6000)
	keys := []core.SortColumn{{Column: 3, Descending: true}, {Column: 0}}
	full, err := Run(Sort(Scan(tbl), keys, core.Options{Threads: 2, RunSize: 1000}))
	if err != nil {
		t.Fatal(err)
	}
	budgeted, err := Run(Sort(Scan(tbl), keys,
		core.Options{Threads: 2, RunSize: 1000, MemoryLimit: 1}))
	if err != nil {
		t.Fatal(err)
	}
	if budgeted.NumRows() != full.NumRows() {
		t.Fatalf("budgeted sort produced %d rows, want %d", budgeted.NumRows(), full.NumRows())
	}
	for _, col := range []int{0, 3} {
		w, g := full.Column(col), budgeted.Column(col)
		for i := 0; i < w.Len(); i++ {
			if w.Value(i) != g.Value(i) {
				t.Fatalf("budgeted sort diverges at row %d column %d", i, col)
			}
		}
	}

	out, err := Run(Limit(Sort(Scan(tbl), keys,
		core.Options{Threads: 2, RunSize: 1000, MemoryLimit: 1}), 7, 0))
	if err != nil {
		t.Fatal(err)
	}
	if out.NumRows() != 7 {
		t.Fatalf("limit over budgeted sort produced %d rows, want 7", out.NumRows())
	}
	for i := 0; i < 7; i++ {
		if out.Column(0).Value(i) != full.Column(0).Value(i) {
			t.Fatalf("limited budgeted sort diverges at row %d", i)
		}
	}
}

// TestLimitAbandonsInMemorySortEarly checks LIMIT over an in-memory sort
// whose final merge runs inside the result iterator: the operator stops the
// sort's workers when it closes (no goroutine outlives the plan), and the
// sort did not merge and gather what nobody asked for.
func TestLimitAbandonsInMemorySortEarly(t *testing.T) {
	const rows = 600_000 // nine tasks of the iterator: the window holds four
	tbl := workload.UniformInt64s(rows, 52)
	keys := []core.SortColumn{{Column: 0}}
	reg := obs.NewRegistry(4)
	base := runtime.NumGoroutine()
	out, err := Run(Limit(Sort(Scan(tbl), keys, core.Options{Threads: 2, Telemetry: reg.Recorder("limit")}), 10, 3))
	if err != nil {
		t.Fatal(err)
	}
	if out.NumRows() != 10 {
		t.Fatalf("limit rows = %d", out.NumRows())
	}
	k := out.Column(0)
	for i := 1; i < k.Len(); i++ {
		if k.Value(i).(int64) < k.Value(i-1).(int64) {
			t.Fatal("limited sort is not sorted")
		}
	}
	for deadline := time.Now().Add(5 * time.Second); runtime.NumGoroutine() > base; time.Sleep(time.Millisecond) {
		if time.Now().After(deadline) {
			t.Fatalf("%d goroutines after the plan closed, %d before it opened", runtime.NumGoroutine(), base)
		}
	}
	snaps := reg.Snapshots()
	if len(snaps) != 1 || !snaps[0].Done {
		t.Fatalf("registry holds %d runs, want the one finished sort", len(snaps))
	}
	c := snaps[0].Counters
	if c[obs.RowsGathered] == 0 || c[obs.RowsGathered] > rows/2 || c[obs.RowsMerged] > rows/2 {
		t.Errorf("LIMIT 10 merged %d and gathered %d of %d rows; want some, and well under all",
			c[obs.RowsMerged], c[obs.RowsGathered], rows)
	}
}

// TestLimitAbandonsSpilledSortEarly is the same LIMIT over a sort whose 16
// runs are on disk, in sixteen blocks of the default size each: the merge
// runs inside the result iterator there too, so
// the ten rows cost the first blocks of each run and what the stage read
// ahead — two blocks a run — not the runs; closing the plan stops the stage
// and removes every file.
func TestLimitAbandonsSpilledSortEarly(t *testing.T) {
	const runs, perRun = 16, 16 * core.DefaultSpillBlockRows
	tbl := workload.UniformInt64s(runs*perRun, 53)
	keys := []core.SortColumn{{Column: 0}}
	reg := obs.NewRegistry(4)
	dir := t.TempDir()
	base := runtime.NumGoroutine()
	out, err := Run(Limit(Sort(Scan(tbl), keys, core.Options{Threads: 1, RunSize: perRun,
		SpillDir: dir, Telemetry: reg.Recorder("limit")}), 10, 3))
	if err != nil {
		t.Fatal(err)
	}
	if out.NumRows() != 10 {
		t.Fatalf("limit rows = %d", out.NumRows())
	}
	k := out.Column(0)
	for i := 1; i < k.Len(); i++ {
		if k.Value(i).(int64) < k.Value(i-1).(int64) {
			t.Fatal("limited sort is not sorted")
		}
	}
	for deadline := time.Now().Add(5 * time.Second); runtime.NumGoroutine() > base; time.Sleep(time.Millisecond) {
		if time.Now().After(deadline) {
			t.Fatalf("%d goroutines after the plan closed, %d before it opened", runtime.NumGoroutine(), base)
		}
	}
	if left, err := os.ReadDir(dir); err != nil || len(left) != 0 {
		t.Errorf("%d spill files left after the plan closed (%v)", len(left), err)
	}
	snaps := reg.Snapshots()
	if len(snaps) != 1 || !snaps[0].Done {
		t.Fatalf("registry holds %d runs, want the one finished sort", len(snaps))
	}
	c := snaps[0].Counters
	if c[obs.RunsGenerated] != runs || c[obs.PrefetchedBlocks] < runs || c[obs.PrefetchedBlocks] > 2*runs ||
		c[obs.SpillBytesRead] > c[obs.SpillBytesWritten]/4 || c[obs.RowsMerged] > perRun {
		t.Errorf("LIMIT 10 over %d spilled runs read %d blocks (%d of %d spill bytes) and merged %d rows; want at most two blocks a run",
			c[obs.RunsGenerated], c[obs.PrefetchedBlocks], c[obs.SpillBytesRead], c[obs.SpillBytesWritten], c[obs.RowsMerged])
	}
}

func TestCountOverSort(t *testing.T) {
	// The paper's benchmark query shape: count(*) over a sorted subquery.
	tbl := scanTable(t, 4000)
	plan := Count(Sort(Scan(tbl), []core.SortColumn{{Column: 0}}, core.Options{Threads: 2}))
	out, err := Run(plan)
	if err != nil {
		t.Fatal(err)
	}
	if out.NumRows() != 1 || out.Column(0).Value(0) != int64(4000) {
		t.Fatalf("count = %v", out.Column(0).Value(0))
	}
}

func TestOptimizeFusesSortLimitIntoTopN(t *testing.T) {
	tbl := scanTable(t, 4000)
	keys := []core.SortColumn{{Column: 3}}
	plan := Limit(Sort(Scan(tbl), keys, core.Options{}), 5, 2)
	opt := Optimize(plan)
	if _, ok := opt.(*TopNOp); !ok {
		t.Fatalf("Limit(Sort) should optimize to TopN, got %T", opt)
	}
	want, err := Run(plan)
	if err != nil {
		t.Fatal(err)
	}
	got, err := Run(opt)
	if err != nil {
		t.Fatal(err)
	}
	if got.NumRows() != want.NumRows() {
		t.Fatalf("optimized rows %d != %d", got.NumRows(), want.NumRows())
	}
	for i := 0; i < got.NumRows(); i++ {
		if got.Column(3).Value(i) != want.Column(3).Value(i) {
			t.Fatalf("optimized row %d differs", i)
		}
	}
}

func TestOptimizeLeavesCountOverSortAlone(t *testing.T) {
	// The count-over-subquery trick: no Limit above the Sort, so the
	// rewrite must not fire and the full sort must run.
	tbl := scanTable(t, 1000)
	plan := Count(Sort(Scan(tbl), []core.SortColumn{{Column: 0}}, core.Options{}))
	opt := Optimize(plan)
	c, ok := opt.(*CountOp)
	if !ok {
		t.Fatalf("expected CountOp, got %T", opt)
	}
	if _, ok := c.child.(*SortOp); !ok {
		t.Fatalf("Sort under Count must survive optimization, got %T", c.child)
	}
	out, err := Run(opt)
	if err != nil {
		t.Fatal(err)
	}
	if out.Column(0).Value(0) != int64(1000) {
		t.Fatal("count wrong")
	}
}

func TestOptimizeRecursesThroughProjectAndFilter(t *testing.T) {
	tbl := scanTable(t, 2000)
	keys := []core.SortColumn{{Column: 0}}
	proj, err := Project(Scan(tbl), []int{0, 3})
	if err != nil {
		t.Fatal(err)
	}
	inner := Filter(proj, func(c *vector.Chunk, r int) bool { return true })
	plan := Limit(Sort(inner, keys, core.Options{}), 3, 0)
	opt := Optimize(plan)
	if _, ok := opt.(*TopNOp); !ok {
		t.Fatalf("rewrite should fire through the tree, got %T", opt)
	}
	got, err := Run(opt)
	if err != nil {
		t.Fatal(err)
	}
	if got.NumRows() != 3 {
		t.Fatalf("rows = %d", got.NumRows())
	}
}

// TestBenchmarkQueryPlan runs the paper's full anti-optimizer query:
// SELECT count(*) FROM (SELECT cs_item_sk FROM catalog_sales ORDER BY
// cs_warehouse_sk, cs_ship_mode_sk OFFSET 1).
func TestBenchmarkQueryPlan(t *testing.T) {
	tbl := scanTable(t, 3000)
	proj, err := Project(Scan(tbl), []int{4, 0, 1})
	if err != nil {
		t.Fatal(err)
	}
	keys := []core.SortColumn{{Column: 1}, {Column: 2}}
	sorted := Sort(proj, keys, core.Options{Threads: 2})
	// OFFSET 1 with no LIMIT: model as a huge limit. The optimizer must NOT
	// turn this into a TopN (the kept row count is unbounded), so the full
	// sort runs — exactly what the paper's query construction ensures.
	plan := Count(Limit(sorted, 1<<30, 1))
	opt := Optimize(plan)
	c, ok := opt.(*CountOp)
	if !ok {
		t.Fatalf("expected CountOp, got %T", opt)
	}
	l, ok := c.child.(*LimitOp)
	if !ok {
		t.Fatalf("expected LimitOp under Count, got %T", c.child)
	}
	if _, ok := l.child.(*SortOp); !ok {
		t.Fatalf("unbounded limit must not fuse into TopN, got %T", l.child)
	}
	out, err := Run(opt)
	if err != nil {
		t.Fatal(err)
	}
	if out.Column(0).Value(0) != int64(2999) {
		t.Fatalf("count = %v, want 2999", out.Column(0).Value(0))
	}
}
