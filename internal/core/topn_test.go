// Top-N lives in internal/engine (engine.TopNHeap). Like the merge join's
// and the window's, its tests stay in this directory as an external test
// package, so that their suite ids (rowsort/internal/core:TestTopN…) do not
// change.
package core_test

import (
	"fmt"
	"slices"
	"testing"

	"rowsort/internal/core"
	"rowsort/internal/engine"
	"rowsort/internal/obs"
	"rowsort/internal/vector"
	"rowsort/internal/workload"
)

// topNOracle sorts the whole table and truncates to limit.
func topNOracle(t *testing.T, tbl *vector.Table, keys []core.SortColumn, limit int) *vector.Table {
	t.Helper()
	full, err := core.SortTable(tbl, keys, core.Options{Threads: 1})
	if err != nil {
		t.Fatal(err)
	}
	out := vector.NewTable(tbl.Schema)
	taken := 0
	for _, c := range full.Chunks {
		if taken >= limit {
			break
		}
		count := min(c.Len(), limit-taken)
		nc := vector.NewChunk(tbl.Schema, count)
		for ci, v := range c.Vectors {
			for r := 0; r < count; r++ {
				vector.AppendValue(nc.Vectors[ci], v, r)
			}
		}
		if err := out.AppendChunk(nc); err != nil {
			t.Fatal(err)
		}
		taken += count
	}
	return out
}

func runTopN(t *testing.T, tbl *vector.Table, keys []core.SortColumn, limit int) *vector.Table {
	t.Helper()
	top, err := engine.NewTopNHeap(tbl.Schema, keys, limit, core.Options{})
	if err != nil {
		t.Fatal(err)
	}
	for _, c := range tbl.Chunks {
		if err := top.Append(c); err != nil {
			t.Fatal(err)
		}
	}
	res, err := top.Result()
	if err != nil {
		t.Fatal(err)
	}
	return res
}

func TestTopNMatchesFullSort(t *testing.T) {
	tbl := workload.CatalogSales(5_000, 10, 101)
	keys := []core.SortColumn{{Column: 0, NullsLast: true}, {Column: 3, Descending: true}}
	for _, limit := range []int{1, 10, 100, 2_499, 5_000, 7_000} {
		got := runTopN(t, tbl, keys, limit)
		want := topNOracle(t, tbl, keys, min(limit, 5_000))
		core.CheckKeyColumnsEqual(t, want, got, keys, fmt.Sprintf("limit=%d", limit))
	}
}

func TestTopNZeroLimit(t *testing.T) {
	tbl := workload.CatalogSales(500, 1, 102)
	got := runTopN(t, tbl, []core.SortColumn{{Column: 0}}, 0)
	if got.NumRows() != 0 {
		t.Fatalf("limit 0 returned %d rows", got.NumRows())
	}
}

func TestTopNStringsWithTies(t *testing.T) {
	tbl := workload.Customer(3_000, 103)
	keys := []core.SortColumn{{Column: 4}, {Column: 5}} // names: heavy duplicates
	got := runTopN(t, tbl, keys, 50)
	want := topNOracle(t, tbl, keys, 50)
	core.CheckKeyColumnsEqual(t, want, got, keys, "names top 50")
}

func TestTopNLongStringTieBreak(t *testing.T) {
	schema := vector.Schema{{Name: "s", Type: vector.Varchar}}
	sv := vector.New(vector.Varchar, 0)
	rng := workload.NewRNG(104)
	for i := 0; i < 1000; i++ {
		sv.AppendString(fmt.Sprintf("COMMON-PREFIX-%05d", rng.Intn(400)))
	}
	tbl, err := vector.TableFromColumns(schema, sv)
	if err != nil {
		t.Fatal(err)
	}
	keys := []core.SortColumn{{Column: 0}}
	got := runTopN(t, tbl, keys, 25)
	want := topNOracle(t, tbl, keys, 25)
	core.CheckKeyColumnsEqual(t, want, got, keys, "long string ties")
}

func TestTopNErrors(t *testing.T) {
	schema := vector.Schema{{Name: "x", Type: vector.Int32}}
	if _, err := engine.NewTopNHeap(schema, []core.SortColumn{{Column: 0}}, -1, core.Options{}); err == nil {
		t.Fatal("negative limit should error")
	}
	if _, err := engine.NewTopNHeap(schema, nil, 5, core.Options{}); err == nil {
		t.Fatal("no keys should error")
	}
	top, err := engine.NewTopNHeap(schema, []core.SortColumn{{Column: 0}}, 5, core.Options{})
	if err != nil {
		t.Fatal(err)
	}
	bad := vector.NewChunk(vector.Schema{{Name: "a", Type: vector.Int32}, {Name: "b", Type: vector.Int32}}, 1)
	if err := top.Append(bad); err == nil {
		t.Fatal("wrong arity should error")
	}
}

func TestTopNDescendingIntegers(t *testing.T) {
	vals := workload.ShuffledInt32s(10_000, 105)
	tbl, err := vector.TableFromColumns(
		vector.Schema{{Name: "v", Type: vector.Int32}}, vector.FromInt32(vals))
	if err != nil {
		t.Fatal(err)
	}
	keys := []core.SortColumn{{Column: 0, Descending: true}}
	got := runTopN(t, tbl, keys, 7)
	for i := 0; i < 7; i++ {
		if got.Column(0).Value(i).(int32) != int32(9999-i) {
			t.Fatalf("row %d = %v", i, got.Column(0).Value(i))
		}
	}
}

// TestTopNRunReachesDone registers a Top-N with a registry and drains it: the
// run must end — done, stage done, evictable — and the registry must have
// counted the rows the operator's own stats counted. (Top-N used to add its
// rows to the sorter's counter and not to the registry's, and, having no
// Close, stayed a live run for ever.)
func TestTopNRunReachesDone(t *testing.T) {
	tbl := workload.CatalogSales(3_000, 10, 7)
	reg := obs.NewRegistry(1)
	for round := 0; round < 2; round++ {
		top, err := engine.NewTopNHeap(tbl.Schema, []core.SortColumn{{Column: 3, Descending: true}}, 25,
			core.Options{Telemetry: reg.Recorder("topn")})
		if err != nil {
			t.Fatal(err)
		}
		for _, c := range tbl.Chunks {
			if err := top.Append(c); err != nil {
				t.Fatal(err)
			}
		}
		if live := reg.Snapshots()[0]; live.Done || live.Stage != "run-generation" {
			t.Fatalf("before Result the run is %q, done=%v", live.Stage, live.Done)
		}
		out, err := top.Result()
		if err != nil || out.NumRows() != 25 {
			t.Fatalf("Result: %d rows, %v", out.NumRows(), err)
		}
		top.Close() // a no-op after Result
		st := top.Stats()
		snaps := reg.Snapshots()
		if len(snaps) != 1 { // keep is 1: the first round's run is evicted by the second's
			t.Fatalf("round %d: the registry retains %d runs, want 1", round, len(snaps))
		}
		snap := snaps[0]
		if !snap.Done || snap.Stage != "done" {
			t.Errorf("a drained Top-N is %q, done=%v", snap.Stage, snap.Done)
		}
		// Top-N ingests every row and gathers only the limit; it sorts no
		// run and merges nothing. The phases it reports are the two it runs,
		// each done.
		names := []string{}
		for _, ph := range snap.Phases {
			names = append(names, ph.Name)
			if ph.Fraction != 1 || ph.Done != ph.Planned {
				t.Errorf("a drained Top-N's %s phase is %+v, want done", ph.Name, ph)
			}
		}
		if !slices.Equal(names, []string{"ingest", "gather"}) {
			t.Errorf("a Top-N reports phases %v, want ingest and gather", names)
		}
		if in, ga := snap.Phases[0], snap.Phases[len(snap.Phases)-1]; in.Done != 3_000 || ga.Done != 25 {
			t.Errorf("a drained Top-N's ingest is %+v and gather %+v, want all 3000 rows in and 25 out", in, ga)
		}
		if got := snap.Counters[obs.RowsIngested]; got != st.RowsIngested || got != 3_000 {
			t.Errorf("snapshot rows ingested %d, Stats() %d, want 3000", got, st.RowsIngested)
		}
		if snap.Counters[obs.RowsGathered] != 25 || st.DurTotal <= 0 || st.DurTotal < st.DurRunGen {
			t.Errorf("rows gathered %d, total %v, run generation %v", snap.Counters[obs.RowsGathered], st.DurTotal, st.DurRunGen)
		}
	}
}

func TestTopNStats(t *testing.T) {
	tbl := workload.CatalogSales(4_096, 10, 7)
	top, err := engine.NewTopNHeap(tbl.Schema, []core.SortColumn{{Column: 3, Descending: true}}, 10,
		core.Options{Telemetry: obs.NewRecorder()})
	if err != nil {
		t.Fatal(err)
	}
	for _, c := range tbl.Chunks {
		if err := top.Append(c); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := top.Result(); err != nil {
		t.Fatal(err)
	}
	st := top.Stats()
	if st.RowsIngested != 4_096 {
		t.Errorf("RowsIngested = %d, want 4096", st.RowsIngested)
	}
	if st.Phases.Get(obs.PhaseIngest).Count == 0 || st.Phases.Get(obs.PhaseGather).Count == 0 {
		t.Errorf("TopN recorded no ingest/gather spans: %+v", st.Phases)
	}
}
