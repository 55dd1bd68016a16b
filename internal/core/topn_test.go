package core

import (
	"fmt"
	"testing"

	"rowsort/internal/obs"
	"rowsort/internal/vector"
	"rowsort/internal/workload"
)

// topNOracle sorts the whole table and truncates to limit.
func topNOracle(t *testing.T, tbl *vector.Table, keys []SortColumn, limit int) *vector.Table {
	t.Helper()
	full, err := SortTable(tbl, keys, Options{Threads: 1})
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

func runTopN(t *testing.T, tbl *vector.Table, keys []SortColumn, limit int) *vector.Table {
	t.Helper()
	top, err := NewTopN(tbl.Schema, keys, limit, Options{})
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

// checkKeyColumnsEqual compares only key columns positionally (rows tied on
// every key may legitimately differ between top-N and full sort).
func checkKeyColumnsEqual(t *testing.T, want, got *vector.Table, keys []SortColumn, ctx string) {
	t.Helper()
	if got.NumRows() != want.NumRows() {
		t.Fatalf("%s: got %d rows, want %d", ctx, got.NumRows(), want.NumRows())
	}
	for _, k := range keys {
		wc, gc := want.Column(k.Column), got.Column(k.Column)
		for i := 0; i < wc.Len(); i++ {
			if wc.Value(i) != gc.Value(i) {
				t.Fatalf("%s: row %d key col %d: got %v, want %v",
					ctx, i, k.Column, gc.Value(i), wc.Value(i))
			}
		}
	}
}

func TestTopNMatchesFullSort(t *testing.T) {
	tbl := workload.CatalogSales(5_000, 10, 101)
	keys := []SortColumn{{Column: 0, NullsLast: true}, {Column: 3, Descending: true}}
	for _, limit := range []int{1, 10, 100, 2_499, 5_000, 7_000} {
		got := runTopN(t, tbl, keys, limit)
		want := topNOracle(t, tbl, keys, min(limit, 5_000))
		checkKeyColumnsEqual(t, want, got, keys, fmt.Sprintf("limit=%d", limit))
	}
}

func TestTopNZeroLimit(t *testing.T) {
	tbl := workload.CatalogSales(500, 1, 102)
	got := runTopN(t, tbl, []SortColumn{{Column: 0}}, 0)
	if got.NumRows() != 0 {
		t.Fatalf("limit 0 returned %d rows", got.NumRows())
	}
}

func TestTopNStringsWithTies(t *testing.T) {
	tbl := workload.Customer(3_000, 103)
	keys := []SortColumn{{Column: 4}, {Column: 5}} // names: heavy duplicates
	got := runTopN(t, tbl, keys, 50)
	want := topNOracle(t, tbl, keys, 50)
	checkKeyColumnsEqual(t, want, got, keys, "names top 50")
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
	keys := []SortColumn{{Column: 0}}
	got := runTopN(t, tbl, keys, 25)
	want := topNOracle(t, tbl, keys, 25)
	checkKeyColumnsEqual(t, want, got, keys, "long string ties")
}

func TestTopNErrors(t *testing.T) {
	schema := vector.Schema{{Name: "x", Type: vector.Int32}}
	if _, err := NewTopN(schema, []SortColumn{{Column: 0}}, -1, Options{}); err == nil {
		t.Fatal("negative limit should error")
	}
	if _, err := NewTopN(schema, nil, 5, Options{}); err == nil {
		t.Fatal("no keys should error")
	}
	top, err := NewTopN(schema, []SortColumn{{Column: 0}}, 5, Options{})
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
	keys := []SortColumn{{Column: 0, Descending: true}}
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
		top, err := NewTopN(tbl.Schema, []SortColumn{{Column: 3, Descending: true}}, 25,
			Options{Telemetry: reg.Recorder("topn")})
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
		if err := top.Close(); err != nil {
			t.Fatalf("Close after Result: %v", err)
		}
		st := top.Stats()
		snaps := reg.Snapshots()
		if len(snaps) != 1 { // keep is 1: the first round's run is evicted by the second's
			t.Fatalf("round %d: the registry retains %d runs, want 1", round, len(snaps))
		}
		snap := snaps[0]
		if !snap.Done || snap.Stage != "done" || snap.Fraction != 1 {
			t.Errorf("a drained Top-N is %q, done=%v, fraction %v", snap.Stage, snap.Done, snap.Fraction)
		}
		if got := snap.Counters[obs.RowsIngested]; got != st.RowsIngested || got != 3_000 {
			t.Errorf("snapshot rows ingested %d, Stats() %d, want 3000", got, st.RowsIngested)
		}
		if snap.Counters[obs.RowsGathered] != 25 || st.DurTotal <= 0 || st.DurTotal < st.DurRunGen {
			t.Errorf("rows gathered %d, total %v, run generation %v", snap.Counters[obs.RowsGathered], st.DurTotal, st.DurRunGen)
		}
	}
}
