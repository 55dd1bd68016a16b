package systems

import (
	"fmt"
	"sort"
	"testing"

	"rowsort/internal/core"
	"rowsort/internal/normkey"
	"rowsort/internal/vector"
	"rowsort/internal/workload"
)

// checkSystemSorted verifies a system's output against the reference
// comparator: key columns agree positionally with a stable oracle sort, and
// the full rows are a permutation of the input.
func checkSystemSorted(t *testing.T, input, got *vector.Table, keys []core.SortColumn, ctx string) {
	t.Helper()
	if got.NumRows() != input.NumRows() {
		t.Fatalf("%s: got %d rows, want %d", ctx, got.NumRows(), input.NumRows())
	}
	cols := materialize(input)
	nkeys, err := core.NormKeys(input.Schema, keys)
	if err != nil {
		t.Fatal(err)
	}
	kcols := keyColumns(cols, keys)
	idx := make([]int, input.NumRows())
	for i := range idx {
		idx[i] = i
	}
	sort.SliceStable(idx, func(a, b int) bool {
		return normkey.CompareRows(nkeys, kcols, idx[a], idx[b]) < 0
	})
	gotCols := materialize(got)
	for pos, in := range idx {
		for _, k := range keys {
			want := cols[k.Column].Value(in)
			have := gotCols[k.Column].Value(pos)
			if want != have {
				t.Fatalf("%s: position %d key col %d: got %v, want %v", ctx, pos, k.Column, have, want)
			}
		}
	}
	counts := map[string]int{}
	for i := 0; i < input.NumRows(); i++ {
		counts[fingerprint(cols, i)]++
	}
	for i := 0; i < got.NumRows(); i++ {
		counts[fingerprint(gotCols, i)]--
	}
	for k, c := range counts {
		if c != 0 {
			t.Fatalf("%s: row multiset mismatch for %q (%+d)", ctx, k, c)
		}
	}
}

func fingerprint(cols []*vector.Vector, i int) string {
	s := ""
	for _, c := range cols {
		s += fmt.Sprintf("%v|", c.Value(i))
	}
	return s
}

func TestAllSystemsSortCatalogSales(t *testing.T) {
	tbl := workload.CatalogSales(6_000, 10, 91)
	specs := [][]core.SortColumn{
		{{Column: 0}},
		{{Column: 0}, {Column: 1}},
		{{Column: 0}, {Column: 1}, {Column: 2}, {Column: 3}},
		{{Column: 3, Descending: true}, {Column: 2, NullsLast: true}},
	}
	for _, sys := range All(4) {
		for si, keys := range specs {
			got, err := sys.Sort(tbl, keys)
			if err != nil {
				t.Fatalf("%s spec %d: %v", sys.Name(), si, err)
			}
			checkSystemSorted(t, tbl, got, keys, fmt.Sprintf("%s spec %d", sys.Name(), si))
		}
	}
}

func TestAllSystemsSortCustomerStrings(t *testing.T) {
	tbl := workload.Customer(4_000, 92)
	specs := [][]core.SortColumn{
		{{Column: 4}, {Column: 5}},
		{{Column: 1}, {Column: 2}, {Column: 3}},
		{{Column: 4, Descending: true, NullsLast: true}},
	}
	for _, sys := range All(3) {
		for si, keys := range specs {
			got, err := sys.Sort(tbl, keys)
			if err != nil {
				t.Fatalf("%s spec %d: %v", sys.Name(), si, err)
			}
			checkSystemSorted(t, tbl, got, keys, fmt.Sprintf("%s strings spec %d", sys.Name(), si))
		}
	}
}

func TestAllSystemsSingleIntKey(t *testing.T) {
	// Exercises ClickHouse's radix path and the Figure 12 workload shape.
	vals := workload.ShuffledInt32s(20_000, 93)
	schema := vector.Schema{{Name: "v", Type: vector.Int32}}
	tbl, err := vector.TableFromColumns(schema, vector.FromInt32(vals))
	if err != nil {
		t.Fatal(err)
	}
	keys := []core.SortColumn{{Column: 0}}
	for _, sys := range All(4) {
		got, err := sys.Sort(tbl, keys)
		if err != nil {
			t.Fatalf("%s: %v", sys.Name(), err)
		}
		col := got.Column(0)
		for i := 0; i < col.Len(); i++ {
			if col.Value(i).(int32) != int32(i) {
				t.Fatalf("%s: position %d = %v", sys.Name(), i, col.Value(i))
			}
		}
	}
}

func TestAllSystemsFloats(t *testing.T) {
	vals := workload.UniformFloat32s(10_000, 94)
	schema := vector.Schema{{Name: "f", Type: vector.Float32}}
	tbl, err := vector.TableFromColumns(schema, vector.FromFloat32(vals))
	if err != nil {
		t.Fatal(err)
	}
	keys := []core.SortColumn{{Column: 0}}
	for _, sys := range All(4) {
		got, err := sys.Sort(tbl, keys)
		if err != nil {
			t.Fatalf("%s: %v", sys.Name(), err)
		}
		checkSystemSorted(t, tbl, got, keys, sys.Name()+" floats")
	}
}

func TestSortCountAndByName(t *testing.T) {
	tbl := workload.CatalogSales(1_000, 1, 95)
	keys := []core.SortColumn{{Column: 0}}
	sys, err := ByName("DuckDB", 2)
	if err != nil {
		t.Fatal(err)
	}
	n, err := SortCount(sys, tbl, keys)
	if err != nil || n != 1000 {
		t.Fatalf("SortCount = %d, %v", n, err)
	}
	if _, err := ByName("Oracle", 2); err == nil {
		t.Fatal("unknown system should error")
	}
}

func TestSystemsErrorPaths(t *testing.T) {
	tbl := workload.CatalogSales(100, 1, 96)
	for _, sys := range All(2) {
		if _, err := sys.Sort(tbl, nil); err == nil {
			t.Fatalf("%s: empty keys should error", sys.Name())
		}
		if _, err := sys.Sort(tbl, []core.SortColumn{{Column: 99}}); err == nil {
			t.Fatalf("%s: bad column should error", sys.Name())
		}
	}
}

func TestSystemNames(t *testing.T) {
	want := []string{"ClickHouse", "DuckDB", "HyPer", "MonetDB", "Umbra"}
	all := All(1)
	for i, sys := range all {
		if sys.Name() != want[i] {
			t.Fatalf("system %d = %s, want %s", i, sys.Name(), want[i])
		}
	}
}

func TestSplitRanges(t *testing.T) {
	rs := splitRanges(10, 3)
	if len(rs) != 3 || rs[0][0] != 0 || rs[2][1] != 10 {
		t.Fatalf("splitRanges: %v", rs)
	}
	covered := 0
	for _, r := range rs {
		covered += r[1] - r[0]
	}
	if covered != 10 {
		t.Fatal("ranges do not cover input")
	}
	if got := splitRanges(2, 8); len(got) != 2 {
		t.Fatalf("more parts than rows: %v", got)
	}
	if got := splitRanges(5, 0); len(got) != 1 {
		t.Fatalf("zero parts: %v", got)
	}
}

func TestCompiledTooManyKeys(t *testing.T) {
	schema := make(vector.Schema, 9)
	cols := make([]*vector.Vector, 9)
	for i := range schema {
		schema[i] = vector.Column{Name: fmt.Sprintf("c%d", i), Type: vector.Int32}
		v := vector.New(vector.Int32, 1)
		v.AppendInt32(int32(i))
		cols[i] = v
	}
	tbl, err := vector.TableFromColumns(schema, cols...)
	if err != nil {
		t.Fatal(err)
	}
	keys := make([]core.SortColumn, 9)
	for i := range keys {
		keys[i] = core.SortColumn{Column: i}
	}
	if _, err := NewHyPer(1).Sort(tbl, keys); err == nil {
		t.Fatal("9 keys should exceed the compiled model's limit")
	}
}

// TestSystemsOrderAsCore pins every model to the sorter's order where a key's
// spec goes beyond ASC binary: a case-insensitive varchar key (its values
// distinct under the collation but not in binary order, some past HyPer's
// 8-byte slot and the sorter's 12-byte prefix) and DESC NULLS LAST keys. Each
// spec's keys are distinct, so the order is exact, rows and all.
func TestSystemsOrderAsCore(t *testing.T) {
	names := vector.New(vector.Varchar, 0)
	ids := vector.New(vector.Int32, 0)
	for i, s := range []string{"bob", "Alice", "", "carol", "Dave", "sameprefix_Z", "sameprefix_a",
		"SAMEPREFIX_b", "longer_than_12_Zed", "LONGER_THAN_12_yes", "eve"} {
		if s == "" {
			names.AppendNull()
			ids.AppendNull()
			continue
		}
		names.AppendString(s)
		ids.AppendInt32(int32(i * 7 % 11))
	}
	tbl, err := vector.TableFromColumns(vector.Schema{{Name: "name", Type: vector.Varchar}, {Name: "id", Type: vector.Int32}}, names, ids)
	if err != nil {
		t.Fatal(err)
	}
	for _, keys := range [][]core.SortColumn{
		{{Column: 0, CaseInsensitive: true}},
		{{Column: 0, Descending: true, NullsLast: true}},
		{{Column: 1, Descending: true, NullsLast: true}},
	} {
		want, err := core.SortTable(tbl, keys, core.Options{Threads: 1})
		if err != nil {
			t.Fatal(err)
		}
		wantCols := materialize(want)
		for _, sys := range All(1) {
			got, err := sys.Sort(tbl, keys)
			if err != nil {
				t.Fatalf("%s %+v: %v", sys.Name(), keys, err)
			}
			gotCols := materialize(got)
			for r := 0; r < tbl.NumRows(); r++ {
				if fingerprint(gotCols, r) != fingerprint(wantCols, r) {
					t.Fatalf("%s %+v: row %d is %s, the sorter's is %s", sys.Name(), keys, r, fingerprint(gotCols, r), fingerprint(wantCols, r))
				}
			}
		}
	}
}
