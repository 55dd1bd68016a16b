// The operators under test live in internal/engine (they use only core's
// public API). Their tests stay in this directory, as an external test
// package, so that their suite ids (rowsort/internal/core:Test…) do not
// change: the test floor allows a PR only a few renames, and there are
// thirteen here. A later PR can move the file with a package clause edit.
package core_test

import (
	"fmt"
	"sort"
	"testing"

	"rowsort/internal/core"
	"rowsort/internal/engine"
	"rowsort/internal/vector"
	"rowsort/internal/workload"
)

func intTable(t *testing.T, name string, a []int32, b []string) *vector.Table {
	t.Helper()
	schema := vector.Schema{{Name: name + "_k", Type: vector.Int32}, {Name: name + "_v", Type: vector.Varchar}}
	kv := vector.New(vector.Int32, len(a))
	vv := vector.New(vector.Varchar, len(a))
	for i := range a {
		kv.AppendInt32(a[i])
		vv.AppendString(b[i])
	}
	tbl, err := vector.TableFromColumns(schema, kv, vv)
	if err != nil {
		t.Fatal(err)
	}
	return tbl
}

func materializeColumns(t *vector.Table) []*vector.Vector {
	cols := make([]*vector.Vector, len(t.Schema))
	for c := range t.Schema {
		cols[c] = t.Column(c)
	}
	return cols
}

// nestedLoopJoin is the oracle: every matching pair, as strings.
func nestedLoopJoin(left, right *vector.Table, lk, rk []int) []string {
	lcols := materializeColumns(left)
	rcols := materializeColumns(right)
	var out []string
	for i := 0; i < left.NumRows(); i++ {
		for j := 0; j < right.NumRows(); j++ {
			match := true
			for k := range lk {
				lv, rv := lcols[lk[k]].Value(i), rcols[rk[k]].Value(j)
				if lv == nil || rv == nil || lv != rv {
					match = false
					break
				}
			}
			if match {
				row := ""
				for _, c := range lcols {
					row += fmt.Sprintf("%v|", c.Value(i))
				}
				for _, c := range rcols {
					row += fmt.Sprintf("%v|", c.Value(j))
				}
				out = append(out, row)
			}
		}
	}
	sort.Strings(out)
	return out
}

func joinedRows(t *testing.T, res *vector.Table) []string {
	t.Helper()
	cols := materializeColumns(res)
	out := make([]string, res.NumRows())
	for i := range out {
		row := ""
		for _, c := range cols {
			row += fmt.Sprintf("%v|", c.Value(i))
		}
		out[i] = row
	}
	sort.Strings(out)
	return out
}

func checkJoin(t *testing.T, left, right *vector.Table, lk, rk []int, ctx string) {
	t.Helper()
	res, err := engine.MergeJoin(left, right, lk, rk, core.Options{Threads: 2})
	if err != nil {
		t.Fatal(err)
	}
	got := joinedRows(t, res)
	want := nestedLoopJoin(left, right, lk, rk)
	if len(got) != len(want) {
		t.Fatalf("%s: got %d rows, want %d", ctx, len(got), len(want))
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("%s: row %d: got %q, want %q", ctx, i, got[i], want[i])
		}
	}
}

func TestMergeJoinBasic(t *testing.T) {
	left := intTable(t, "l", []int32{1, 2, 2, 3}, []string{"a", "b", "c", "d"})
	right := intTable(t, "r", []int32{2, 2, 3, 4}, []string{"x", "y", "z", "w"})
	checkJoin(t, left, right, []int{0}, []int{0}, "basic")
}

func TestMergeJoinDuplicatesCrossProduct(t *testing.T) {
	left := intTable(t, "l", []int32{5, 5, 5}, []string{"a", "b", "c"})
	right := intTable(t, "r", []int32{5, 5}, []string{"x", "y"})
	res, err := engine.MergeJoin(left, right, []int{0}, []int{0}, core.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if res.NumRows() != 6 {
		t.Fatalf("cross product should have 6 rows, got %d", res.NumRows())
	}
	checkJoin(t, left, right, []int{0}, []int{0}, "cross product")
}

func TestMergeJoinNullKeysNeverMatch(t *testing.T) {
	schema := vector.Schema{{Name: "k", Type: vector.Int32}}
	mk := func(vals []any) *vector.Table {
		v := vector.New(vector.Int32, len(vals))
		for _, x := range vals {
			if x == nil {
				v.AppendNull()
			} else {
				v.AppendInt32(x.(int32))
			}
		}
		tbl, err := vector.TableFromColumns(schema, v)
		if err != nil {
			t.Fatal(err)
		}
		return tbl
	}
	left := mk([]any{nil, int32(1), nil})
	right := mk([]any{nil, int32(1)})
	res, err := engine.MergeJoin(left, right, []int{0}, []int{0}, core.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if res.NumRows() != 1 {
		t.Fatalf("NULLs must not join: got %d rows, want 1", res.NumRows())
	}
}

func TestMergeJoinMultiKeyAndStrings(t *testing.T) {
	rng := workload.NewRNG(111)
	mk := func(n int, name string) *vector.Table {
		schema := vector.Schema{
			{Name: name + "_s", Type: vector.Varchar},
			{Name: name + "_i", Type: vector.Int32},
			{Name: name + "_pay", Type: vector.Int64},
		}
		sv := vector.New(vector.Varchar, n)
		iv := vector.New(vector.Int32, n)
		pv := vector.New(vector.Int64, n)
		for i := 0; i < n; i++ {
			sv.AppendString(fmt.Sprintf("g%d", rng.Intn(8)))
			iv.AppendInt32(int32(rng.Intn(4)))
			pv.AppendInt64(int64(i))
		}
		tbl, err := vector.TableFromColumns(schema, sv, iv, pv)
		if err != nil {
			t.Fatal(err)
		}
		return tbl
	}
	left, right := mk(120, "l"), mk(90, "r")
	checkJoin(t, left, right, []int{0, 1}, []int{0, 1}, "multi key")
}

func TestMergeJoinEmptySides(t *testing.T) {
	left := intTable(t, "l", nil, nil)
	right := intTable(t, "r", []int32{1}, []string{"x"})
	res, err := engine.MergeJoin(left, right, []int{0}, []int{0}, core.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if res.NumRows() != 0 {
		t.Fatal("empty join should be empty")
	}
}

func TestMergeJoinErrors(t *testing.T) {
	left := intTable(t, "l", []int32{1}, []string{"a"})
	right := intTable(t, "r", []int32{1}, []string{"b"})
	if _, err := engine.MergeJoin(left, right, nil, nil, core.Options{}); err == nil {
		t.Fatal("empty keys should error")
	}
	if _, err := engine.MergeJoin(left, right, []int{0}, []int{0, 1}, core.Options{}); err == nil {
		t.Fatal("mismatched key arity should error")
	}
	if _, err := engine.MergeJoin(left, right, []int{9}, []int{0}, core.Options{}); err == nil {
		t.Fatal("out-of-range key should error")
	}
	if _, err := engine.MergeJoin(left, right, []int{0}, []int{1}, core.Options{}); err == nil {
		t.Fatal("type-mismatched keys should error")
	}
}

func TestMergeJoinLarger(t *testing.T) {
	// A larger randomized join against the nested-loop oracle.
	rng := workload.NewRNG(112)
	mk := func(n int, name string) *vector.Table {
		schema := vector.Schema{{Name: name, Type: vector.Int32}}
		v := vector.New(vector.Int32, n)
		for i := 0; i < n; i++ {
			if rng.Float64() < 0.05 {
				v.AppendNull()
			} else {
				v.AppendInt32(int32(rng.Intn(50)))
			}
		}
		tbl, err := vector.TableFromColumns(schema, v)
		if err != nil {
			t.Fatal(err)
		}
		return tbl
	}
	checkJoin(t, mk(400, "l"), mk(300, "r"), []int{0}, []int{0}, "larger")
}
