package core_test

import (
	"testing"

	"rowsort/internal/core"
	"rowsort/internal/engine"
	"rowsort/internal/vector"
	"rowsort/internal/workload"
)

func windowTable(t *testing.T) *vector.Table {
	t.Helper()
	schema := vector.Schema{
		{Name: "dept", Type: vector.Varchar},
		{Name: "salary", Type: vector.Int32},
	}
	dept := vector.New(vector.Varchar, 0)
	sal := vector.New(vector.Int32, 0)
	for _, r := range []struct {
		d string
		s int32
	}{
		{"eng", 100}, {"eng", 200}, {"eng", 200}, {"eng", 300},
		{"hr", 150}, {"hr", 150},
		{"ops", 50},
	} {
		dept.AppendString(r.d)
		sal.AppendInt32(r.s)
	}
	tbl, err := vector.TableFromColumns(schema, dept, sal)
	if err != nil {
		t.Fatal(err)
	}
	return tbl
}

func TestWindowRankingFunctions(t *testing.T) {
	tbl := windowTable(t)
	out, err := engine.Window(tbl, engine.WindowSpec{
		PartitionBy: []int{0},
		OrderBy:     []core.SortColumn{{Column: 1}},
	}, []engine.WindowFunc{engine.RowNumber, engine.Rank, engine.DenseRank}, core.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if len(out.Schema) != 5 {
		t.Fatalf("schema has %d columns", len(out.Schema))
	}
	if out.Schema[2].Name != "row_number" || out.Schema[4].Name != "dense_rank" {
		t.Fatalf("function column names wrong: %v", out.Schema)
	}

	type row struct {
		dept             string
		salary           int32
		num, rank, dense int64
	}
	want := []row{
		{"eng", 100, 1, 1, 1},
		{"eng", 200, 2, 2, 2},
		{"eng", 200, 3, 2, 2},
		{"eng", 300, 4, 4, 3},
		{"hr", 150, 1, 1, 1},
		{"hr", 150, 2, 1, 1},
		{"ops", 50, 1, 1, 1},
	}
	dept, sal := out.Column(0), out.Column(1)
	num, rank, dense := out.Column(2), out.Column(3), out.Column(4)
	if out.NumRows() != len(want) {
		t.Fatalf("rows = %d", out.NumRows())
	}
	for i, w := range want {
		if dept.Value(i) != w.dept || sal.Value(i) != w.salary ||
			num.Value(i) != w.num || rank.Value(i) != w.rank || dense.Value(i) != w.dense {
			t.Fatalf("row %d = (%v,%v,%v,%v,%v), want %+v",
				i, dept.Value(i), sal.Value(i), num.Value(i), rank.Value(i), dense.Value(i), w)
		}
	}
}

func TestWindowNoPartition(t *testing.T) {
	tbl := windowTable(t)
	out, err := engine.Window(tbl, engine.WindowSpec{
		OrderBy: []core.SortColumn{{Column: 1, Descending: true}},
	}, []engine.WindowFunc{engine.RowNumber}, core.Options{})
	if err != nil {
		t.Fatal(err)
	}
	num := out.Column(2)
	for i := 0; i < out.NumRows(); i++ {
		if num.Value(i) != int64(i+1) {
			t.Fatalf("row_number at %d = %v", i, num.Value(i))
		}
	}
	sal := out.Column(1)
	for i := 1; i < out.NumRows(); i++ {
		if sal.Value(i).(int32) > sal.Value(i-1).(int32) {
			t.Fatal("DESC order broken")
		}
	}
}

func TestWindowNoOrderAllPeers(t *testing.T) {
	tbl := windowTable(t)
	out, err := engine.Window(tbl, engine.WindowSpec{PartitionBy: []int{0}}, []engine.WindowFunc{engine.Rank, engine.DenseRank}, core.Options{})
	if err != nil {
		t.Fatal(err)
	}
	rank, dense := out.Column(2), out.Column(3)
	for i := 0; i < out.NumRows(); i++ {
		if rank.Value(i) != int64(1) || dense.Value(i) != int64(1) {
			t.Fatalf("all rows in a partition should be rank-1 peers, row %d = %v/%v",
				i, rank.Value(i), dense.Value(i))
		}
	}
}

func TestWindowLargerAgainstCounts(t *testing.T) {
	tbl := workload.Customer(3000, 150)
	out, err := engine.Window(tbl, engine.WindowSpec{
		PartitionBy: []int{4}, // last name
		OrderBy:     []core.SortColumn{{Column: 0}},
	}, []engine.WindowFunc{engine.RowNumber}, core.Options{Threads: 2})
	if err != nil {
		t.Fatal(err)
	}
	// row_number must be 1..groupSize within each partition; since the
	// order key (customer_sk) is unique, the numbers are strictly 1,2,3...
	last := out.Column(4)
	num := out.Column(len(out.Schema) - 1)
	expect := int64(0)
	var prev any = "\x00sentinel"
	for i := 0; i < out.NumRows(); i++ {
		cur := last.Value(i)
		if cur != prev {
			expect = 0
			prev = cur
		}
		expect++
		if num.Value(i) != expect {
			t.Fatalf("row %d: row_number %v, want %d (partition %v)", i, num.Value(i), expect, cur)
		}
	}
}

func TestWindowErrors(t *testing.T) {
	tbl := windowTable(t)
	if _, err := engine.Window(tbl, engine.WindowSpec{}, nil, core.Options{}); err == nil {
		t.Fatal("no functions should error")
	}
	if _, err := engine.Window(tbl, engine.WindowSpec{PartitionBy: []int{9}}, []engine.WindowFunc{engine.Rank}, core.Options{}); err == nil {
		t.Fatal("bad partition column should error")
	}
	if _, err := engine.Window(tbl, engine.WindowSpec{}, []engine.WindowFunc{engine.WindowFunc(99)}, core.Options{}); err == nil {
		t.Fatal("unknown function should error")
	}
}

func TestWindowFuncString(t *testing.T) {
	if engine.RowNumber.String() != "row_number" || engine.Rank.String() != "rank" ||
		engine.DenseRank.String() != "dense_rank" || engine.WindowFunc(9).String() == "" {
		t.Fatal("engine.WindowFunc.String broken")
	}
}
