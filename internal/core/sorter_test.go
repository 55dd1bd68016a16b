package core

import (
	"fmt"
	"sort"
	"testing"

	"rowsort/internal/normkey"
	"rowsort/internal/vector"
	"rowsort/internal/workload"
)

// oracleSort returns the table's rows as index order sorted with the
// reference comparator.
func oracleSort(t *vector.Table, keys []SortColumn) ([]*vector.Vector, []int) {
	cols := make([]*vector.Vector, len(t.Schema))
	for c := range t.Schema {
		cols[c] = t.Column(c)
	}
	nkeys := make([]normkey.SortKey, len(keys))
	keyCols := make([]*vector.Vector, len(keys))
	for i, k := range keys {
		order := normkey.Ascending
		if k.Descending {
			order = normkey.Descending
		}
		nulls := normkey.NullsFirst
		if k.NullsLast {
			nulls = normkey.NullsLast
		}
		nkeys[i] = normkey.SortKey{Type: t.Schema[k.Column].Type, Order: order, Nulls: nulls}
		keyCols[i] = cols[k.Column]
	}
	idx := make([]int, t.NumRows())
	for i := range idx {
		idx[i] = i
	}
	sort.SliceStable(idx, func(a, b int) bool {
		return normkey.CompareRows(nkeys, keyCols, idx[a], idx[b]) < 0
	})
	return cols, idx
}

// checkSorted verifies that got matches the oracle order: key columns agree
// at every position, and the full rows are a permutation of the input.
func checkSorted(t *testing.T, input, got *vector.Table, keys []SortColumn, ctx string) {
	t.Helper()
	if got.NumRows() != input.NumRows() {
		t.Fatalf("%s: got %d rows, want %d", ctx, got.NumRows(), input.NumRows())
	}
	cols, idx := oracleSort(input, keys)
	gotCols := make([]*vector.Vector, len(got.Schema))
	for c := range got.Schema {
		gotCols[c] = got.Column(c)
	}
	for pos, in := range idx {
		for _, k := range keys {
			want := cols[k.Column].Value(in)
			have := gotCols[k.Column].Value(pos)
			if want != have {
				t.Fatalf("%s: position %d key col %d: got %v, want %v", ctx, pos, k.Column, have, want)
			}
		}
	}
	// Whole-row multiset equality.
	counts := map[string]int{}
	for i := 0; i < input.NumRows(); i++ {
		counts[rowKey(cols, i)]++
	}
	for i := 0; i < got.NumRows(); i++ {
		counts[rowKey(gotCols, i)]--
	}
	for k, c := range counts {
		if c != 0 {
			t.Fatalf("%s: row multiset mismatch for %q (%+d)", ctx, k, c)
		}
	}
}

func rowKey(cols []*vector.Vector, i int) string {
	s := ""
	for _, c := range cols {
		s += fmt.Sprintf("%v|", c.Value(i))
	}
	return s
}

func TestSortTableIntegers(t *testing.T) {
	for _, threads := range []int{1, 4} {
		for _, runSize := range []int{0, 1000} {
			cols := workload.Dist{Random: true}.Generate(10_000, 2, 71)
			tbl := workload.UintColumnsTable(cols)
			keys := []SortColumn{{Column: 0}, {Column: 1}}
			got, err := SortTable(tbl, keys, Options{Threads: threads, RunSize: runSize})
			if err != nil {
				t.Fatal(err)
			}
			checkSorted(t, tbl, got, keys, fmt.Sprintf("threads=%d runSize=%d", threads, runSize))
		}
	}
}

func TestSortTableCorrelatedMultiKey(t *testing.T) {
	for _, dist := range workload.StandardDists() {
		cols := dist.Generate(6_000, 4, 72)
		tbl := workload.UintColumnsTable(cols)
		keys := []SortColumn{{Column: 0}, {Column: 1}, {Column: 2}, {Column: 3}}
		got, err := SortTable(tbl, keys, Options{Threads: 4, RunSize: 700})
		if err != nil {
			t.Fatal(err)
		}
		checkSorted(t, tbl, got, keys, dist.String())
	}
}

func TestSortTableDescAndNulls(t *testing.T) {
	tbl := workload.CatalogSales(8_000, 10, 73) // FK columns carry NULLs
	specs := [][]SortColumn{
		{{Column: 0}},
		{{Column: 0, Descending: true}},
		{{Column: 0, NullsLast: true}, {Column: 2, Descending: true}},
		{{Column: 0, Descending: true, NullsLast: true}, {Column: 1}, {Column: 3, Descending: true}},
	}
	for i, keys := range specs {
		got, err := SortTable(tbl, keys, Options{Threads: 3, RunSize: 1500})
		if err != nil {
			t.Fatal(err)
		}
		checkSorted(t, tbl, got, keys, fmt.Sprintf("spec %d", i))
	}
}

func TestSortTableStrings(t *testing.T) {
	tbl := workload.Customer(5_000, 74)
	keys := []SortColumn{{Column: 4}, {Column: 5}} // last name, first name
	got, err := SortTable(tbl, keys, Options{Threads: 4, RunSize: 600})
	if err != nil {
		t.Fatal(err)
	}
	checkSorted(t, tbl, got, keys, "customer names")
}

func TestSortTableLongStringTieBreak(t *testing.T) {
	// Strings sharing a 12-byte prefix force the tie-break path in both run
	// generation and merge.
	schema := vector.Schema{{Name: "s", Type: vector.Varchar}, {Name: "id", Type: vector.Int32}}
	sv := vector.New(vector.Varchar, 0)
	iv := vector.New(vector.Int32, 0)
	rng := workload.NewRNG(75)
	n := 4000
	for i := 0; i < n; i++ {
		suffix := rng.Intn(1000)
		sv.AppendString(fmt.Sprintf("SHARED-PREFIX-%06d", suffix))
		iv.AppendInt32(int32(i))
	}
	tbl, err := vector.TableFromColumns(schema, sv, iv)
	if err != nil {
		t.Fatal(err)
	}
	keys := []SortColumn{{Column: 0}}
	got, err := SortTable(tbl, keys, Options{Threads: 4, RunSize: 500})
	if err != nil {
		t.Fatal(err)
	}
	checkSorted(t, tbl, got, keys, "long string ties")

	// Also descending.
	keysDesc := []SortColumn{{Column: 0, Descending: true}}
	gotDesc, err := SortTable(tbl, keysDesc, Options{Threads: 2, RunSize: 750})
	if err != nil {
		t.Fatal(err)
	}
	checkSorted(t, tbl, gotDesc, keysDesc, "long string ties desc")
}

func TestSortTableNULStrings(t *testing.T) {
	schema := vector.Schema{{Name: "s", Type: vector.Varchar}}
	sv := vector.New(vector.Varchar, 0)
	for _, s := range []string{"a\x00", "a", "a\x00b", "", "a", "a\x00"} {
		sv.AppendString(s)
	}
	tbl, err := vector.TableFromColumns(schema, sv)
	if err != nil {
		t.Fatal(err)
	}
	keys := []SortColumn{{Column: 0}}
	got, err := SortTable(tbl, keys, Options{Threads: 1, RunSize: 2})
	if err != nil {
		t.Fatal(err)
	}
	checkSorted(t, tbl, got, keys, "NUL strings")
}

func TestSortTableSpill(t *testing.T) {
	dir := t.TempDir()
	tbl := workload.Customer(6_000, 77)
	keys := []SortColumn{{Column: 1}, {Column: 4}}
	got, err := SortTable(tbl, keys, Options{Threads: 3, RunSize: 900, SpillDir: dir})
	if err != nil {
		t.Fatal(err)
	}
	checkSorted(t, tbl, got, keys, "spill")
}

func TestSortEmptyAndTiny(t *testing.T) {
	schema := vector.Schema{{Name: "x", Type: vector.Int64}}
	empty := vector.NewTable(schema)
	got, err := SortTable(empty, []SortColumn{{Column: 0}}, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if got.NumRows() != 0 {
		t.Fatal("empty sort should be empty")
	}

	one := vector.New(vector.Int64, 1)
	one.AppendInt64(-9)
	tiny, err := vector.TableFromColumns(schema, one)
	if err != nil {
		t.Fatal(err)
	}
	got, err = SortTable(tiny, []SortColumn{{Column: 0}}, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if got.NumRows() != 1 || got.Column(0).Value(0) != int64(-9) {
		t.Fatal("single row sort wrong")
	}
}

func TestSorterAPIErrors(t *testing.T) {
	schema := vector.Schema{{Name: "x", Type: vector.Int32}}
	if _, err := NewSorter(schema, nil, Options{}); err == nil {
		t.Fatal("no keys should error")
	}
	if _, err := NewSorter(schema, []SortColumn{{Column: 5}}, Options{}); err == nil {
		t.Fatal("bad column index should error")
	}

	s, err := NewSorter(schema, []SortColumn{{Column: 0}}, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := s.Result(); err == nil {
		t.Fatal("Result before Finalize should error")
	}
	sink := s.NewSink()
	wrong := vector.NewChunk(vector.Schema{{Name: "a", Type: vector.Int32}, {Name: "b", Type: vector.Int32}}, 1)
	if err := sink.Append(wrong); err == nil {
		t.Fatal("wrong arity chunk should error")
	}
	if err := sink.Close(); err != nil {
		t.Fatal(err)
	}
	if err := sink.Append(vector.NewChunk(schema, 0)); err == nil {
		t.Fatal("append to closed sink should error")
	}
	if err := s.Finalize(); err != nil {
		t.Fatal(err)
	}
	if err := s.Finalize(); err == nil {
		t.Fatal("double Finalize should error")
	}
	if s.NumRows() != 0 {
		t.Fatal("no rows expected")
	}
}

func TestSorterManualSinkFlow(t *testing.T) {
	cols := workload.Dist{P: 0.25}.Generate(3_000, 2, 78)
	tbl := workload.UintColumnsTable(cols)
	keys := []SortColumn{{Column: 1, Descending: true}, {Column: 0}}
	s, err := NewSorter(tbl.Schema, keys, Options{RunSize: 512})
	if err != nil {
		t.Fatal(err)
	}
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
	if s.NumRows() != 3000 {
		t.Fatalf("NumRows = %d", s.NumRows())
	}
	got, err := s.Result()
	if err != nil {
		t.Fatal(err)
	}
	checkSorted(t, tbl, got, keys, "manual sink")
}

func TestSortAllTypesTable(t *testing.T) {
	// A table containing every supported type, sorted by several of them.
	rng := workload.NewRNG(79)
	schema := vector.Schema{
		{Name: "b", Type: vector.Bool},
		{Name: "i16", Type: vector.Int16},
		{Name: "f32", Type: vector.Float32},
		{Name: "s", Type: vector.Varchar},
		{Name: "u64", Type: vector.Uint64},
	}
	tbl := vector.NewTable(schema)
	n := 4000
	for start := 0; start < n; start += vector.DefaultVectorSize {
		count := min(vector.DefaultVectorSize, n-start)
		c := vector.NewChunk(schema, count)
		for r := 0; r < count; r++ {
			if rng.Float64() < 0.1 {
				c.Vectors[0].AppendNull()
			} else {
				c.Vectors[0].AppendBool(rng.Intn(2) == 1)
			}
			c.Vectors[1].AppendInt16(int16(rng.Intn(64) - 32))
			c.Vectors[2].AppendFloat32(float32(rng.Intn(16)))
			if rng.Float64() < 0.1 {
				c.Vectors[3].AppendNull()
			} else {
				c.Vectors[3].AppendString(fmt.Sprintf("str%02d", rng.Intn(30)))
			}
			c.Vectors[4].AppendUint64(rng.Uint64() % 1024)
		}
		if err := tbl.AppendChunk(c); err != nil {
			t.Fatal(err)
		}
	}
	keys := []SortColumn{
		{Column: 1},
		{Column: 0, NullsLast: true},
		{Column: 3, Descending: true},
		{Column: 2, Descending: true},
		{Column: 4},
	}
	got, err := SortTable(tbl, keys, Options{Threads: 4, RunSize: 600})
	if err != nil {
		t.Fatal(err)
	}
	checkSorted(t, tbl, got, keys, "all types")
}

func TestSortTableCaseInsensitive(t *testing.T) {
	schema := vector.Schema{{Name: "s", Type: vector.Varchar}, {Name: "id", Type: vector.Int32}}
	sv := vector.New(vector.Varchar, 0)
	iv := vector.New(vector.Int32, 0)
	words := []string{"Zebra", "apple", "APPLE", "banana", "Apple", "zebra", "BANANA-SPLIT-LONG"}
	rng := workload.NewRNG(130)
	n := 3000
	for i := 0; i < n; i++ {
		sv.AppendString(words[rng.Intn(len(words))])
		iv.AppendInt32(int32(i))
	}
	tbl, err := vector.TableFromColumns(schema, sv, iv)
	if err != nil {
		t.Fatal(err)
	}
	keys := []SortColumn{{Column: 0, CaseInsensitive: true}}
	got, err := SortTable(tbl, keys, Options{Threads: 3, RunSize: 400})
	if err != nil {
		t.Fatal(err)
	}
	if got.NumRows() != n {
		t.Fatalf("rows = %d", got.NumRows())
	}
	// Verify nondecreasing collated order.
	col := got.Column(0)
	prev := ""
	for i := 0; i < n; i++ {
		cur := normkey.CollationNoCase.Apply(col.Value(i).(string))
		if i > 0 && cur < prev {
			t.Fatalf("collated order broken at %d: %q < %q", i, cur, prev)
		}
		prev = cur
	}
	// And a permutation: count case variants.
	counts := map[string]int{}
	for _, w := range words {
		counts[w] = 0
	}
	for i := 0; i < n; i++ {
		counts[col.Value(i).(string)]++
	}
	total := 0
	for _, c := range counts {
		total += c
	}
	if total != n {
		t.Fatal("output is not a permutation of input words")
	}
}

// TestOrderShapesMatchOracle sorts every order shape the workload package
// generates — the inputs on which the planner leaves radix — and two string
// shapes whose every run takes the tie-break (low-cardinality names two bytes
// longer than the prefix, URLs whose shared start fills it) through default
// SortTable, resident and spilled, on one thread and four: the output must
// equal the stable-sort oracle on key sequence and row multiset whatever each
// run's plan was, and pdqsort pinned on every run must yield the same key
// sequence. Across the shapes every kernel a sampled (not forced) plan can
// name must run.
func TestOrderShapesMatchOracle(t *testing.T) {
	const n, runSize = 20_000, 2_500
	keys := []SortColumn{{Column: 0}}
	ran := map[string]bool{}
	for _, sh := range []struct {
		name string
		tbl  *vector.Table
		ties bool // every run's string prefixes tie
	}{
		{"sorted", workload.NearlySorted(n, 0, 51), false},
		{"0.01% disorder", workload.NearlySorted(n, 0.0001, 52), false},
		{"0.1% disorder", workload.NearlySorted(n, 0.001, 53), false},
		{"sawtooth", workload.SawtoothRuns(n, 1024, 54), false},
		{"duplicate runs", workload.DupHeavyInts(n, 500, 55), false},
		{"all equal", workload.DupHeavyInts(n, 1, 56), false},
		{"low-cardinality strings", workload.LowCardStrings(n, 300, 59), true},
		{"shared-prefix strings", workload.SharedPrefixStrings(n, 60), true},
		{"one row", workload.NearlySorted(1, 0, 57), false},
		{"empty", workload.NearlySorted(0, 0, 58), false},
	} {
		for _, threads := range []int{1, 4} {
			for _, spilled := range []bool{false, true} {
				ctx := fmt.Sprintf("%s, threads=%d, spilled=%v", sh.name, threads, spilled)
				opt := Options{Threads: threads, RunSize: runSize}
				if spilled {
					opt.SpillDir = t.TempDir()
				}
				got, st, err := SortTableStats(sh.tbl, keys, opt)
				if err != nil {
					t.Fatalf("%s: %v", ctx, err)
				}
				checkSorted(t, sh.tbl, got, keys, ctx)
				for _, d := range st.StrategyDecisions {
					if d.Forced == "" {
						ran[d.Algo] = true
					}
					if (d.Forced == "tie-break") != sh.ties {
						t.Fatalf("%s: run %d forced %q", ctx, d.Run, d.Forced)
					}
				}

				s, err := NewSorter(sh.tbl.Schema, keys, opt)
				if err != nil {
					t.Fatal(err)
				}
				s.pinPdqsort = true
				pinned, err := sortTable(s, sh.tbl)
				if cerr := s.Close(); err != nil || cerr != nil {
					t.Fatalf("%s, pdqsort pinned: %v, close: %v", ctx, err, cerr)
				}
				checkKeyColumnsEqual(t, got, pinned, keys, ctx+", pdqsort pinned")
			}
		}
	}
	for _, algo := range []string{"msd-radix", "pdqsort", "dup-group"} {
		if !ran[algo] {
			t.Errorf("no run of any shape was sorted by %s: the shapes missed what they are for", algo)
		}
	}
}
