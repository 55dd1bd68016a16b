package rowcmp

import (
	"encoding/binary"
	"sort"
	"testing"

	"rowsort/internal/sortalgo"
	"rowsort/internal/workload"
)

// sortedTuples returns the key tuples of cols in lexicographic order — the
// shared oracle for every sorting approach in this package.
func sortedTuples(cols [][]uint32) [][]uint32 {
	n := len(cols[0])
	out := make([][]uint32, n)
	for i := range out {
		t := make([]uint32, len(cols))
		for c := range cols {
			t[c] = cols[c][i]
		}
		out[i] = t
	}
	sort.Slice(out, func(a, b int) bool {
		for c := range out[a] {
			if out[a][c] != out[b][c] {
				return out[a][c] < out[b][c]
			}
		}
		return false
	})
	return out
}

func checkRows(t *testing.T, rows []Row, cols [][]uint32, ctx string) {
	t.Helper()
	want := sortedTuples(cols)
	for i, w := range want {
		for c := range w {
			if rows[i].Keys[c] != w[c] {
				t.Fatalf("%s: row %d key %d = %d, want %d", ctx, i, c, rows[i].Keys[c], w[c])
			}
		}
	}
}

func TestBuildRows(t *testing.T) {
	cols := [][]uint32{{10, 20}, {30, 40}}
	rows := BuildRows(cols)
	if len(rows) != 2 || rows[0].Keys[0] != 10 || rows[1].Keys[1] != 40 {
		t.Fatalf("BuildRows wrong: %+v", rows)
	}
	if rows[0].ID != 0 || rows[1].ID != 1 {
		t.Fatal("row ids wrong")
	}
}

func TestBuildRowsPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	BuildRows(nil)
}

func TestAllApproachesMatchOracle(t *testing.T) {
	approaches := map[string]func([]Row, int, sortalgo.Algorithm){
		"static":  SortStatic,
		"dynamic": SortDynamic,
		"subsort": SortSubsort,
	}
	algs := []sortalgo.Algorithm{sortalgo.AlgIntrosort, sortalgo.AlgStable, sortalgo.AlgPdq}
	for _, dist := range workload.StandardDists() {
		for numKeys := 1; numKeys <= 4; numKeys++ {
			cols := dist.Generate(2500, numKeys, 61)
			for name, approach := range approaches {
				for _, alg := range algs {
					rows := BuildRows(cols)
					approach(rows, numKeys, alg)
					checkRows(t, rows, cols, name+"/"+alg.String()+"/"+dist.String())
				}
			}
		}
	}
}

func TestStaticAndDynamicComparatorsAgree(t *testing.T) {
	cols := workload.Dist{P: 0.5}.Generate(500, 4, 62)
	rows := BuildRows(cols)
	for numKeys := 1; numKeys <= 4; numKeys++ {
		st := StaticLess(numKeys)
		dy := DynamicComparator(numKeys)
		for i := 0; i < 500; i += 7 {
			for j := 0; j < 500; j += 11 {
				if st(rows[i], rows[j]) != dy(rows[i], rows[j]) {
					t.Fatalf("comparators disagree at (%d,%d) keys=%d", i, j, numKeys)
				}
			}
		}
	}
}

func TestComparatorPanics(t *testing.T) {
	for _, f := range []func(){
		func() { StaticLess(0) },
		func() { StaticLess(5) },
		func() { DynamicComparator(0) },
		func() { SortSubsort(nil, 9, sortalgo.AlgPdq) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Fatal("expected panic")
				}
			}()
			f()
		}()
	}
}

func TestNormalizedRowWidth(t *testing.T) {
	cases := []struct{ keys, rowW, keyW int }{
		{1, 8, 4}, {2, 16, 8}, {3, 16, 12}, {4, 24, 16},
	}
	for _, c := range cases {
		rw, kw := NormalizedRowWidth(c.keys)
		if rw != c.rowW || kw != c.keyW {
			t.Fatalf("keys=%d: got (%d,%d), want (%d,%d)", c.keys, rw, kw, c.rowW, c.keyW)
		}
	}
}

func TestNormalizedSortsMatchOracle(t *testing.T) {
	for _, dist := range workload.StandardDists() {
		for numKeys := 1; numKeys <= 4; numKeys++ {
			cols := dist.Generate(3000, numKeys, 63)

			pdq, rowW, keyW := EncodeNormalized(cols)
			SortNormalizedPdq(pdq, rowW, keyW)

			rad, _, _ := EncodeNormalized(cols)
			SortNormalizedRadix(rad, rowW, keyW)

			want := sortedTuples(cols)
			for i, w := range want {
				for c := range w {
					pv := binary.BigEndian.Uint32(pdq[i*rowW+c*4:])
					rv := binary.BigEndian.Uint32(rad[i*rowW+c*4:])
					if pv != w[c] {
						t.Fatalf("%s keys=%d: pdq row %d col %d = %d, want %d", dist, numKeys, i, c, pv, w[c])
					}
					if rv != w[c] {
						t.Fatalf("%s keys=%d: radix row %d col %d = %d, want %d", dist, numKeys, i, c, rv, w[c])
					}
				}
			}
		}
	}
}

func TestNormalizedRowCarriesID(t *testing.T) {
	cols := [][]uint32{{3, 1, 2}}
	data, rowW, keyW := EncodeNormalized(cols)
	SortNormalizedRadix(data, rowW, keyW)
	// Sorted values 1,2,3 came from original rows 1,2,0.
	wantIDs := []uint32{1, 2, 0}
	for i, w := range wantIDs {
		if got := binary.BigEndian.Uint32(data[i*rowW+keyW:]); got != w {
			t.Fatalf("row %d id = %d, want %d", i, got, w)
		}
	}
}

func TestEncodeNormalizedPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	EncodeNormalized(make([][]uint32, 5))
}
