package row

import (
	"bytes"
	"fmt"
	"math/rand"
	"slices"
	"testing"

	"rowsort/internal/vector"
)

// gatherReference gathers the named rows value-at-a-time through AppendTo,
// the scalar reference the vectorized kernels must match.
func gatherReference(rs *RowSet, idxs []uint32) []*vector.Vector {
	l := rs.Layout()
	out := make([]*vector.Vector, l.NumColumns())
	for c, t := range l.Types() {
		v := vector.New(t, len(idxs))
		for _, i := range idxs {
			rs.AppendTo(v, int(i), c)
		}
		out[c] = v
	}
	return out
}

// gatherRange, gatherIndex and gatherRefs gather through a fresh Gather in
// each of its three shapes.
func gatherRange(rs *RowSet, start, count int) []*vector.Vector {
	g := NewGather(rs.Layout())
	g.Range(rs, start, count)
	return g.Vectors()
}

func gatherIndex(rs *RowSet, idxs []uint32) []*vector.Vector {
	g := NewGather(rs.Layout())
	g.Index(rs, idxs)
	return g.Vectors()
}

func gatherRefs(l *Layout, sets []*RowSet, which, idxs []uint32) []*vector.Vector {
	g := NewGather(l)
	g.Refs(sets, which, idxs)
	return g.Vectors()
}

// assertVectorsEqual compares two column lists value by value, including
// validity.
func assertVectorsEqual(t *testing.T, got, want []*vector.Vector) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("column count: got %d, want %d", len(got), len(want))
	}
	for c := range want {
		if got[c].Len() != want[c].Len() {
			t.Fatalf("col %d: got %d rows, want %d", c, got[c].Len(), want[c].Len())
		}
		for r := 0; r < want[c].Len(); r++ {
			if got[c].Valid(r) != want[c].Valid(r) {
				t.Fatalf("col %d row %d: validity got %v, want %v",
					c, r, got[c].Valid(r), want[c].Valid(r))
			}
			if got[c].Valid(r) && got[c].Value(r) != want[c].Value(r) {
				t.Fatalf("col %d (%v) row %d: got %v, want %v",
					c, want[c].Type(), r, got[c].Value(r), want[c].Value(r))
			}
		}
	}
}

// TestGatherRangeAllTypes checks the contiguous-range shape for every column
// type against the scalar reference, including NULL runs: the first chunk is
// NULL-free, the second all-NULL, the third mixed, so each column loop sees
// ranges with and without a NULL to mark.
func TestGatherRangeAllTypes(t *testing.T) {
	rng := rand.New(rand.NewSource(41))
	rs := NewRowSet(NewLayout(allTypes))
	for _, nullRate := range []float64{0, 1, 0.3} {
		if err := rs.AppendChunk(buildRandomChunk(allTypes, 40, nullRate, rng)); err != nil {
			t.Fatal(err)
		}
	}
	for _, rg := range [][2]int{{0, rs.Len()}, {0, 0}, {7, 0}, {35, 50}, {119, 1}} {
		start, count := rg[0], rg[1]
		idxs := make([]uint32, count)
		for i := range idxs {
			idxs[i] = uint32(start + i)
		}
		got := gatherRange(rs, start, count)
		assertVectorsEqual(t, got, gatherReference(rs, idxs))
	}
}

// TestGatherRowsAllTypes checks the index-list shape on out-of-order and
// duplicate indices, and on the empty index list.
func TestGatherRowsAllTypes(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	rs := NewRowSet(NewLayout(allTypes))
	if err := rs.AppendChunk(buildRandomChunk(allTypes, 60, 0.25, rng)); err != nil {
		t.Fatal(err)
	}
	for _, idxs := range [][]uint32{
		{},
		{59, 0, 30},
		{5, 5, 5, 5},
		{59, 58, 3, 3, 0, 17, 58},
	} {
		got := gatherIndex(rs, idxs)
		assertVectorsEqual(t, got, gatherReference(rs, idxs))
		if got[0].Len() != len(idxs) {
			t.Fatalf("gathered %d rows, want %d", got[0].Len(), len(idxs))
		}
	}
	// Full random permutation.
	perm := rng.Perm(60)
	idxs := make([]uint32, len(perm))
	for i, p := range perm {
		idxs[i] = uint32(p)
	}
	assertVectorsEqual(t, gatherIndex(rs, idxs), gatherReference(rs, idxs))
}

// TestGatherRefsColumnMultiSet checks the (set, index) reference shape: rows
// interleaved across three sets sharing a layout, including a nil entry that
// is never referenced.
func TestGatherRefsColumnMultiSet(t *testing.T) {
	rng := rand.New(rand.NewSource(43))
	layout := NewLayout(allTypes)
	sets := make([]*RowSet, 4) // sets[2] stays nil and unreferenced
	for _, si := range []int{0, 1, 3} {
		sets[si] = NewRowSet(layout)
		if err := sets[si].AppendChunk(buildRandomChunk(allTypes, 20, 0.2, rng)); err != nil {
			t.Fatal(err)
		}
	}
	var which, idxs []uint32
	for i := 0; i < 50; i++ {
		w := []uint32{0, 1, 3}[rng.Intn(3)]
		which = append(which, w)
		idxs = append(idxs, uint32(rng.Intn(20)))
	}
	got := gatherRefs(layout, sets, which, idxs)
	for c, typ := range allTypes {
		want := vector.New(typ, len(idxs))
		for o := range idxs {
			sets[which[o]].AppendTo(want, int(idxs[o]), c)
		}
		assertVectorsEqual(t, got[c:c+1], []*vector.Vector{want})
	}
	// Empty reference list: no panic, empty vectors.
	for _, v := range gatherRefs(layout, sets, nil, nil) {
		if v.Len() != 0 {
			t.Fatal("empty refs should gather empty vectors")
		}
	}
}

// TestGatherVarcharHeapCompaction checks that an indexed varchar gather
// compacts the strings into one backing allocation laid out in gather
// order, and that duplicate indices duplicate the bytes.
func TestGatherVarcharHeapCompaction(t *testing.T) {
	rs := NewRowSet(NewLayout([]vector.Type{vector.Varchar}))
	v := vector.New(vector.Varchar, 4)
	for _, s := range []string{"alpha", "bee", "", "delta"} {
		v.AppendString(s)
	}
	v.AppendNull()
	if err := rs.AppendChunk([]*vector.Vector{v}); err != nil {
		t.Fatal(err)
	}
	idxs := []uint32{3, 3, 0, 4, 1, 2}
	got := gatherIndex(rs, idxs)[0]
	want := []any{"delta", "delta", "alpha", nil, "bee", ""}
	for r, w := range want {
		if w == nil {
			if got.Valid(r) {
				t.Fatalf("row %d should be NULL", r)
			}
			continue
		}
		if got.Value(r) != w {
			t.Fatalf("row %d: got %v, want %v", r, got.Value(r), w)
		}
	}
	// Compaction: the kernel backs all output strings with one buffer, so
	// gathering into a preallocated vector allocates once (the builder's
	// buffer), not once per string.
	g := NewGather(rs.Layout())
	g.Index(rs, idxs)
	dst := vector.NewDense(vector.Varchar, len(idxs))
	allocs := testing.AllocsPerRun(20, func() {
		g.column(0, dst)
	})
	if allocs > 1 {
		t.Fatalf("varchar gather allocates %v times per call, want <= 1", allocs)
	}
}

// TestAppendRowsGatherOneSource checks the batched reorder out of one set
// (which nil) against the single-row AppendRowFrom reference: same rows, same
// bytes, and a heap holding only the referenced strings.
func TestAppendRowsGatherOneSource(t *testing.T) {
	rng := rand.New(rand.NewSource(44))
	layout := NewLayout(allTypes)
	src := NewRowSet(layout)
	if err := src.AppendChunk(buildRandomChunk(allTypes, 80, 0.15, rng)); err != nil {
		t.Fatal(err)
	}
	// Reversed order with some duplicates and gaps.
	var idxs []uint32
	for i := 79; i >= 0; i -= 2 {
		idxs = append(idxs, uint32(i), uint32(i))
	}

	batch := NewRowSet(layout)
	batch.AppendRowsGather([]*RowSet{src}, nil, idxs)

	ref := NewRowSet(layout)
	for _, i := range idxs {
		ref.AppendRowFrom(src, int(i))
	}

	if batch.Len() != ref.Len() {
		t.Fatalf("Len: got %d, want %d", batch.Len(), ref.Len())
	}
	if !bytes.Equal(batch.Bytes(), ref.Bytes()) {
		t.Fatal("batched permute produced different row bytes than scalar reference")
	}
	if !bytes.Equal(batch.heap, ref.heap) {
		t.Fatal("batched permute produced a different heap than scalar reference")
	}
	// Values survive the heap rewrite.
	for o, i := range idxs {
		for c := range allTypes {
			if batch.Value(o, c) != src.Value(int(i), c) {
				t.Fatalf("row %d col %d: got %v, want %v", o, c, batch.Value(o, c), src.Value(int(i), c))
			}
		}
	}
}

// TestReorderStringBoundaries pins the reorder's word moves of strings at
// the lengths either side of 16 and 32 bytes, where a move of two or four
// words ends. A source's first and last rows hold the length under test, so
// the last row's string ends the source heap. A list in order puts that string
// last in the destination heap too; the other lists end with the first row,
// whose string ends the destination heap but has room behind it in the
// source, and hold the last row earlier: each heap's room is tested on its
// own. Row and heap bytes must equal per-row AppendRowFrom's (one varchar
// column, so the two heap orders agree), for permutations through both
// reorders and for a list with repeats and gaps through AppendRowsGather, out
// of one set and out of two.
func TestReorderStringBoundaries(t *testing.T) {
	lengths := []int{15, 16, 17, 31, 32, 33}
	const n = 4 * 6
	layout := NewLayout([]vector.Type{vector.Int64, vector.Varchar})
	rng := rand.New(rand.NewSource(46))
	source := func(edge int) *RowSet {
		ints, strs := vector.New(vector.Int64, n), vector.New(vector.Varchar, n)
		for r := 0; r < n; r++ {
			b := make([]byte, lengths[r%len(lengths)])
			if r == 0 || r == n-1 {
				b = make([]byte, edge)
			}
			rng.Read(b)
			ints.AppendInt64(int64(r))
			strs.AppendString(string(b))
		}
		rs := NewRowSet(layout)
		if err := rs.AppendChunk([]*vector.Vector{ints, strs}); err != nil {
			t.Fatal(err)
		}
		return rs
	}
	for _, edge := range lengths {
		srcs := []*RowSet{source(edge), source(edge)}
		inOrder, perm := make([]uint32, n), make([]uint32, n)
		for o, p := range rng.Perm(n) {
			inOrder[o], perm[o] = uint32(o), uint32(p)
		}
		at := slices.Index(perm, 0)
		perm[at], perm[n-1] = perm[n-1], 0
		repeats := make([]uint32, 2*n)
		for o := range repeats {
			repeats[o] = uint32(rng.Intn(n / 2)) // half the rows, some twice
		}
		repeats[n], repeats[2*n-1] = n-1, 0
		which := make([]uint32, len(repeats))
		for o := range which {
			which[o] = uint32(rng.Intn(2))
		}
		for _, tc := range []struct {
			name string
			idxs []uint32
		}{{"in order", inOrder}, {"permutation", perm}, {"repeats and gaps", repeats}} {
			ctx := fmt.Sprintf("edge strings of %d bytes, %s", edge, tc.name)
			want := NewRowSet(layout)
			for _, i := range tc.idxs {
				want.AppendRowFrom(srcs[0], int(i))
			}
			got := NewRowSet(layout)
			got.AppendRowsGather(srcs, nil, tc.idxs)
			sameSet(t, ctx+": AppendRowsGather out of one set", got, want)
			if len(tc.idxs) == n {
				got = NewRowSet(layout)
				got.AppendPermuted(srcs[0], tc.idxs)
				sameSet(t, ctx+": AppendPermuted", got, want)
			}
			want = NewRowSet(layout)
			for o, i := range tc.idxs {
				want.AppendRowFrom(srcs[which[o]], int(i))
			}
			got = NewRowSet(layout)
			got.AppendRowsGather(srcs, which[:len(tc.idxs)], tc.idxs)
			sameSet(t, ctx+": AppendRowsGather", got, want)
		}
	}
}

// TestAppendRowsGatherMultiSource checks the multi-source permute (the merge
// path's payload reorder) against per-row AppendRowFrom.
func TestAppendRowsGatherMultiSource(t *testing.T) {
	rng := rand.New(rand.NewSource(45))
	layout := NewLayout([]vector.Type{vector.Int64, vector.Varchar, vector.Varchar})
	types := layout.Types()
	srcs := make([]*RowSet, 3)
	for i := range srcs {
		srcs[i] = NewRowSet(layout)
		if err := srcs[i].AppendChunk(buildRandomChunk(types, 25, 0.2, rng)); err != nil {
			t.Fatal(err)
		}
	}
	var which, idxs []uint32
	for i := 0; i < 70; i++ {
		which = append(which, uint32(rng.Intn(3)))
		idxs = append(idxs, uint32(rng.Intn(25)))
	}

	batch := NewRowSet(layout)
	batch.AppendRowsGather(srcs, which, idxs)

	// The batched permute compacts the heap column-major while the per-row
	// reference interleaves strings row by row, so compare values (and
	// validity), not raw heap bytes.
	ref := NewRowSet(layout)
	for o := range idxs {
		ref.AppendRowFrom(srcs[which[o]], int(idxs[o]))
	}
	if batch.Len() != ref.Len() {
		t.Fatalf("Len: got %d, want %d", batch.Len(), ref.Len())
	}
	for o := 0; o < ref.Len(); o++ {
		for c := range types {
			if batch.Value(o, c) != ref.Value(o, c) {
				t.Fatalf("row %d col %d: got %v, want %v", o, c, batch.Value(o, c), ref.Value(o, c))
			}
		}
	}

	// Appending on top of existing rows keeps earlier rows intact.
	batch.AppendRowsGather(srcs, which[:5], idxs[:5])
	if batch.Len() != len(idxs)+5 {
		t.Fatalf("Len after second append = %d", batch.Len())
	}
	for o := range idxs {
		if batch.Value(o, 1) != srcs[which[o]].Value(int(idxs[o]), 1) {
			t.Fatalf("row %d corrupted by second append", o)
		}
	}
}

// TestAppendRowsGatherEmpty checks the degenerate inputs.
func TestAppendRowsGatherEmpty(t *testing.T) {
	layout := NewLayout([]vector.Type{vector.Int32, vector.Varchar})
	src := NewRowSet(layout)
	v := vector.New(vector.Int32, 1)
	v.AppendInt32(7)
	s := vector.New(vector.Varchar, 1)
	s.AppendString("x")
	if err := src.AppendChunk([]*vector.Vector{v, s}); err != nil {
		t.Fatal(err)
	}
	dst := NewRowSet(layout)
	dst.AppendRowsGather([]*RowSet{src}, nil, nil)
	dst.AppendPermuted(src, nil)
	if dst.Len() != 0 || len(dst.Bytes()) != 0 {
		t.Fatal("empty permutes should append nothing")
	}
}

// TestRowSetReset checks that Reset empties the set but keeps capacity, and
// that the set is fully reusable afterwards.
func TestRowSetReset(t *testing.T) {
	rng := rand.New(rand.NewSource(46))
	types := []vector.Type{vector.Int32, vector.Varchar}
	rs := NewRowSet(NewLayout(types))
	if err := rs.AppendChunk(buildRandomChunk(types, 30, 0.1, rng)); err != nil {
		t.Fatal(err)
	}
	capData, capHeap := cap(rs.data), cap(rs.heap)
	rs.Reset()
	if rs.Len() != 0 || len(rs.data) != 0 || len(rs.heap) != 0 {
		t.Fatal("Reset should empty the set")
	}
	if cap(rs.data) != capData || cap(rs.heap) != capHeap {
		t.Fatal("Reset should keep the allocated buffers")
	}
	chunk := buildRandomChunk(types, 10, 0.1, rng)
	if err := rs.AppendChunk(chunk); err != nil {
		t.Fatal(err)
	}
	got := rs.GatherChunk(0, 10)
	assertVectorsEqual(t, got, chunk)
}

// TestGatherChunkMatchesScalarAcrossWidths runs the range shape over odd
// row counts and alignments so slice-boundary arithmetic is exercised.
func TestGatherChunkMatchesScalarAcrossWidths(t *testing.T) {
	rng := rand.New(rand.NewSource(47))
	for _, align := range []int{1, 8} {
		types := []vector.Type{vector.Int8, vector.Int32, vector.Varchar, vector.Bool}
		layout := NewLayoutAligned(types, align)
		rs := NewRowSet(layout)
		if err := rs.AppendChunk(buildRandomChunk(types, 33, 0.2, rng)); err != nil {
			t.Fatal(err)
		}
		idxs := make([]uint32, 33)
		for i := range idxs {
			idxs[i] = uint32(i)
		}
		assertVectorsEqual(t, rs.GatherChunk(0, 33), gatherReference(rs, idxs))
	}
}
