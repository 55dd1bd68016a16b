package row

import (
	"bytes"
	"fmt"
	"math/rand"
	"slices"
	"testing"
	"unsafe"

	"rowsort/internal/normkey"
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
	g.Refs(sets, which, idxs, nil)
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

// TestReorderStringBoundaries pins the reorder's word moves of strings, and
// of overflow records, at the lengths either side of 16 and 32 bytes, where a
// move of two or four words ends: a string in its slot's heap bytes, and, in
// a keyed layout whose string column has no slot, a record of one length word
// and the string. A source's first and last rows hold the length under test,
// so the last row's string ends the source heap. A list in order puts that
// string last in the destination heap too; the other lists end with the first
// row, whose string ends the destination heap but has room behind it in the
// source, and hold the last row earlier: each heap's room is tested on its
// own. In the keyed layout the middle third of a source's rows leave their
// strings in their keys (rows with no record amid the others), and the
// records around them keep the edges. Row and heap bytes must equal per-row
// AppendRowFrom's (one varchar column, so the two heap orders agree), for
// permutations through both reorders and for a list with repeats and gaps
// through AppendRowsGather, out of one set and out of two, whose summing pass
// must count no string its key holds.
func TestReorderStringBoundaries(t *testing.T) {
	plain := NewLayout([]vector.Type{vector.Int64, vector.Varchar})
	// A key row of two bytes, the second a residence byte saying the
	// string lies in the key (its bytes are not read here).
	keyed := plain.WithKeySegments([]KeySegment{{}, {Off: 0, Prefix: 1}})
	for _, layout := range []*Layout{plain, keyed} {
		reorderBoundaries(t, layout)
	}
}

// reorderBoundaries is TestReorderStringBoundaries in one layout.
func reorderBoundaries(t *testing.T, layout *Layout) {
	hdr := 0 // the bytes a moved string carries besides its own
	if layout.strCols == nil {
		hdr = lenBytes
	}
	lengths := []int{15 - hdr, 16 - hdr, 17 - hdr, 31 - hdr, 32 - hdr, 33 - hdr}
	const n = 4 * 6
	rng := rand.New(rand.NewSource(46))
	inKey := make([]byte, 2*n/3)
	source := func(edge int) *RowSet {
		rs := NewRowSet(layout)
		for third := 0; third < 3; third++ {
			ints, strs := vector.New(vector.Int64, n/3), vector.New(vector.Varchar, n/3)
			for r := third * n / 3; r < (third+1)*n/3; r++ {
				b := make([]byte, lengths[r%len(lengths)])
				if r == 0 || r == n-1 {
					b = make([]byte, edge)
				}
				rng.Read(b)
				ints.AppendInt64(int64(r))
				strs.AppendString(string(b))
			}
			keyed := inKey
			if third != 1 || hdr == 0 {
				keyed = nil
			}
			if err := rs.AppendChunkKeyed(n/3, []*vector.Vector{ints, strs}, keyed, 2); err != nil {
				t.Fatal(err)
			}
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
			ctx := fmt.Sprintf("edge strings of %d bytes and %d more, %s", edge, hdr, tc.name)
			want := NewRowSet(layout)
			for _, i := range tc.idxs {
				want.AppendRowFrom(srcs[0], int(i))
			}
			got := NewRowSet(layout)
			got.AppendRowsGather(srcs, nil, tc.idxs)
			sameSet(t, ctx+": AppendRowsGather out of one set", got, want)
			heapSummedExactly(t, ctx+": AppendRowsGather out of one set", got)
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
			heapSummedExactly(t, ctx+": AppendRowsGather", got)
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

// TestGatherReadsHeldStringsFromKeys scatters chunks whose key strings are
// encoded by a real normkey.Encoder — a column keyed at the default 12-byte
// prefix and one at 4 — leaving in the keys, as the sorter does, each that
// its segment's residence byte says fits the prefix: empty strings, strings
// exactly a prefix long and NULLs, and in the same chunks a heap-only column
// and key strings that overflowed or held a NUL. The held strings take no
// heap byte, and a row whose key strings are all held no overflow record, in
// rows of 24 bytes with no slot for a keyed column. The rows are then permuted and gathered by
// references across both sets, with their key rows, and must come back as the
// input's values. A gather of the keyed layout without key rows must panic
// rather than read a held string's empty slot.
func TestGatherReadsHeldStringsFromKeys(t *testing.T) {
	types := []vector.Type{vector.Varchar, vector.Int64, vector.Varchar, vector.Varchar}
	keys := []normkey.SortKey{{Column: 0, Type: vector.Varchar}, {Column: 2, Type: vector.Varchar, PrefixLen: 4}}
	enc, err := normkey.NewEncoder(keys)
	if err != nil {
		t.Fatal(err)
	}
	segs := []KeySegment{{Off: enc.Offset(0) + 1, Prefix: 12}, {}, {Off: enc.Offset(1) + 1, Prefix: 4}, {}}
	layout := NewLayout(types).WithKeySegments(segs)
	str := func(vals ...any) *vector.Vector {
		v := vector.New(vector.Varchar, len(vals))
		for _, x := range vals {
			if x == nil {
				v.AppendNull()
			} else {
				v.AppendString(x.(string))
			}
		}
		return v
	}
	chunks := [][]*vector.Vector{
		// Every key string fits: both columns stay in the keys.
		{str("", "abcdefghijkl", nil, "x"), nil, str("", "abcd", nil, "z"), str("h0", "", nil, "heap string of 26 bytes..")},
		// Column 0 overflows its prefix in one row: that string goes to the heap.
		{str("abcdefghijklm", "b", "", nil), nil, str("abc", nil, "", "wxyz"), str(nil, "h1", "h2", "h3")},
		// Column 2 holds a NUL in one row: that string goes to the heap.
		{str("c", nil, "abcdefghijkl", ""), nil, str("a\x00", "b", nil, ""), str("h4", "h5", "h6", "h7")},
	}
	var want [][]any // the input's values, row by row
	var keyRows [][]byte
	rs := NewRowSet(layout)
	for ci, chunk := range chunks {
		ints := vector.New(vector.Int64, 4)
		for r := 0; r < 4; r++ {
			ints.AppendInt64(int64(10*ci + r))
		}
		chunk[1] = ints
		rw := enc.Width() + 8
		kb := make([]byte, 4*rw)
		if _, err := enc.EncodeChunk([]*vector.Vector{chunk[0], chunk[2]}, kb, rw, 0); err != nil {
			t.Fatal(err)
		}
		if err := rs.AppendChunkKeyed(4, chunk, kb, rw); err != nil {
			t.Fatal(err)
		}
		for r := 0; r < 4; r++ {
			keyRows = append(keyRows, kb[r*rw:(r+1)*rw])
			row := make([]any, len(types))
			for c, v := range chunk {
				row[c] = v.Value(r)
			}
			want = append(want, row)
		}
	}
	heapBytes, held, records := 0, 0, 0
	for i, row := range want {
		overflows := false
		for c, v := range row {
			s, ok := v.(string)
			switch {
			case !ok:
			case segs[c].Prefix > 0 && normkey.FitsPrefix(s, segs[c].Prefix):
				held++
				if got := rs.StringBytes(i, c); len(got) != 0 {
					t.Errorf("row %d column %d: %q fits its key, yet its record holds %q", i, c, s, got)
				}
			default:
				heapBytes += len(s)
				overflows = overflows || segs[c].Prefix > 0
				if got := rs.StringBytes(i, c); string(got) != s {
					t.Errorf("row %d column %d: StringBytes %q, want %q", i, c, got, s)
				}
			}
		}
		if overflows {
			records++
		}
	}
	// Chunk 0 leaves six strings in its keys, chunk 1 five and chunk 2 five;
	// one row of each of chunks 1 and 2 has an overflow record, whose two
	// length words take 8 bytes.
	if heapBytes += 8 * records; held != 16 || records != 2 || rs.HeapLen() != heapBytes {
		t.Fatalf("%d strings left in the keys, %d overflow records and a %d-byte heap, want 16, 2 and the other strings' bytes and the records' length words, %d",
			held, records, rs.HeapLen(), heapBytes)
	}
	if w := layout.Width(); w != 24 {
		t.Errorf("rows of %d bytes, want 24: a mask byte, a string slot, an Int64 and the overflow reference", w)
	}

	// Permute into a second set, then gather references across both.
	perm := []uint32{11, 0, 5, 7, 2, 9, 1, 10, 3, 8, 4, 6}
	permuted := NewRowSet(layout)
	permuted.AppendPermuted(rs, perm)
	if permuted.HeapLen() != heapBytes {
		t.Fatalf("the permuted set's heap holds %d bytes, want %d", permuted.HeapLen(), heapBytes)
	}
	rng := rand.New(rand.NewSource(47))
	var which, idxs []uint32
	var refKeys [][]byte
	var wantRows [][]any
	for o := 0; o < 40; o++ {
		i := uint32(rng.Intn(len(want)))
		src := i
		if o%2 == 1 {
			src = perm[i]
		}
		which, idxs = append(which, uint32(o%2)), append(idxs, i)
		refKeys, wantRows = append(refKeys, keyRows[src]), append(wantRows, want[src])
	}
	sets := []*RowSet{rs, permuted}
	g := NewGather(layout)
	g.Refs(sets, which, idxs, refKeys)
	got := g.Vectors()
	for o, row := range wantRows {
		for c, v := range row {
			if got[c].Value(o) != v {
				t.Fatalf("row %d (set %d, row %d) column %d: gathered %q, want %q", o, which[o], idxs[o], c, got[c].Value(o), v)
			}
		}
	}

	mustPanic := func(what string, f func()) {
		t.Helper()
		defer func() {
			if recover() == nil {
				t.Errorf("%s gathered strings that may lie in their keys without the key rows", what)
			}
		}()
		f()
	}
	mustPanic("Range", func() { g.Range(rs, 0, 4); g.Vectors() })
	mustPanic("Index", func() { g.Index(permuted, perm); g.Vectors() })
	mustPanic("Refs without keys", func() { g.Refs(sets, which, idxs, nil); g.Vectors() })
}

// TestGatherSharesEqualHeldStrings pins the gather's sharing of strings
// their keys hold: an output row whose held string's segment, validity byte
// through last prefix byte, equals the previous output row's held one takes
// that row's string, bytes and all, and no builder byte. Under both NULL
// placements, "smith" twice, NULL twice and "" twice side by side share; a
// NULL next to "" does not (their validity bytes differ), nor a held "smith"
// after an overflowing name, nor "jones" after "smith". Every value still
// reads as its input.
func TestGatherSharesEqualHeldStrings(t *testing.T) {
	vals := []any{"smith", "smith", nil, nil, "", "", "a-name-past-the-prefix", "smith", "smith", "jones"}
	shares := []bool{false, true, false, true, false, true, false, false, true, false}
	for _, nulls := range []normkey.NullOrder{normkey.NullsFirst, normkey.NullsLast} {
		enc, err := normkey.NewEncoder([]normkey.SortKey{{Column: 0, Type: vector.Varchar, Nulls: nulls}})
		if err != nil {
			t.Fatal(err)
		}
		layout := NewLayout([]vector.Type{vector.Varchar}).WithKeySegments([]KeySegment{{Off: enc.Offset(0) + 1, Prefix: 12}})
		v := vector.New(vector.Varchar, len(vals))
		for _, x := range vals {
			if x == nil {
				v.AppendNull()
				continue
			}
			v.AppendString(x.(string))
		}
		rw := enc.Width() + 8
		kb := make([]byte, len(vals)*rw)
		if _, err := enc.EncodeChunk([]*vector.Vector{v}, kb, rw, 0); err != nil {
			t.Fatal(err)
		}
		rs := NewRowSet(layout)
		if err := rs.AppendChunkKeyed(len(vals), []*vector.Vector{v}, kb, rw); err != nil {
			t.Fatal(err)
		}
		idxs, which, keys := make([]uint32, len(vals)), make([]uint32, len(vals)), make([][]byte, len(vals))
		for i := range vals {
			idxs[i], keys[i] = uint32(i), kb[i*rw:(i+1)*rw]
		}
		g := NewGather(layout)
		g.Refs([]*RowSet{rs}, which, idxs, keys)
		got := g.Vectors()[0]
		strs := got.Strings()
		for o, x := range vals {
			if got.Value(o) != x {
				t.Fatalf("%v: row %d gathered %v, want %v", nulls, o, got.Value(o), x)
			}
			if shared := g.lens[o] == sameAsPrev; shared != shares[o] {
				t.Errorf("%v: row %d (%v after %v) shared the previous row's string: %v, want %v", nulls, o, x, vals[max(o-1, 0)], shared, shares[o])
			}
			if s := strs[o]; shares[o] && len(s) > 0 && unsafe.StringData(s) != unsafe.StringData(strs[o-1]) {
				t.Errorf("%v: row %d's %q does not share the previous row's bytes", nulls, o, s)
			}
		}
		// The builder took only the unshared strings' bytes: "smith", "",
		// the overflowing name and "smith" lie ahead of "jones".
		ahead := uintptr(unsafe.Pointer(unsafe.StringData(strs[9]))) - uintptr(unsafe.Pointer(unsafe.StringData(strs[0])))
		if want := uintptr(5 + len(vals[6].(string)) + 5); ahead != want {
			t.Errorf("%v: the builder holds %d bytes ahead of the last string, want %d", nulls, ahead, want)
		}
	}
}

// TestHeldLenFindsTheFirstZeroByte checks the word-at-a-time length of a held
// string against bytes.IndexByte, for every prefix up to 16 bytes and every
// length that fits it, each string of random non-zero bytes (0x01 and 0x80,
// the bytes the zero test borrows through, among them) followed by its zero
// padding, the residence byte and non-zero bytes beyond.
func TestHeldLenFindsTheFirstZeroByte(t *testing.T) {
	rng := rand.New(rand.NewSource(48))
	for prefix := 1; prefix <= 16; prefix++ {
		for n := 0; n <= prefix; n++ {
			for trial := 0; trial < 20; trial++ {
				key := make([]byte, 24)
				for i := range key {
					key[i] = []byte{0x01, 0x80, 0xFF, byte(1 + rng.Intn(255))}[rng.Intn(4)]
				}
				clear(key[n : prefix+1])
				if got := heldLen(key); int(got) != n || n != bytes.IndexByte(key, 0) {
					t.Fatalf("prefix %d: heldLen(% x) = %d, want %d", prefix, key, got, n)
				}
			}
		}
	}
}
