package row

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"math"
	"math/rand"
	"testing"

	"rowsort/internal/vector"
)

// refAppendChunk is AppendChunk as it was before the typed kernels: the new
// rows cleared, every row's mask copied in, then one pass per column that
// asks Valid of every value. It is kept here as the oracle the scatter must
// match byte for byte.
func refAppendChunk(rs *RowSet, vecs []*vector.Vector) {
	n := vecs[0].Len()
	w := rs.layout.width
	start := rs.n
	rs.data = extendBytes(rs.data, n*w)
	clear(rs.data[start*w:])
	for r := 0; r < n; r++ {
		copy(rs.Row(start+r), rs.layout.maskInit)
	}
	rs.n += n
	for c, v := range vecs {
		refScatterColumn(rs, c, v, start)
	}
}

// refSetNull marks column c of the row NULL.
func refSetNull(row []byte, c int) { row[c>>3] &^= 1 << (uint(c) & 7) }

// refScatterColumn writes column c of n rows starting at row index start.
func refScatterColumn(rs *RowSet, c int, v *vector.Vector, start int) {
	l := rs.layout
	off := l.offsets[c]
	n := v.Len()
	switch v.Type() {
	case vector.Bool:
		vals := v.Bools()
		for r := 0; r < n; r++ {
			row := rs.Row(start + r)
			if !v.Valid(r) {
				refSetNull(row, c)
				continue
			}
			if vals[r] {
				row[off] = 1
			} else {
				row[off] = 0
			}
		}
	case vector.Int8:
		vals := v.Int8s()
		for r := 0; r < n; r++ {
			row := rs.Row(start + r)
			if !v.Valid(r) {
				refSetNull(row, c)
				continue
			}
			row[off] = byte(vals[r])
		}
	case vector.Uint8:
		vals := v.Uint8s()
		for r := 0; r < n; r++ {
			row := rs.Row(start + r)
			if !v.Valid(r) {
				refSetNull(row, c)
				continue
			}
			row[off] = vals[r]
		}
	case vector.Int16:
		vals := v.Int16s()
		for r := 0; r < n; r++ {
			row := rs.Row(start + r)
			if !v.Valid(r) {
				refSetNull(row, c)
				continue
			}
			binary.LittleEndian.PutUint16(row[off:], uint16(vals[r]))
		}
	case vector.Uint16:
		vals := v.Uint16s()
		for r := 0; r < n; r++ {
			row := rs.Row(start + r)
			if !v.Valid(r) {
				refSetNull(row, c)
				continue
			}
			binary.LittleEndian.PutUint16(row[off:], vals[r])
		}
	case vector.Int32:
		vals := v.Int32s()
		for r := 0; r < n; r++ {
			row := rs.Row(start + r)
			if !v.Valid(r) {
				refSetNull(row, c)
				continue
			}
			binary.LittleEndian.PutUint32(row[off:], uint32(vals[r]))
		}
	case vector.Uint32:
		vals := v.Uint32s()
		for r := 0; r < n; r++ {
			row := rs.Row(start + r)
			if !v.Valid(r) {
				refSetNull(row, c)
				continue
			}
			binary.LittleEndian.PutUint32(row[off:], vals[r])
		}
	case vector.Int64:
		vals := v.Int64s()
		for r := 0; r < n; r++ {
			row := rs.Row(start + r)
			if !v.Valid(r) {
				refSetNull(row, c)
				continue
			}
			binary.LittleEndian.PutUint64(row[off:], uint64(vals[r]))
		}
	case vector.Uint64:
		vals := v.Uint64s()
		for r := 0; r < n; r++ {
			row := rs.Row(start + r)
			if !v.Valid(r) {
				refSetNull(row, c)
				continue
			}
			binary.LittleEndian.PutUint64(row[off:], vals[r])
		}
	case vector.Float32:
		vals := v.Float32s()
		for r := 0; r < n; r++ {
			row := rs.Row(start + r)
			if !v.Valid(r) {
				refSetNull(row, c)
				continue
			}
			binary.LittleEndian.PutUint32(row[off:], math.Float32bits(vals[r]))
		}
	case vector.Float64:
		vals := v.Float64s()
		for r := 0; r < n; r++ {
			row := rs.Row(start + r)
			if !v.Valid(r) {
				refSetNull(row, c)
				continue
			}
			binary.LittleEndian.PutUint64(row[off:], math.Float64bits(vals[r]))
		}
	case vector.Varchar:
		vals := v.Strings()
		total := 0
		for r := 0; r < n; r++ {
			if v.Valid(r) {
				total += len(vals[r])
			}
		}
		rs.heap = reserveBytes(rs.heap, total)
		for r := 0; r < n; r++ {
			row := rs.Row(start + r)
			if !v.Valid(r) {
				refSetNull(row, c)
				continue
			}
			s := vals[r]
			binary.LittleEndian.PutUint32(row[off:], uint32(len(rs.heap)))
			binary.LittleEndian.PutUint32(row[off+4:], uint32(len(s)))
			rs.heap = append(rs.heap, s...)
		}
	}
}

// refAppendRowsGather is the payload reorder as it was: the rows copied, then
// each varchar column's strings compacted into the heap, column after column,
// through a closure naming each row's source and append. Row o comes from
// srcs[which[o]], or srcs[0] when which is nil. It is the oracle the reorder
// must match byte for byte; per-row AppendRowFrom orders the heap row after
// row instead, which agrees with it only with one varchar column.
func refAppendRowsGather(rs *RowSet, srcs []*RowSet, which, idxs []uint32) {
	w := rs.layout.width
	base := rs.n
	rs.data = extendBytes(rs.data, len(idxs)*w)
	dst := rs.data[base*w:]
	srcAt := func(o int) *RowSet {
		if which == nil {
			return srcs[0]
		}
		return srcs[which[o]]
	}
	for o, i := range idxs {
		copy(dst[o*w:(o+1)*w], srcAt(o).data[int(i)*w:int(i)*w+w])
	}
	rs.n += len(idxs)
	l := rs.layout
	for c, t := range l.types {
		if t != vector.Varchar {
			continue
		}
		off := l.offsets[c]
		total := 0
		for o := range idxs {
			rowb := rs.Row(base + o)
			if l.valid(rowb, c) {
				total += int(binary.LittleEndian.Uint32(rowb[off+4:]))
			}
		}
		rs.heap = reserveBytes(rs.heap, total)
		for o := range idxs {
			rowb := rs.Row(base + o)
			if !l.valid(rowb, c) {
				continue
			}
			so := binary.LittleEndian.Uint32(rowb[off:])
			hl := binary.LittleEndian.Uint32(rowb[off+4:])
			binary.LittleEndian.PutUint32(rowb[off:], uint32(len(rs.heap)))
			rs.heap = append(rs.heap, srcAt(o).heap[so:so+hl]...)
		}
	}
}

// kernelLayout is one row shape of the differential grid.
type kernelLayout struct {
	name   string
	layout *Layout
}

// kernelLayouts returns the row shapes column type typ is checked in: alone;
// beside one varchar column and between two; packed (align 1: rows under a
// word, so the mask is read a byte at a time); 32-byte aligned, where tail
// padding outgrows a word; in a 70-column row, whose 9-byte mask has no word
// form either; and at each stride a row mover unrolls (16, 24, 32 and 40
// bytes).
func kernelLayouts(typ vector.Type) []kernelLayout {
	wide := make([]vector.Type, 70)
	for c := range wide {
		wide[c] = allTypes[c%len(allTypes)]
		if c%3 == 0 {
			wide[c] = typ
		}
	}
	kls := []kernelLayout{
		{"alone", NewLayout([]vector.Type{typ})},
		{"one-string", NewLayout([]vector.Type{typ, vector.Varchar})},
		{"two-strings", NewLayout([]vector.Type{vector.Varchar, typ, vector.Uint16, vector.Varchar})},
		{"packed", NewLayoutAligned([]vector.Type{vector.Int8, typ}, 1)},
		{"align32", NewLayoutAligned([]vector.Type{vector.Int64, typ, vector.Int8}, 32)},
		{"70-columns", NewLayout(wide)},
	}
	for _, w := range []int{16, 24, 32, 40} {
		kls = append(kls, kernelLayout{fmt.Sprintf("stride%d", w), strideLayout(typ, w)})
	}
	return kls
}

// strideLayout returns a layout of exactly w bytes a row: typ, then 8-byte
// columns — a string first — until the row is w wide. Each one widens the
// row by exactly a word, so w is reached, not passed.
func strideLayout(typ vector.Type, w int) *Layout {
	types := []vector.Type{typ}
	for pad := vector.Varchar; NewLayout(types).width < w; pad = vector.Int64 {
		types = append(types, pad)
	}
	l := NewLayout(types)
	if l.width != w {
		panic(fmt.Sprintf("row: %v padded to a %d-byte row, want %d", types, l.width, w))
	}
	return l
}

// nullShapes are the validity layouts a vector can arrive with.
var nullShapes = []string{"nil-bitmap", "none", "some", "all"}

// kernelChunk builds n rows of random values for types with every column's
// NULLs laid out as shape says. A NULL row keeps a random value in its slot —
// a string too, which must not reach the heap.
func kernelChunk(types []vector.Type, n int, shape string, rng *rand.Rand) []*vector.Vector {
	vecs := buildRandomChunk(types, n, 0, rng)
	for _, v := range vecs {
		switch shape {
		case "none":
			v.SetNull(0)
			v.Validity().SetValid(0)
		case "some":
			for i := 0; i < n; i++ {
				if rng.Intn(4) == 0 {
					v.SetNull(i)
				}
			}
		case "all":
			for i := 0; i < n; i++ {
				v.SetNull(i)
			}
		}
	}
	return vecs
}

// poisonedSet returns an empty set of layout l whose buffers' spare capacity,
// rows rows and heap bytes of heap, reads 0xEE: what a recycled set holds.
func poisonedSet(l *Layout, rows, heap int) *RowSet {
	rs := NewRowSet(l)
	rs.data = bytes.Repeat([]byte{0xEE}, rows*l.width)[:0]
	rs.heap = bytes.Repeat([]byte{0xEE}, heap)[:0]
	return rs
}

// sameSet fails unless got and want hold the same rows and heap, byte for
// byte.
func sameSet(t *testing.T, ctx string, got, want *RowSet) {
	t.Helper()
	if got.n != want.n {
		t.Fatalf("%s: %d rows, reference %d", ctx, got.n, want.n)
	}
	w := want.layout.width
	for r := 0; r < want.n; r++ {
		if g, x := got.data[r*w:(r+1)*w], want.data[r*w:(r+1)*w]; !bytes.Equal(g, x) {
			t.Fatalf("%s: row %d:\n got %x\nwant %x", ctx, r, g, x)
		}
	}
	if len(got.data) != len(want.data) || !bytes.Equal(got.heap, want.heap) {
		t.Fatalf("%s: %d row bytes and a %d-byte heap, reference %d and %d (or the heaps differ)",
			ctx, len(got.data), len(got.heap), len(want.data), len(want.heap))
	}
}

// rawValue returns row i of v as stored, NULL or not.
func rawValue(v *vector.Vector, i int) any {
	switch v.Type() {
	case vector.Bool:
		return v.Bools()[i]
	case vector.Int8:
		return v.Int8s()[i]
	case vector.Uint8:
		return v.Uint8s()[i]
	case vector.Int16:
		return v.Int16s()[i]
	case vector.Uint16:
		return v.Uint16s()[i]
	case vector.Int32:
		return v.Int32s()[i]
	case vector.Uint32:
		return v.Uint32s()[i]
	case vector.Int64:
		return v.Int64s()[i]
	case vector.Uint64:
		return v.Uint64s()[i]
	case vector.Float32:
		return math.Float32bits(v.Float32s()[i])
	case vector.Float64:
		return math.Float64bits(v.Float64s()[i])
	}
	return v.Strings()[i]
}

// sameVectors fails unless got and want agree row for row on validity and on
// the stored value, a NULL row's included.
func sameVectors(t *testing.T, ctx string, got, want []*vector.Vector) {
	t.Helper()
	for c := range want {
		if got[c].Len() != want[c].Len() {
			t.Fatalf("%s: col %d: %d rows, reference %d", ctx, c, got[c].Len(), want[c].Len())
		}
		for r := 0; r < want[c].Len(); r++ {
			if got[c].Valid(r) != want[c].Valid(r) || rawValue(got[c], r) != rawValue(want[c], r) {
				t.Fatalf("%s: col %d (%v) row %d: valid=%v %v, reference valid=%v %v", ctx, c, want[c].Type(), r,
					got[c].Valid(r), rawValue(got[c], r), want[c].Valid(r), rawValue(want[c], r))
			}
		}
	}
}

// refGather gathers row idxs[o] of sets[which[o]] (of sets[0] when which is
// nil) value-at-a-time through AppendTo, the reference of every shape.
func refGather(l *Layout, sets []*RowSet, which, idxs []uint32) []*vector.Vector {
	out := make([]*vector.Vector, l.NumColumns())
	for c, t := range l.Types() {
		out[c] = vector.New(t, len(idxs))
		for o, i := range idxs {
			src := sets[0]
			if which != nil {
				src = sets[which[o]]
			}
			src.AppendTo(out[c], int(i), c)
		}
	}
	return out
}

// TestRowKernelsMatchReference runs the scatter, the reorder and the three
// gather shapes against the references above over type × row shape × NULL
// layout. The sets written into start poisoned, as recycled ones are, and
// already hold rows, so every byte of a new row and of its heap — padding
// and NULL slots included — must be written, and written where the
// reference writes it.
func TestRowKernelsMatchReference(t *testing.T) {
	rng := rand.New(rand.NewSource(26))
	const n = 150 // three validity words, the last one partial
	cells := 0
	for _, typ := range allTypes {
		for _, kl := range kernelLayouts(typ) {
			l, types := kl.layout, kl.layout.Types()
			heapCap := 8 * n * 20 * len(l.strCols)
			for _, shape := range nullShapes {
				ctx := fmt.Sprintf("%v %s nulls=%s", typ, kl.name, shape)

				// Scatter: two chunks, the second behind the first.
				chunks := [][]*vector.Vector{kernelChunk(types, n, shape, rng), kernelChunk(types, n/3, "some", rng)}
				got, want := poisonedSet(l, 8*n, heapCap), NewRowSet(l)
				for _, chunk := range chunks {
					if err := got.AppendChunk(chunk); err != nil {
						t.Fatalf("%s: %v", ctx, err)
					}
					refAppendChunk(want, chunk)
				}
				sameSet(t, ctx+": scatter", got, want)

				// Reorder: a permutation with repeats out of one set, then
				// references across three, behind rows already there.
				srcs := []*RowSet{want, NewRowSet(l), nil, NewRowSet(l)}
				refAppendChunk(srcs[1], kernelChunk(types, n, shape, rng))
				refAppendChunk(srcs[3], kernelChunk(types, n, "some", rng))
				idxs := make([]uint32, 2*n)
				which := make([]uint32, len(idxs))
				for o := range idxs {
					idxs[o], which[o] = uint32(rng.Intn(n)), []uint32{0, 1, 3}[rng.Intn(3)]
				}
				prefix := kernelChunk(types, 5, "some", rng)
				got, ref := poisonedSet(l, 8*n, 2*heapCap), NewRowSet(l)
				if err := got.AppendChunk(prefix); err != nil {
					t.Fatalf("%s: %v", ctx, err)
				}
				refAppendChunk(ref, prefix)
				got.AppendRowsGather(srcs, nil, idxs)
				refAppendRowsGather(ref, srcs, nil, idxs)
				sameSet(t, ctx+": AppendRowsGather out of one set", got, ref)
				got.AppendRowsGather(srcs, which, idxs)
				refAppendRowsGather(ref, srcs, which, idxs)
				sameSet(t, ctx+": AppendRowsGather", got, ref)
				perm := make([]uint32, want.Len())
				for o, p := range rng.Perm(len(perm)) {
					perm[o] = uint32(p)
				}
				got.AppendPermuted(want, perm)
				refAppendRowsGather(ref, srcs, nil, perm)
				sameSet(t, ctx+": AppendPermuted", got, ref)
				if len(l.strCols) <= 1 {
					single := NewRowSet(l)
					for _, i := range idxs {
						single.AppendRowFrom(want, int(i))
					}
					batch := NewRowSet(l)
					batch.AppendRowsGather(srcs, nil, idxs)
					sameSet(t, ctx+": AppendRowsGather against AppendRowFrom", batch, single)
				}

				// Gather: a range, an index list and references across sets.
				all := make([]uint32, want.Len())
				for i := range all {
					all[i] = uint32(i)
				}
				g := NewGather(l)
				g.Range(want, 0, want.Len())
				sameVectors(t, ctx+": Range", g.Vectors(), refGather(l, srcs, nil, all))
				g.Range(want, 7, 100)
				sameVectors(t, ctx+": Range from 7", g.Vectors(), refGather(l, srcs, nil, all[7:107]))
				g.Index(want, idxs)
				sameVectors(t, ctx+": Index", g.Vectors(), refGather(l, srcs, nil, idxs))
				g.Refs(srcs, which, idxs)
				sameVectors(t, ctx+": Refs", g.Vectors(), refGather(l, srcs, which, idxs))
				g.Index(want, nil)
				sameVectors(t, ctx+": no rows", g.Vectors(), refGather(l, srcs, nil, nil))
				cells++
			}
		}
	}
	t.Logf("%d cells", cells)
}

// pinTables returns the two benchmark payload shapes, n rows each: the wide
// row, with no NULL, and the customer row, with NULLs in three columns and
// two varchar columns.
func pinTables(n int) map[string]*vector.Table {
	return map[string]*vector.Table{"wide": wideTable(n), "customer": customerTable(n)}
}

// TestScatterAllocatesNothing pins the scatter into a set with room, as a
// sink's pending set has after its first chunk, at zero allocations, NULL
// patching and string copying included.
func TestScatterAllocatesNothing(t *testing.T) {
	for name, tbl := range pinTables(3 * vector.DefaultVectorSize) {
		rs := NewRowSet(NewLayout(tbl.Schema.Types()))
		fill := func() {
			rs.Reset()
			for _, c := range tbl.Chunks {
				if err := rs.AppendChunk(c.Vectors); err != nil {
					t.Fatal(err)
				}
			}
		}
		if allocs := testing.AllocsPerRun(10, fill); allocs != 0 {
			t.Errorf("%s: AppendChunk allocated %.0f times per run", name, allocs)
		}
	}
}

// TestReorderAllocatesNothing pins the three reorders into a set with room
// at zero allocations: rows named out of one set, a run's payload permuted
// out of one, and a spill block's gathered from several.
func TestReorderAllocatesNothing(t *testing.T) {
	rng := rand.New(rand.NewSource(27))
	for name, tbl := range pinTables(3 * vector.DefaultVectorSize) {
		l := NewLayout(tbl.Schema.Types())
		srcs := make([]*RowSet, len(tbl.Chunks))
		for i, c := range tbl.Chunks {
			srcs[i] = NewRowSet(l)
			if err := srcs[i].AppendChunk(c.Vectors); err != nil {
				t.Fatal(err)
			}
		}
		n := srcs[0].Len()
		perm := make([]uint32, n)
		which := make([]uint32, n)
		for o, p := range rng.Perm(n) {
			perm[o], which[o] = uint32(p), uint32(rng.Intn(len(srcs)))
		}
		dst := NewRowSet(l)
		if allocs := testing.AllocsPerRun(10, func() {
			dst.Reset()
			dst.AppendRowsGather(srcs[:1], nil, perm)
			dst.AppendPermuted(srcs[0], perm)
			dst.AppendRowsGather(srcs, which, perm)
		}); allocs != 0 {
			t.Errorf("%s: the reorder allocated %.0f times per run", name, allocs)
		}
	}
}

// TestGatherAllocatesOnlyOutput pins a reused Gather, in each shape, at the
// vectors it returns — the slice of them, a Vector and its values per column
// — and one backing string per varchar column.
func TestGatherAllocatesOnlyOutput(t *testing.T) {
	rng := rand.New(rand.NewSource(28))
	tbl := wideTable(vector.DefaultVectorSize)
	l := NewLayout(tbl.Schema.Types())
	rs := NewRowSet(l)
	if err := rs.AppendChunk(tbl.Chunks[0].Vectors); err != nil {
		t.Fatal(err)
	}
	n := rs.Len()
	idxs := make([]uint32, n)
	which := make([]uint32, n)
	for o, p := range rng.Perm(n) {
		idxs[o] = uint32(p)
	}
	sets := []*RowSet{nil, rs}
	for o := range which {
		which[o] = 1
	}
	want := float64(1 + 2*l.NumColumns() + len(l.strCols))
	g := NewGather(l)
	for shape, resolve := range map[string]func(){
		"range": func() { g.Range(rs, 0, n) },
		"index": func() { g.Index(rs, idxs) },
		"refs":  func() { g.Refs(sets, which, idxs) },
	} {
		if allocs := testing.AllocsPerRun(10, func() {
			resolve()
			_ = g.Vectors()
		}); allocs != want {
			t.Errorf("%s: %.0f allocations per chunk of %d rows, want %.0f", shape, allocs, n, want)
		}
	}
}
