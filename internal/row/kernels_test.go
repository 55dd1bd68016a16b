package row

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"math"
	"math/rand"
	"strings"
	"testing"

	"rowsort/internal/normkey"
	"rowsort/internal/vector"
)

// refAppendChunk is AppendChunk as it was before the typed kernels: the new
// rows cleared, every row's mask copied in, then one pass per column that
// asks Valid of every value, and last each row's overflow record built on its
// own. It is kept here as the oracle the scatter must match byte for byte;
// keys, when not nil, are the chunk's key rows, as AppendChunkKeyed takes
// them: a string whose key segment's residence byte is 0 takes no heap byte.
func refAppendChunk(rs *RowSet, vecs []*vector.Vector, keys [][]byte) {
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
	refAppendRecords(rs, vecs, start, keys)
}

// keySegment returns column c's key segment: the zero KeySegment for none.
func (l *Layout) keySegment(c int) KeySegment {
	if l.keySegs == nil {
		return KeySegment{}
	}
	return l.keySegs[c]
}

// refAppendRecords writes the overflow reference of the rows from start on,
// one per row of vecs, and appends the record of each whose slotless columns
// hold a string that overflows: one its key row, keys[r], does not hold —
// every non-NULL one when keys is nil — a length each column, 0 for the
// others, then the strings.
func refAppendRecords(rs *RowSet, vecs []*vector.Vector, start int, keys [][]byte) {
	l := rs.layout
	if len(l.segCols) == 0 {
		return
	}
	for r := 0; r < vecs[0].Len(); r++ {
		var lens, body []byte
		for _, c := range l.segCols {
			seg, s := l.keySegment(c), ""
			if vecs[c].Valid(r) && (keys == nil || keys[r][seg.Off+seg.Prefix] != 0) {
				s = vecs[c].Strings()[r]
			}
			lens, body = binary.LittleEndian.AppendUint32(lens, uint32(len(s))), append(body, s...)
		}
		row := rs.Row(start + r)
		if len(body) == 0 {
			binary.LittleEndian.PutUint32(row[l.refOff:], noRecord)
			continue
		}
		binary.LittleEndian.PutUint32(row[l.refOff:], uint32(len(rs.heap)))
		rs.heap = append(append(rs.heap, lens...), body...)
	}
}

// refSetNull marks column c of the row NULL.
func refSetNull(row []byte, c int) { row[c>>3] &^= 1 << (uint(c) & 7) }

// refScatterColumn writes column c of n rows starting at row index start: of
// a slotless column, only its NULLs.
func refScatterColumn(rs *RowSet, c int, v *vector.Vector, start int) {
	l := rs.layout
	off := l.offsets[c]
	n := v.Len()
	if off < 0 {
		for r := 0; r < n; r++ {
			if !v.Valid(r) {
				refSetNull(rs.Row(start+r), c)
			}
		}
		return
	}
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
			binary.LittleEndian.PutUint32(row[off+4:], uint32(len(s)))
			binary.LittleEndian.PutUint32(row[off:], uint32(len(rs.heap)))
			rs.heap = append(rs.heap, s...)
		}
	}
}

// AppendRowFrom appends row i of src, which must share the layout, copying
// its strings into this set's heap: each slot column's, then its overflow
// record, whole. It is the single-row form of the payload reorder, the
// reference AppendRowsGather matches where the two heap orders agree — with
// one string column, slotted or slotless.
func (rs *RowSet) AppendRowFrom(src *RowSet, i int) {
	rs.data = append(rs.data, src.Row(i)...)
	rs.n++
	dst := rs.Row(rs.n - 1)
	l := rs.layout
	for _, c := range l.strCols {
		if !l.valid(dst, c) {
			continue
		}
		off := l.offsets[c]
		srcOff := binary.LittleEndian.Uint32(dst[off:])
		length := binary.LittleEndian.Uint32(dst[off+4:])
		binary.LittleEndian.PutUint32(dst[off:], uint32(len(rs.heap)))
		rs.heap = append(rs.heap, src.heap[srcOff:srcOff+length]...)
	}
	if len(l.segCols) == 0 {
		return
	}
	if ref := binary.LittleEndian.Uint32(dst[l.refOff:]); ref != noRecord {
		binary.LittleEndian.PutUint32(dst[l.refOff:], uint32(len(rs.heap)))
		rs.heap = append(rs.heap, src.heap[ref:int(ref)+l.recordLen(src.heap[ref:])]...)
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
	for _, c := range l.strCols {
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
	for o := 0; len(l.segCols) > 0 && o < len(idxs); o++ {
		rowb := rs.Row(base + o)
		ref := int(binary.LittleEndian.Uint32(rowb[l.refOff:]))
		if uint32(ref) == noRecord {
			continue
		}
		end, heap := ref+4*len(l.segCols), srcAt(o).heap
		for j := range l.segCols {
			end += int(binary.LittleEndian.Uint32(heap[ref+4*j:]))
		}
		binary.LittleEndian.PutUint32(rowb[l.refOff:], uint32(len(rs.heap)))
		rs.heap = append(rs.heap, heap[ref:end]...)
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
// nil) value-at-a-time through AppendTo, the reference of every shape. A
// string of a column with a key segment whose residence byte in its key row,
// keys[set][row], is 0 is that segment's prefix less its zero padding.
func refGather(l *Layout, sets []*RowSet, which, idxs []uint32, keys [][][]byte) []*vector.Vector {
	out := make([]*vector.Vector, l.NumColumns())
	for c, t := range l.Types() {
		out[c] = vector.New(t, len(idxs))
		seg := l.keySegment(c)
		for o, i := range idxs {
			s := uint32(0)
			if which != nil {
				s = which[o]
			}
			src := sets[s]
			if seg.Prefix > 0 && src.Valid(int(i), c) && keys[s][i][seg.Off+seg.Prefix] == 0 {
				out[c].AppendString(strings.TrimRight(string(keys[s][i][seg.Off:seg.Off+seg.Prefix]), "\x00"))
				continue
			}
			src.AppendTo(out[c], int(i), c)
		}
	}
	return out
}

// testKeySeg is where a test's key rows hold the strings left in them, and
// testKeyPrefix how many bytes of them: the random strings are up to 19 bytes
// long, so some fit and some do not.
const testKeySeg, testKeyPrefix = 3, 8

// testKeyed returns l as the kernel tests key it: its first varchar column's
// strings may lie in their key rows; l itself when it has no string column.
func testKeyed(l *Layout) *Layout {
	if len(l.strCols) == 0 {
		return l
	}
	segs := make([]KeySegment, l.NumColumns())
	segs[l.strCols[0]] = KeySegment{Off: testKeySeg, Prefix: testKeyPrefix}
	return l.WithKeySegments(segs)
}

// testKeyRows returns a key row for each row of the chunk, stride bytes apart
// in flat: column c's value at testKeySeg, zero-padded or cut to
// testKeyPrefix bytes, and its residence byte, between bytes no string holds;
// a NULL's, as an encoder writes it, zero bytes.
func testKeyRows(vecs []*vector.Vector, c int) (flat []byte, rows [][]byte, stride int) {
	stride = testKeySeg + testKeyPrefix + 2
	for r, s := range vecs[c].Strings()[:vecs[c].Len()] {
		key := append(bytes.Repeat([]byte{0xAB}, testKeySeg), make([]byte, testKeyPrefix+2)...)
		if !vecs[c].Valid(r) {
			s = ""
		}
		copy(key[testKeySeg:testKeySeg+testKeyPrefix], s)
		if !normkey.FitsPrefix(s, testKeyPrefix) {
			key[testKeySeg+testKeyPrefix] = 1
		}
		key[stride-1] = 0xCD
		flat = append(flat, key...)
	}
	for o := 0; o < len(flat); o += stride {
		rows = append(rows, flat[o:o+stride])
	}
	return flat, rows, stride
}

// refsKeys returns the key rows of references (which, idxs) into sets whose
// rows have key rows keys[set].
func refsKeys(keys [][][]byte, which, idxs []uint32) [][]byte {
	out := make([][]byte, len(idxs))
	for o, i := range idxs {
		s := uint32(0)
		if which != nil {
			s = which[o]
		}
		out[o] = keys[s][i]
	}
	return out
}

// heapSummedExactly fails unless rs's heap holds no spare byte: a set grown
// from empty by one AppendRowsGather reserves exactly what its summing pass
// counted, so a spare byte is a string counted and not copied — one left in
// its key.
func heapSummedExactly(t *testing.T, ctx string, rs *RowSet) {
	t.Helper()
	if cap(rs.heap) != len(rs.heap) {
		t.Fatalf("%s: the heap reserved %d bytes for %d", ctx, cap(rs.heap), len(rs.heap))
	}
}

// TestRowKernelsMatchReference runs the scatter, the reorder and the three
// gather shapes against the references above over type × row shape × NULL
// layout. The sets written into start poisoned, as recycled ones are, and
// already hold rows, so every byte of a new row and of its heap — padding
// and NULL slots included — must be written, and written where the
// reference writes it. In a row with a string column, the first one's
// strings may lie in their key rows, and some chunks leave those that fit
// there (empty slots beside heap slots, in one set and across sets): the
// reorders must neither sum nor take heap bytes for them, and Refs must read
// them from the key rows it is given.
func TestRowKernelsMatchReference(t *testing.T) {
	rng := rand.New(rand.NewSource(26))
	const n = 150 // three validity words, the last one partial
	cells := 0
	for _, typ := range allTypes {
		for _, kl := range kernelLayouts(typ) {
			l, types := kl.layout, kl.layout.Types()
			lk := testKeyed(l)
			heapCap := 8 * n * 20 * len(l.strCols)
			keyRows := func(vecs []*vector.Vector) (flat []byte, rows [][]byte, stride int) {
				if lk == l {
					return nil, nil, 0
				}
				return testKeyRows(vecs, l.strCols[0])
			}
			for _, shape := range nullShapes {
				ctx := fmt.Sprintf("%v %s nulls=%s", typ, kl.name, shape)

				// Scatter: three chunks, each behind the last; the first two
				// leave the strings that fit in their keys, the last none.
				chunks := [][]*vector.Vector{kernelChunk(types, n, shape, rng), kernelChunk(types, n/2, shape, rng), kernelChunk(types, n/3, "some", rng)}
				got, want, plain := poisonedSet(lk, 8*n, heapCap), NewRowSet(lk), NewRowSet(l)
				var wantKeys [][]byte
				for i, chunk := range chunks {
					flat, rows, stride := keyRows(chunk)
					wantKeys = append(wantKeys, rows...)
					if i == 2 {
						flat, rows = nil, nil
					}
					if err := got.AppendChunkKeyed(chunk[0].Len(), chunk, flat, stride); err != nil {
						t.Fatalf("%s: %v", ctx, err)
					}
					refAppendChunk(want, chunk, rows)
					refAppendChunk(plain, chunk, nil)
				}
				sameSet(t, ctx+": scatter", got, want)

				// Reorder: a permutation with repeats out of one set, then
				// references across three, behind rows already there; the
				// second set leaves its strings in its keys too.
				srcs := []*RowSet{want, NewRowSet(lk), nil, NewRowSet(lk)}
				keyed, heaped := kernelChunk(types, n, shape, rng), kernelChunk(types, n, "some", rng)
				_, keyedKeys, _ := keyRows(keyed)
				_, heapedKeys, _ := keyRows(heaped)
				refAppendChunk(srcs[1], keyed, keyedKeys)
				refAppendChunk(srcs[3], heaped, nil)
				keys := [][][]byte{wantKeys, keyedKeys, nil, heapedKeys}
				idxs := make([]uint32, 2*n)
				which := make([]uint32, len(idxs))
				for o := range idxs {
					idxs[o], which[o] = uint32(rng.Intn(n)), []uint32{0, 1, 3}[rng.Intn(3)]
				}
				prefix := kernelChunk(types, 5, "some", rng)
				got, ref := poisonedSet(lk, 8*n, 2*heapCap), NewRowSet(lk)
				if err := got.AppendChunk(prefix); err != nil {
					t.Fatalf("%s: %v", ctx, err)
				}
				refAppendChunk(ref, prefix, nil)
				got.AppendRowsGather(srcs, nil, idxs)
				refAppendRowsGather(ref, srcs, nil, idxs)
				sameSet(t, ctx+": AppendRowsGather out of one set", got, ref)
				got.AppendRowsGather(srcs, which, idxs)
				refAppendRowsGather(ref, srcs, which, idxs)
				sameSet(t, ctx+": AppendRowsGather", got, ref)
				for _, w := range [][]uint32{nil, which} {
					fresh := NewRowSet(lk)
					fresh.AppendRowsGather(srcs, w, idxs)
					heapSummedExactly(t, ctx+": AppendRowsGather into an empty set", fresh)
				}
				perm := make([]uint32, want.Len())
				for o, p := range rng.Perm(len(perm)) {
					perm[o] = uint32(p)
				}
				got.AppendPermuted(want, perm)
				refAppendRowsGather(ref, srcs, nil, perm)
				sameSet(t, ctx+": AppendPermuted", got, ref)
				if len(l.strCols) <= 1 {
					single := NewRowSet(lk)
					for _, i := range idxs {
						single.AppendRowFrom(want, int(i))
					}
					batch := NewRowSet(lk)
					batch.AppendRowsGather(srcs, nil, idxs)
					sameSet(t, ctx+": AppendRowsGather against AppendRowFrom", batch, single)
				}

				// Gather: a range and an index list of the chunks' rows, all on
				// the heap, and references across sets, given their key rows.
				all := make([]uint32, want.Len())
				for i := range all {
					all[i] = uint32(i)
				}
				g := NewGather(l)
				heapOnly := []*RowSet{plain}
				g.Range(plain, 0, plain.Len())
				sameVectors(t, ctx+": Range", g.Vectors(), refGather(l, heapOnly, nil, all, nil))
				g.Range(plain, 7, 100)
				sameVectors(t, ctx+": Range from 7", g.Vectors(), refGather(l, heapOnly, nil, all[7:107], nil))
				g.Index(plain, idxs)
				sameVectors(t, ctx+": Index", g.Vectors(), refGather(l, heapOnly, nil, idxs, nil))
				var refKeys [][]byte
				if lk != l {
					refKeys = refsKeys(keys, which, idxs)
				}
				g = NewGather(lk)
				g.Refs(srcs, which, idxs, refKeys)
				sameVectors(t, ctx+": Refs", g.Vectors(), refGather(lk, srcs, which, idxs, keys))
				g.Refs(srcs, nil, nil, [][]byte{})
				sameVectors(t, ctx+": no rows", g.Vectors(), refGather(lk, srcs, nil, nil, nil))
				cells++
			}
		}
	}
	t.Logf("%d cells", cells)
}

// TestInlineRowsMatchRowSet runs the kernels of a payload riding inline —
// ScatterRows into key rows, Gather.Inline from them, AppendValue of one —
// against a set of the same packed layout, over fixed-width type × layout ×
// NULL layout. The key rows start poisoned, as a recycled buffer does: every
// byte of a row's payload must be written as AppendChunk writes it, and no
// byte around it — the key before it, the padding after — touched. A layout
// with a string column, or vectors that do not match it, are refused.
func TestInlineRowsMatchRowSet(t *testing.T) {
	rng := rand.New(rand.NewSource(45))
	const n, kw = 150, 9
	for _, typ := range allTypes {
		if typ == vector.Varchar {
			continue
		}
		for _, types := range [][]vector.Type{{typ}, {vector.Bool, typ, vector.Int8}, {vector.Int8, typ, vector.Float64, vector.Int32}} {
			l := NewLayoutAligned(types, 1)
			w := l.Width()
			stride := (kw + w + 7) &^ 7
			for _, shape := range nullShapes {
				ctx := fmt.Sprintf("%v in %v nulls=%s", typ, types, shape)
				chunk := kernelChunk(types, n, shape, rng)
				keyRows := bytes.Repeat([]byte{0xEE}, n*stride)
				if err := l.ScatterRows(keyRows[kw:], stride, n, chunk); err != nil {
					t.Fatalf("%s: %v", ctx, err)
				}
				want := NewRowSet(l)
				if err := want.AppendChunk(chunk); err != nil {
					t.Fatalf("%s: %v", ctx, err)
				}
				rows := make([][]byte, n)
				for r := range rows {
					row := keyRows[r*stride : (r+1)*stride]
					if !bytes.Equal(row[kw:kw+w], want.Row(r)) {
						t.Fatalf("%s: row %d:\n got %x\nwant %x", ctx, r, row[kw:kw+w], want.Row(r))
					}
					if bytes.Count(row[:kw], []byte{0xEE}) != kw || bytes.Count(row[kw+w:], []byte{0xEE}) != stride-kw-w {
						t.Fatalf("%s: row %d: the bytes around the payload were written: %x", ctx, r, row)
					}
					rows[r] = row
				}
				idxs, refs := make([]uint32, n), make([][]byte, n)
				for o, p := range rng.Perm(n) {
					idxs[o], refs[o] = uint32(p), rows[p]
				}
				g := NewGather(l)
				g.Inline(refs, kw)
				sameVectors(t, ctx+": Inline", g.Vectors(), refGather(l, []*RowSet{want}, nil, idxs, nil))
				for c, typ := range types {
					got, ref := vector.New(typ, n), vector.New(typ, n)
					for r := range rows {
						l.AppendValue(got, rows[r][kw:], c)
						want.AppendTo(ref, r, c)
					}
					sameVectors(t, ctx+": AppendValue", []*vector.Vector{got}, []*vector.Vector{ref})
				}
			}
		}
	}
	l := NewLayoutAligned([]vector.Type{vector.Int64}, 1)
	buf := make([]byte, 3*16)
	for name, vecs := range map[string][]*vector.Vector{
		"a vector of the wrong type": kernelChunk([]vector.Type{vector.Int32}, 3, "none", rng),
		"a short vector":             kernelChunk([]vector.Type{vector.Int64}, 2, "none", rng),
		"no vector":                  nil,
	} {
		if err := l.ScatterRows(buf, 16, 3, vecs); err == nil {
			t.Errorf("ScatterRows took %s", name)
		}
	}
	strs := NewLayoutAligned([]vector.Type{vector.Varchar}, 1)
	if err := strs.ScatterRows(buf, 16, 3, kernelChunk([]vector.Type{vector.Varchar}, 3, "none", rng)); err == nil {
		t.Error("ScatterRows took a string column")
	}
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
		"refs":  func() { g.Refs(sets, which, idxs, nil) },
	} {
		if allocs := testing.AllocsPerRun(10, func() {
			resolve()
			_ = g.Vectors()
		}); allocs != want {
			t.Errorf("%s: %.0f allocations per chunk of %d rows, want %.0f", shape, allocs, n, want)
		}
	}
}
