package row

import (
	"encoding/binary"
	"fmt"
	"math"

	"rowsort/internal/vector"
)

// RowSet is a materialized collection of fixed-width rows plus a string
// heap. Rows are stored back to back in one flat buffer, so a sorted RowSet
// doubles as a sorted run for the merge phase.
type RowSet struct {
	layout *Layout
	data   []byte
	heap   []byte
	n      int
}

// NewRowSet returns an empty row set with the given layout.
func NewRowSet(layout *Layout) *RowSet {
	return &RowSet{layout: layout}
}

// Layout returns the row layout.
func (rs *RowSet) Layout() *Layout { return rs.layout }

// Len returns the number of rows.
func (rs *RowSet) Len() int { return rs.n }

// Bytes returns the flat row buffer (rows of Layout().Width() bytes).
func (rs *RowSet) Bytes() []byte { return rs.data }

// MemSize returns the bytes live in the set's buffers (fixed-width rows
// plus the string heap), the unit of the sorter's resident-memory
// accounting. Nil-safe.
func (rs *RowSet) MemSize() int {
	if rs == nil {
		return 0
	}
	return len(rs.data) + len(rs.heap)
}

// CapBytes returns the bytes the set's buffers hold on to (capacity, not
// length) — the unit of broker accounting, since a pooled or growing
// buffer occupies its full capacity regardless of how much is live.
// Nil-safe.
func (rs *RowSet) CapBytes() int64 {
	if rs == nil {
		return 0
	}
	return int64(cap(rs.data)) + int64(cap(rs.heap))
}

// Row returns row i's bytes, aliasing the underlying buffer.
func (rs *RowSet) Row(i int) []byte {
	w := rs.layout.width
	return rs.data[i*w : (i+1)*w]
}

// Cap returns the number of rows the row buffer can hold without growing: any
// number, when the layout has no columns and so its rows no bytes.
func (rs *RowSet) Cap() int {
	if rs.layout.width == 0 {
		return math.MaxInt
	}
	return cap(rs.data) / rs.layout.width
}

// HeapLen returns the bytes live in the string heap. Nil-safe.
func (rs *RowSet) HeapLen() int {
	if rs == nil {
		return 0
	}
	return len(rs.heap)
}

// Reserve grows the row buffer capacity to hold at least n rows.
func (rs *RowSet) Reserve(n int) { rs.data = withCap(rs.data, n*rs.layout.width) }

// ReserveHeap grows the string heap capacity to hold at least n bytes.
func (rs *RowSet) ReserveHeap(n int) { rs.heap = withCap(rs.heap, n) }

// CapBytesFor returns what CapBytes will be once Reserve(n) and
// ReserveHeap(heap) have run: the bytes a set of n rows and heap string bytes
// takes, sized before it is. Nil-safe.
func (rs *RowSet) CapBytesFor(n, heap int) int64 {
	if rs == nil {
		return 0
	}
	return int64(max(cap(rs.data), n*rs.layout.width)) + int64(max(cap(rs.heap), heap))
}

// withCap returns b with capacity at least c — exactly c when it has to
// grow, since the caller has named the size it wants.
func withCap(b []byte, c int) []byte {
	if cap(b) >= c {
		return b
	}
	nb := make([]byte, len(b), c)
	copy(nb, b)
	return nb
}

// AppendChunk scatters the chunk's vectors into rows (DSM to NSM). Vectors
// must match the layout's types in order. Every byte of the new rows is
// written, so a recycled buffer needs no clearing: each row starts with its
// mask saying every column is valid and with zero tail padding, one loop per
// column then stores every row's value — NULL rows' too, whatever their slot
// in the vector holds — and a walk over the column's NULL rows alone clears
// their bit and slot.
func (rs *RowSet) AppendChunk(vecs []*vector.Vector) error {
	n := 0
	if len(vecs) > 0 {
		n = vecs[0].Len()
	}
	return rs.AppendChunkKeyed(n, vecs, nil, 0)
}

// AppendChunkKeyed is AppendChunk of n rows — every vector must have n, and a
// layout of no columns takes n rows of no bytes — whose key rows are at hand:
// row r's is keys[r*stride:]. A string of a column with a key segment
// (Layout.WithKeySegments) that its segment's residence byte says the segment
// holds takes no heap byte; every other string of such a column, and every
// one when keys is nil, goes to its row's overflow record (scatterRecords).
func (rs *RowSet) AppendChunkKeyed(n int, vecs []*vector.Vector, keys []byte, stride int) error {
	l := rs.layout
	if err := l.check(n, vecs); err != nil || n == 0 {
		return err
	}
	rows := rs.extendRows(n)
	l.startRows(rows, l.width, n)
	for c, v := range vecs {
		l.scatter(rs, c, v, rows, l.width)
	}
	if len(l.segCols) > 0 {
		rs.scatterRecords(vecs, rows, n, keys, stride)
	}
	return nil
}

// ScatterRows is AppendChunk into rows the caller owns: row r of the n rows
// of vecs is written at rows[r*stride:], its bytes as the layout lays them
// out, whatever lies between (a key row, where the payload rides behind its
// key) left as it is. The layout must have no string column: there is no heap
// to put one in.
func (l *Layout) ScatterRows(rows []byte, stride, n int, vecs []*vector.Vector) error {
	if len(l.strCols)+len(l.segCols) > 0 {
		return fmt.Errorf("row: a layout with string columns scatters only into a RowSet")
	}
	if err := l.check(n, vecs); err != nil || n == 0 || l.width == 0 {
		return err
	}
	l.startRows(rows, stride, n)
	for c, v := range vecs {
		l.scatter(nil, c, v, rows, stride)
	}
	return nil
}

// check fails unless vecs are n rows of the layout's types, in order.
func (l *Layout) check(n int, vecs []*vector.Vector) error {
	if len(vecs) != len(l.types) {
		return fmt.Errorf("row: got %d vectors for %d columns", len(vecs), len(l.types))
	}
	for c, v := range vecs {
		if v.Type() != l.types[c] {
			return fmt.Errorf("row: column %d is %v, layout wants %v", c, v.Type(), l.types[c])
		}
		if v.Len() != n {
			return fmt.Errorf("row: column %d has %d rows, want %d", c, v.Len(), n)
		}
	}
	return nil
}

// startRows writes what no column loop does to the n rows at stride in rows:
// each row's mask, every column valid, and its tail padding, zero — two word
// stores a row where the layout allows (the tail's first, since on an 8-byte
// row the two are one word).
func (l *Layout) startRows(rows []byte, stride, n int) {
	w, end := l.width, n*stride
	if !l.wordMask {
		for o := 0; o < end; o += stride {
			row := rows[o : o+w : o+w]
			clear(row)
			copy(row, l.maskInit)
		}
		return
	}
	for o := 0; o < end; o += stride {
		row := rows[o : o+w : o+w]
		binary.LittleEndian.PutUint64(row[w-8:], 0)
		binary.LittleEndian.PutUint64(row, l.maskWord)
	}
}

// scatter writes column c of the v.Len() rows at stride w from the head of
// rows from v; a string column's values go to rs's heap. A column with no slot
// has only its NULLs marked: scatterRecords places its strings.
func (l *Layout) scatter(rs *RowSet, c int, v *vector.Vector, rows []byte, w int) {
	off, n := l.offsets[c], v.Len()
	nulls, bit := v.Validity(), byte(1)<<(uint(c)&7)
	if off < 0 {
		for r := nulls.NextNull(0); r >= 0; r = nulls.NextNull(r + 1) {
			rows[r*w+(c>>3)] &^= bit
		}
		return
	}
	o := off
	switch v.Type() {
	case vector.Bool:
		for _, x := range v.Bools()[:n] {
			var b byte
			if x {
				b = 1
			}
			rows[o] = b
			o += w
		}
	case vector.Int8:
		for _, x := range v.Int8s()[:n] {
			rows[o] = byte(x)
			o += w
		}
	case vector.Uint8:
		for _, x := range v.Uint8s()[:n] {
			rows[o] = x
			o += w
		}
	case vector.Int16:
		for _, x := range v.Int16s()[:n] {
			binary.LittleEndian.PutUint16(rows[o:], uint16(x))
			o += w
		}
	case vector.Uint16:
		for _, x := range v.Uint16s()[:n] {
			binary.LittleEndian.PutUint16(rows[o:], x)
			o += w
		}
	case vector.Int32:
		for _, x := range v.Int32s()[:n] {
			binary.LittleEndian.PutUint32(rows[o:], uint32(x))
			o += w
		}
	case vector.Uint32:
		for _, x := range v.Uint32s()[:n] {
			binary.LittleEndian.PutUint32(rows[o:], x)
			o += w
		}
	case vector.Int64:
		for _, x := range v.Int64s()[:n] {
			binary.LittleEndian.PutUint64(rows[o:], uint64(x))
			o += w
		}
	case vector.Uint64:
		for _, x := range v.Uint64s()[:n] {
			binary.LittleEndian.PutUint64(rows[o:], x)
			o += w
		}
	case vector.Float32:
		for _, x := range v.Float32s()[:n] {
			binary.LittleEndian.PutUint32(rows[o:], math.Float32bits(x))
			o += w
		}
	case vector.Float64:
		for _, x := range v.Float64s()[:n] {
			binary.LittleEndian.PutUint64(rows[o:], math.Float64bits(x))
			o += w
		}
	case vector.Varchar:
		rs.scatterStrings(v.Strings()[:n], nulls, rows[off:], w)
	}
	slot := l.types[c].Width()
	for r := nulls.NextNull(0); r >= 0; r = nulls.NextNull(r + 1) {
		row := rows[r*w:]
		row[c>>3] &^= bit
		clear(row[off : off+slot])
	}
}

// scatterStrings copies the non-NULL strings of vals into the heap, sized
// once, and writes their (offset, length) references into the slots at stride
// w. A NULL row's string must not reach the heap, so only here does a column
// with NULLs test validity per value.
func (rs *RowSet) scatterStrings(vals []string, nulls *vector.Bitmap, slots []byte, w int) {
	if nulls.AllValid() {
		nulls = nil
	}
	total := 0
	for r, s := range vals {
		if nulls == nil || nulls.Valid(r) {
			total += len(s)
		}
	}
	pos := len(rs.heap)
	rs.heap = extendBytes(rs.heap, total)
	heap := rs.heap
	for r, s := range vals {
		if nulls != nil && !nulls.Valid(r) {
			continue
		}
		slot := slots[r*w : r*w+8 : r*w+8]
		binary.LittleEndian.PutUint32(slot, uint32(pos))
		binary.LittleEndian.PutUint32(slot[4:], uint32(len(s)))
		pos += copy(heap[pos:], s)
	}
}

// scatterRecords writes the overflow reference of each of the n rows at the
// head of rows, and the overflow record of each row that needs one, from the
// strings of the layout's slotless columns in vecs. Such a string overflows —
// goes to the record — when its key row's residence byte, row r's at
// keys[r*stride:], says its key does not hold it, or, when keys is nil, when
// it is not NULL. A row with no overflowing byte has no record. Each row's
// overflowing bytes are first summed in its reference, so the heap is sized
// once, and a chunk whose strings all lie in their keys takes no heap byte.
func (rs *RowSet) scatterRecords(vecs []*vector.Vector, rows []byte, n int, keys []byte, stride int) {
	l := rs.layout
	w, ro, hdr := l.width, l.refOff, l.recHdr
	for j, c := range l.segCols {
		res, nulls := l.residences(keys, c), vecs[c].Validity()
		for r, s := range vecs[c].Strings()[:n] {
			ref := rows[r*w+ro : r*w+ro+refBytes : r*w+ro+refBytes]
			b := uint32(0)
			if overflows(res, stride, nulls, r) {
				b = uint32(len(s))
			}
			if j > 0 {
				b += binary.LittleEndian.Uint32(ref)
			}
			binary.LittleEndian.PutUint32(ref, b)
		}
	}
	total := 0
	for o := ro; o < n*w; o += w {
		if b := int(binary.LittleEndian.Uint32(rows[o:])); b > 0 {
			total += hdr + b
		}
	}
	pos := len(rs.heap)
	rs.heap = extendBytes(rs.heap, total)
	heap := rs.heap
	for r := 0; r < n; r++ {
		ref := rows[r*w+ro : r*w+ro+refBytes : r*w+ro+refBytes]
		if binary.LittleEndian.Uint32(ref) == 0 {
			binary.LittleEndian.PutUint32(ref, noRecord)
			continue
		}
		binary.LittleEndian.PutUint32(ref, uint32(pos))
		at := pos + hdr
		for j, c := range l.segCols {
			b := 0
			if overflows(l.residences(keys, c), stride, vecs[c].Validity(), r) {
				b = copy(heap[at:], vecs[c].Strings()[r])
			}
			binary.LittleEndian.PutUint32(heap[pos+lenBytes*j:], uint32(b))
			at += b
		}
		pos = at
	}
}

// residences returns the residence bytes of column c, a slotless column, in
// the key rows keys — row r's at [r*stride] — and nil when keys is.
func (l *Layout) residences(keys []byte, c int) []byte {
	if keys == nil {
		return nil
	}
	seg := l.keySegs[c]
	return keys[seg.Off+seg.Prefix:]
}

// overflows reports whether row r's string of a slotless column goes to its
// row's overflow record: when its residence byte, res[r*stride], says its
// key does not hold it, or, with no key rows (res nil), when it is not NULL.
func overflows(res []byte, stride int, nulls *vector.Bitmap, r int) bool {
	if res == nil {
		return nulls.Valid(r)
	}
	return res[r*stride] != 0
}

// recordBytes returns the bytes of the j-th slotless column in the overflow
// record rec starts with, none when its key holds the string: past the
// record's length words and the earlier columns' bytes. It is the one walk
// of a record's fields, and inlines into OverflowBytes and the gather.
func (l *Layout) recordBytes(rec []byte, j int) []byte {
	at := l.recHdr
	for k := range j {
		at += int(binary.LittleEndian.Uint32(rec[lenBytes*k:]))
	}
	return rec[at : at+int(binary.LittleEndian.Uint32(rec[lenBytes*j:]))]
}

// recordLen returns the length of the overflow record rec starts with.
func (l *Layout) recordLen(rec []byte) int {
	n := l.recHdr
	for j := range l.segCols {
		n += int(binary.LittleEndian.Uint32(rec[lenBytes*j:]))
	}
	return n
}

// String returns the string value of column c in row i. The column must be
// a valid Varchar in the heap.
func (rs *RowSet) String(i, c int) string { return string(rs.StringBytes(i, c)) }

// StringBytes is String without the copy: the bytes are the set's heap,
// valid until the set is next written or reset. A comparison reads them in
// place. A string its key holds is not here: it reads as empty.
func (rs *RowSet) StringBytes(i, c int) []byte {
	off := rs.layout.offsets[c]
	if off < 0 {
		return rs.OverflowBytes(i, c)
	}
	slot := rs.Row(i)[off:]
	ho := binary.LittleEndian.Uint32(slot)
	hl := binary.LittleEndian.Uint32(slot[4:])
	return rs.heap[ho : ho+hl : ho+hl]
}

// OverflowBytes is StringBytes of a column with no slot (Layout.Offset -1):
// its bytes in row i's overflow record, none when its key holds the string.
// It inlines, where StringBytes does not: the tie-break's fetch, once per
// comparison, calls it for such a column.
func (rs *RowSet) OverflowBytes(i, c int) []byte {
	l := rs.layout
	ref := binary.LittleEndian.Uint32(rs.data[i*l.width+l.refOff:])
	if ref == noRecord {
		return nil
	}
	return l.recordBytes(rs.heap[ref:], l.segAt[c])
}

// Valid reports whether column c of row i is non-NULL.
func (rs *RowSet) Valid(i, c int) bool { return rs.layout.valid(rs.Row(i), c) }

// Value returns column c of row i as an any (nil for NULL). For tests and
// debugging; like StringBytes it reads a string its key holds as empty.
func (rs *RowSet) Value(i, c int) any {
	row := rs.Row(i)
	l := rs.layout
	if !l.valid(row, c) {
		return nil
	}
	off := l.offsets[c]
	switch l.types[c] {
	case vector.Bool:
		return row[off] != 0
	case vector.Int8:
		return int8(row[off])
	case vector.Uint8:
		return row[off]
	case vector.Int16:
		return int16(binary.LittleEndian.Uint16(row[off:]))
	case vector.Uint16:
		return binary.LittleEndian.Uint16(row[off:])
	case vector.Int32:
		return int32(binary.LittleEndian.Uint32(row[off:]))
	case vector.Uint32:
		return binary.LittleEndian.Uint32(row[off:])
	case vector.Int64:
		return int64(binary.LittleEndian.Uint64(row[off:]))
	case vector.Uint64:
		return binary.LittleEndian.Uint64(row[off:])
	case vector.Float32:
		return math.Float32frombits(binary.LittleEndian.Uint32(row[off:]))
	case vector.Float64:
		return math.Float64frombits(binary.LittleEndian.Uint64(row[off:]))
	case vector.Varchar:
		return rs.String(i, c)
	}
	return nil
}
