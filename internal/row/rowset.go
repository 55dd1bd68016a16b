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

// Cap returns the number of rows the row buffer can hold without growing.
func (rs *RowSet) Cap() int { return cap(rs.data) / rs.layout.width }

// HeapLen returns the bytes live in the string heap.
func (rs *RowSet) HeapLen() int { return len(rs.heap) }

// Reserve grows the row buffer capacity to hold at least n rows.
func (rs *RowSet) Reserve(n int) { rs.data = withCap(rs.data, n*rs.layout.width) }

// ReserveHeap grows the string heap capacity to hold at least n bytes.
func (rs *RowSet) ReserveHeap(n int) { rs.heap = withCap(rs.heap, n) }

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
	if len(vecs) != len(rs.layout.types) {
		return fmt.Errorf("row: got %d vectors for %d columns", len(vecs), len(rs.layout.types))
	}
	n := -1
	for c, v := range vecs {
		if v.Type() != rs.layout.types[c] {
			return fmt.Errorf("row: column %d is %v, layout wants %v", c, v.Type(), rs.layout.types[c])
		}
		if n == -1 {
			n = v.Len()
		} else if v.Len() != n {
			return fmt.Errorf("row: column %d has %d rows, want %d", c, v.Len(), n)
		}
	}
	if n == 0 {
		return nil
	}
	rows := rs.extendRows(n)
	rs.layout.startRows(rows)
	for c, v := range vecs {
		rs.scatter(c, v, rows)
	}
	return nil
}

// startRows writes what no column loop does: each row's mask, every column
// valid, and its tail padding, zero — two word stores a row where the layout
// allows (the tail's first, since on an 8-byte row the two are one word).
func (l *Layout) startRows(rows []byte) {
	w := l.width
	if !l.wordMask {
		clear(rows)
		for o := 0; o < len(rows); o += w {
			copy(rows[o:], l.maskInit)
		}
		return
	}
	for o := 0; o < len(rows); o += w {
		row := rows[o : o+w : o+w]
		binary.LittleEndian.PutUint64(row[w-8:], 0)
		binary.LittleEndian.PutUint64(row, l.maskWord)
	}
}

// scatter writes column c of the v.Len() rows at the head of rows from v.
func (rs *RowSet) scatter(c int, v *vector.Vector, rows []byte) {
	l := rs.layout
	w, off, n := l.width, l.offsets[c], v.Len()
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
		rs.scatterStrings(v.Strings()[:n], v.Validity(), rows[off:], w)
	}
	nulls, bit, slot := v.Validity(), byte(1)<<(uint(c)&7), l.types[c].Width()
	for r := nulls.NextNull(0); r >= 0; r = nulls.NextNull(r + 1) {
		row := rows[r*w : (r+1)*w]
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
		if nulls == nil || nulls.Valid(r) {
			slot := slots[r*w : r*w+8 : r*w+8]
			binary.LittleEndian.PutUint32(slot, uint32(pos))
			binary.LittleEndian.PutUint32(slot[4:], uint32(len(s)))
			pos += copy(heap[pos:], s)
		}
	}
}

// String returns the string value of column c in row i. The column must be
// a valid Varchar.
func (rs *RowSet) String(i, c int) string { return string(rs.StringBytes(i, c)) }

// StringBytes is String without the copy: the bytes are the set's heap,
// valid until the set is next written or reset. A comparison reads them in
// place.
func (rs *RowSet) StringBytes(i, c int) []byte {
	row := rs.Row(i)
	off := rs.layout.offsets[c]
	ho := binary.LittleEndian.Uint32(row[off:])
	hl := binary.LittleEndian.Uint32(row[off+4:])
	return rs.heap[ho : ho+hl : ho+hl]
}

// Valid reports whether column c of row i is non-NULL.
func (rs *RowSet) Valid(i, c int) bool { return rs.layout.valid(rs.Row(i), c) }

// Value returns column c of row i as an any (nil for NULL). For tests and
// debugging.
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
