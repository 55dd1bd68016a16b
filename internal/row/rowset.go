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
// must match the layout's types in order. Conversion runs one vector at a
// time so per-column type dispatch happens once per vector, not once per
// value — the vectorized engine's way of amortizing interpretation.
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

	w := rs.layout.width
	start := rs.n
	rs.data = extendBytes(rs.data, n*w)
	// Zero the extension — a recycled buffer carries an older run's bytes,
	// and NULL slots and alignment padding are never written — then start
	// every row all-valid; scatterColumn clears bits for NULLs.
	clear(rs.data[start*w:])
	for r := 0; r < n; r++ {
		copy(rs.Row(start+r), rs.layout.maskInit)
	}
	rs.n += n
	for c, v := range vecs {
		rs.scatterColumn(c, v, start)
	}
	return nil
}

// scatterColumn writes column c of n rows starting at row index start.
func (rs *RowSet) scatterColumn(c int, v *vector.Vector, start int) {
	l := rs.layout
	off := l.offsets[c]
	n := v.Len()
	switch v.Type() {
	case vector.Bool:
		vals := v.Bools()
		for r := 0; r < n; r++ {
			row := rs.Row(start + r)
			if !v.Valid(r) {
				l.setValid(row, c, false)
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
				l.setValid(row, c, false)
				continue
			}
			row[off] = byte(vals[r])
		}
	case vector.Uint8:
		vals := v.Uint8s()
		for r := 0; r < n; r++ {
			row := rs.Row(start + r)
			if !v.Valid(r) {
				l.setValid(row, c, false)
				continue
			}
			row[off] = vals[r]
		}
	case vector.Int16:
		vals := v.Int16s()
		for r := 0; r < n; r++ {
			row := rs.Row(start + r)
			if !v.Valid(r) {
				l.setValid(row, c, false)
				continue
			}
			binary.LittleEndian.PutUint16(row[off:], uint16(vals[r]))
		}
	case vector.Uint16:
		vals := v.Uint16s()
		for r := 0; r < n; r++ {
			row := rs.Row(start + r)
			if !v.Valid(r) {
				l.setValid(row, c, false)
				continue
			}
			binary.LittleEndian.PutUint16(row[off:], vals[r])
		}
	case vector.Int32:
		vals := v.Int32s()
		for r := 0; r < n; r++ {
			row := rs.Row(start + r)
			if !v.Valid(r) {
				l.setValid(row, c, false)
				continue
			}
			binary.LittleEndian.PutUint32(row[off:], uint32(vals[r]))
		}
	case vector.Uint32:
		vals := v.Uint32s()
		for r := 0; r < n; r++ {
			row := rs.Row(start + r)
			if !v.Valid(r) {
				l.setValid(row, c, false)
				continue
			}
			binary.LittleEndian.PutUint32(row[off:], vals[r])
		}
	case vector.Int64:
		vals := v.Int64s()
		for r := 0; r < n; r++ {
			row := rs.Row(start + r)
			if !v.Valid(r) {
				l.setValid(row, c, false)
				continue
			}
			binary.LittleEndian.PutUint64(row[off:], uint64(vals[r]))
		}
	case vector.Uint64:
		vals := v.Uint64s()
		for r := 0; r < n; r++ {
			row := rs.Row(start + r)
			if !v.Valid(r) {
				l.setValid(row, c, false)
				continue
			}
			binary.LittleEndian.PutUint64(row[off:], vals[r])
		}
	case vector.Float32:
		vals := v.Float32s()
		for r := 0; r < n; r++ {
			row := rs.Row(start + r)
			if !v.Valid(r) {
				l.setValid(row, c, false)
				continue
			}
			binary.LittleEndian.PutUint32(row[off:], math.Float32bits(vals[r]))
		}
	case vector.Float64:
		vals := v.Float64s()
		for r := 0; r < n; r++ {
			row := rs.Row(start + r)
			if !v.Valid(r) {
				l.setValid(row, c, false)
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
				l.setValid(row, c, false)
				continue
			}
			s := vals[r]
			binary.LittleEndian.PutUint32(row[off:], uint32(len(rs.heap)))
			binary.LittleEndian.PutUint32(row[off+4:], uint32(len(s)))
			rs.heap = append(rs.heap, s...)
		}
	}
}

// String returns the string value of column c in row i. The column must be
// a valid Varchar.
func (rs *RowSet) String(i, c int) string {
	row := rs.Row(i)
	off := rs.layout.offsets[c]
	ho := binary.LittleEndian.Uint32(row[off:])
	hl := binary.LittleEndian.Uint32(row[off+4:])
	return string(rs.heap[ho : ho+hl])
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

// GatherChunk converts rows [start, start+count) back to vectors (NSM to
// DSM), returning one vector per column. It takes the sequential fast path:
// the typed range kernels walk the row buffer directly, with no index list
// materialized.
func (rs *RowSet) GatherChunk(start, count int) []*vector.Vector {
	return rs.GatherRange(start, count)
}

// GatherIndexed converts the rows named by indices back to vectors, in
// index order. This is how payload is retrieved in sorted order after the
// keys have been sorted: the sorted keys carry row indices, and the payload
// rows are gathered through them. Hot paths that already hold uint32
// indices should call GatherRows directly.
func (rs *RowSet) GatherIndexed(indices []int) []*vector.Vector {
	idxs := make([]uint32, len(indices))
	for i, x := range indices {
		idxs[i] = uint32(x)
	}
	return rs.GatherRows(idxs)
}
