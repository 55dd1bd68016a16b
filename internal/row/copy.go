package row

import (
	"encoding/binary"
	"fmt"
	"math"

	"rowsort/internal/vector"
)

// AppendTo appends column c of row i to v, which must match the column's
// type. It is the single-value gather: the type switch re-dispatches per
// value, so hot paths use the vectorized kernels in gather.go instead.
// It remains the reference implementation they are tested (and the
// scalar-vs-vectorized ablation is measured) against. A string its key holds
// is not here to read: it appends as empty (see StringBytes).
func (rs *RowSet) AppendTo(v *vector.Vector, i, c int) {
	if rs.layout.types[c] == vector.Varchar && rs.Valid(i, c) {
		v.AppendString(rs.String(i, c))
		return
	}
	rs.layout.AppendValue(v, rs.Row(i), c)
}

// AppendValue is AppendTo of rowb, a row of the layout wherever it lies (a
// payload riding behind its key, say), whose column c is NULL or fixed-width.
func (l *Layout) AppendValue(v *vector.Vector, rowb []byte, c int) {
	if !l.valid(rowb, c) {
		v.AppendNull()
		return
	}
	off := l.offsets[c]
	switch l.types[c] {
	case vector.Bool:
		v.AppendBool(rowb[off] != 0)
	case vector.Int8:
		v.AppendInt8(int8(rowb[off]))
	case vector.Uint8:
		v.AppendUint8(rowb[off])
	case vector.Int16:
		v.AppendInt16(int16(binary.LittleEndian.Uint16(rowb[off:])))
	case vector.Uint16:
		v.AppendUint16(binary.LittleEndian.Uint16(rowb[off:]))
	case vector.Int32:
		v.AppendInt32(int32(binary.LittleEndian.Uint32(rowb[off:])))
	case vector.Uint32:
		v.AppendUint32(binary.LittleEndian.Uint32(rowb[off:]))
	case vector.Int64:
		v.AppendInt64(int64(binary.LittleEndian.Uint64(rowb[off:])))
	case vector.Uint64:
		v.AppendUint64(binary.LittleEndian.Uint64(rowb[off:]))
	case vector.Float32:
		v.AppendFloat32(math.Float32frombits(binary.LittleEndian.Uint32(rowb[off:])))
	case vector.Float64:
		v.AppendFloat64(math.Float64frombits(binary.LittleEndian.Uint64(rowb[off:])))
	default:
		panic(fmt.Sprintf("row: AppendValue of a %v column", l.types[c]))
	}
}
