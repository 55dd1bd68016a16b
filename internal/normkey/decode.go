package normkey

import (
	"encoding/binary"
	"fmt"
	"math"
	"strings"

	"rowsort/internal/vector"
)

// DecodeColumn reads key k back out of the key rows, one row each, into a new
// dense vector: the inverse of the encoding of an Exact key, which it must
// be, with one typed loop for the column. A row whose validity byte says NULL
// is NULL in the vector, and its slot holds zero. It is how a sort returns a
// column its keys hold exactly, which its payload then need not.
func (e *Encoder) DecodeColumn(k int, keyRows [][]byte) *vector.Vector {
	key := e.keys[k]
	if !key.Exact() {
		panic(fmt.Sprintf("normkey: key %d (%v) does not hold its values exactly", k, key.Type))
	}
	v := vector.NewDense(key.Type, len(keyRows))
	off, n := e.offsets[k], len(keyRows)
	inv64 := uint64(0)
	if key.Order == Descending {
		inv64 = ^inv64
	}
	inv32, inv16, inv8 := uint32(inv64), uint16(inv64), uint8(inv64)
	// A NULL's value bytes decode to zero but for a signed type's flipped
	// sign bit: its slot is cleared where its validity byte is read.
	_, null := key.validity()
	switch key.Type {
	case vector.Bool:
		d := v.Bools()[:n]
		for o, r := range keyRows {
			d[o] = r[off+1]^inv8 != 0
			if r[off] == null {
				d[o] = false
				v.SetNull(o)
			}
		}
	case vector.Uint8:
		d := v.Uint8s()[:n]
		for o, r := range keyRows {
			d[o] = r[off+1] ^ inv8
			if r[off] == null {
				d[o] = 0
				v.SetNull(o)
			}
		}
	case vector.Int8:
		d := v.Int8s()[:n]
		for o, r := range keyRows {
			d[o] = int8(r[off+1] ^ 0x80 ^ inv8)
			if r[off] == null {
				d[o] = 0
				v.SetNull(o)
			}
		}
	case vector.Uint16:
		d := v.Uint16s()[:n]
		for o, r := range keyRows {
			d[o] = binary.BigEndian.Uint16(r[off+1:]) ^ inv16
			if r[off] == null {
				d[o] = 0
				v.SetNull(o)
			}
		}
	case vector.Int16:
		d := v.Int16s()[:n]
		for o, r := range keyRows {
			d[o] = int16(binary.BigEndian.Uint16(r[off+1:]) ^ 0x8000 ^ inv16)
			if r[off] == null {
				d[o] = 0
				v.SetNull(o)
			}
		}
	case vector.Uint32:
		d := v.Uint32s()[:n]
		for o, r := range keyRows {
			d[o] = binary.BigEndian.Uint32(r[off+1:]) ^ inv32
			if r[off] == null {
				d[o] = 0
				v.SetNull(o)
			}
		}
	case vector.Int32:
		d := v.Int32s()[:n]
		for o, r := range keyRows {
			d[o] = int32(binary.BigEndian.Uint32(r[off+1:]) ^ 0x80000000 ^ inv32)
			if r[off] == null {
				d[o] = 0
				v.SetNull(o)
			}
		}
	case vector.Uint64:
		d := v.Uint64s()[:n]
		for o, r := range keyRows {
			d[o] = binary.BigEndian.Uint64(r[off+1:]) ^ inv64
			if r[off] == null {
				d[o] = 0
				v.SetNull(o)
			}
		}
	case vector.Int64:
		d := v.Int64s()[:n]
		for o, r := range keyRows {
			d[o] = int64(binary.BigEndian.Uint64(r[off+1:]) ^ 0x8000000000000000 ^ inv64)
			if r[off] == null {
				d[o] = 0
				v.SetNull(o)
			}
		}
	}
	return v
}

// DecodeValue decodes key k's segment of the normalized key row back into a
// Go value, returning nil for NULL. Varchar keys decode to their encoded
// prefix with trailing padding removed (the full string is not recoverable
// from the key; the sorter keeps it in the payload). DecodeValue is the
// value-at-a-time reference DecodeColumn is tested against, and serves
// debugging and the Figure 7 demonstration.
func (e *Encoder) DecodeValue(k int, keyRow []byte) (any, error) {
	if k < 0 || k >= len(e.keys) {
		return nil, fmt.Errorf("normkey: key index %d out of range", k)
	}
	key := e.keys[k]
	seg := keyRow[e.offsets[k] : e.offsets[k]+key.segWidth()]
	// Undo DESC inversion on a copy.
	if key.Order == Descending {
		cp := make([]byte, len(seg))
		for i, b := range seg {
			cp[i] = ^b
		}
		seg = cp
	}
	// Undoing the inversion restores the encoder's pre-inversion validity
	// byte, which uses the same swapped placement as the encoder.
	effFirst := (key.Nulls == NullsFirst) != (key.Order == Descending)
	var validByte byte
	if effFirst {
		validByte = 0x01
	} else {
		validByte = 0x00
	}
	if seg[0] != validByte {
		return nil, nil // NULL
	}
	v := seg[1:]
	switch key.Type {
	case vector.Bool:
		return v[0] != 0, nil
	case vector.Uint8:
		return v[0], nil
	case vector.Uint16:
		return getU16(v), nil
	case vector.Uint32:
		return getU32(v), nil
	case vector.Uint64:
		return getU64(v), nil
	case vector.Int8:
		return int8(v[0] ^ 0x80), nil
	case vector.Int16:
		return int16(getU16(v) ^ 0x8000), nil
	case vector.Int32:
		return int32(getU32(v) ^ 0x80000000), nil
	case vector.Int64:
		return int64(getU64(v) ^ 0x8000000000000000), nil
	case vector.Float32:
		return decodeFloat32(getU32(v)), nil
	case vector.Float64:
		return decodeFloat64(getU64(v)), nil
	case vector.Varchar:
		return strings.TrimRight(string(v[:key.Prefix()]), "\x00"), nil
	}
	return nil, fmt.Errorf("normkey: cannot decode type %v", key.Type)
}

func decodeFloat32(bits uint32) float32 {
	if bits&0x80000000 != 0 {
		return math.Float32frombits(bits &^ 0x80000000)
	}
	return math.Float32frombits(^bits)
}

func decodeFloat64(bits uint64) float64 {
	if bits&0x8000000000000000 != 0 {
		return math.Float64frombits(bits &^ 0x8000000000000000)
	}
	return math.Float64frombits(^bits)
}
