package normkey

import (
	"bytes"
	"cmp"
	"strings"

	"rowsort/internal/vector"
)

// CompareRows compares tuple i of cols against tuple j under the key
// specification, returning -1, 0 or +1. cols[k] supplies the values of
// keys[k]. NULL ordering, DESC and the float total order (NaN greatest,
// -0 == +0) match the normalized key encoding, so for any two tuples
//
//	sign(CompareRows(keys, cols, i, j)) ==
//	sign(bytes.Compare(encode(tuple i), encode(tuple j)))
//
// whenever string keys fit their prefixes; with truncated prefixes the key
// comparison may report equality that CompareRows breaks. It is the
// reference ("oracle") comparator and also serves as the dynamic
// tuple-at-a-time comparator of an interpreted engine: one call per
// comparison, one type dispatch per key column.
func CompareRows(keys []SortKey, cols []*vector.Vector, i, j int) int {
	for k, key := range keys {
		c := compareOne(key, cols[k], i, j)
		if c != 0 {
			return c
		}
	}
	return 0
}

// Comparator returns the sort order over the key rows the encoder wrote, each
// row's key at its start: their bytes, segment by segment, where a segment
// that may tie (a varchar prefix) and did is resolved against the collated
// full values. full(keyRow, k) fetches key k's whole string for the row, in
// place: the comparator neither keeps nor writes it. It is called only on
// such a tie, and never for a NULL: byte-tied segments share their validity
// byte, so both rows are NULL, and equal, or both valid. A caller whose rows
// cannot tie compares the key bytes alone (the paper's memcmp) and needs no
// Comparator.
func (e *Encoder) Comparator(full func(keyRow []byte, k int) []byte) func(a, b []byte) int {
	type seg struct {
		off, end int
		canTie   bool
		desc     bool
		null     byte
		coll     Collation
	}
	segs := make([]seg, len(e.keys))
	for k, key := range e.keys {
		_, null := key.validity()
		segs[k] = seg{off: e.offsets[k], end: e.offsets[k] + key.segWidth(), canTie: e.segCanTie(k),
			desc: key.Order == Descending, null: null, coll: key.Collation}
	}
	return func(a, b []byte) int {
		for k, sg := range segs {
			if c := bytes.Compare(a[sg.off:sg.end], b[sg.off:sg.end]); c != 0 {
				return c
			}
			if !sg.canTie || a[sg.off] == sg.null {
				continue
			}
			fa, fb := full(a, k), full(b, k)
			var c int
			if sg.coll == CollationBinary {
				c = bytes.Compare(fa, fb)
			} else {
				c = cmp.Compare(sg.coll.Apply(string(fa)), sg.coll.Apply(string(fb)))
			}
			if sg.desc {
				c = -c
			}
			if c != 0 {
				return c
			}
		}
		return 0
	}
}

func compareOne(key SortKey, col *vector.Vector, i, j int) int {
	return CompareValues(key, col, i, col, j)
}

// CompareValues compares row i of column a against row j of column b under
// one key; both columns must have the key's type. It backs both the
// same-table oracle comparison and cross-table comparisons such as the
// merge join's.
func CompareValues(key SortKey, a *vector.Vector, i int, b *vector.Vector, j int) int {
	vi, vj := a.Valid(i), b.Valid(j)
	if !vi || !vj {
		if vi == vj {
			return 0 // both NULL
		}
		// One NULL: NULLS FIRST/LAST is an absolute placement, independent
		// of ASC/DESC, matching the encoder.
		less := !vi
		if key.Nulls == NullsLast {
			less = !less
		}
		if less {
			return -1
		}
		return 1
	}
	var c int
	switch key.Type {
	case vector.Bool:
		c = cmpBool(a.Bools()[i], b.Bools()[j])
	case vector.Int8:
		c = cmpOrdered(a.Int8s()[i], b.Int8s()[j])
	case vector.Int16:
		c = cmpOrdered(a.Int16s()[i], b.Int16s()[j])
	case vector.Int32:
		c = cmpOrdered(a.Int32s()[i], b.Int32s()[j])
	case vector.Int64:
		c = cmpOrdered(a.Int64s()[i], b.Int64s()[j])
	case vector.Uint8:
		c = cmpOrdered(a.Uint8s()[i], b.Uint8s()[j])
	case vector.Uint16:
		c = cmpOrdered(a.Uint16s()[i], b.Uint16s()[j])
	case vector.Uint32:
		c = cmpOrdered(a.Uint32s()[i], b.Uint32s()[j])
	case vector.Uint64:
		c = cmpOrdered(a.Uint64s()[i], b.Uint64s()[j])
	case vector.Float32:
		c = cmpFloat64(float64(a.Float32s()[i]), float64(b.Float32s()[j]))
	case vector.Float64:
		c = cmpFloat64(a.Float64s()[i], b.Float64s()[j])
	case vector.Varchar:
		c = strings.Compare(key.Collation.Apply(a.Strings()[i]), key.Collation.Apply(b.Strings()[j]))
	}
	if key.Order == Descending {
		c = -c
	}
	return c
}

func cmpBool(a, b bool) int {
	switch {
	case a == b:
		return 0
	case !a:
		return -1
	default:
		return 1
	}
}

func cmpOrdered[E int8 | int16 | int32 | int64 | uint8 | uint16 | uint32 | uint64](a, b E) int {
	switch {
	case a < b:
		return -1
	case a > b:
		return 1
	default:
		return 0
	}
}

// cmpFloat64 is the total order matching the key encoding: -0 == +0 and NaN
// compares greater than everything including +Inf.
func cmpFloat64(a, b float64) int {
	an, bn := a != a, b != b
	switch {
	case an && bn:
		return 0
	case an:
		return 1
	case bn:
		return -1
	case a < b:
		return -1
	case a > b:
		return 1
	default:
		return 0
	}
}
