// Package normkey implements key normalization (Section VI-A of the paper):
// encoding a sequence of typed sort-key values into a single fixed-width,
// order-preserving binary string. Normalized keys let an interpreted engine
// compare whole tuples with one dynamic bytes.Compare call (the memcmp
// analog) — no per-column type interpretation, no function-call overhead —
// and, because byte-wise order equals sort order, they can be sorted by a
// byte-by-byte radix sort that performs no comparisons at all.
//
// Encoding rules, per key column:
//
//   - A leading validity byte encodes NULL ordering (NULLS FIRST/LAST).
//   - Unsigned integers are written big-endian.
//   - Signed integers are written big-endian with the sign bit flipped, so
//     negative values order before positive ones.
//   - Floats use the IEEE-754 total-order trick: flip all bits of negative
//     values, flip only the sign bit of non-negative values. NaN is
//     canonicalized to a positive quiet NaN (ordering after +Inf) and -0 is
//     normalized to +0.
//   - Strings contribute a fixed-length prefix, zero-padded; rows whose
//     prefixes tie must be resolved against the full strings (Comparator
//     does this, fetching them through the caller's function).
//   - DESC inverts every byte of the column's segment; the validity byte is
//     chosen so the requested NULL placement survives the inversion.
package normkey

import (
	"encoding/binary"
	"fmt"
	"math"

	"rowsort/internal/vector"
)

// Order is a per-key sort direction.
type Order uint8

// Sort directions.
const (
	Ascending Order = iota
	Descending
)

// String returns "ASC" or "DESC".
func (o Order) String() string {
	if o == Descending {
		return "DESC"
	}
	return "ASC"
}

// NullOrder places NULLs before or after all values.
type NullOrder uint8

// NULL placements. The zero value, NullsFirst, matches the common default
// for ascending order.
const (
	NullsFirst NullOrder = iota
	NullsLast
)

// String returns "NULLS FIRST" or "NULLS LAST".
func (n NullOrder) String() string {
	if n == NullsLast {
		return "NULLS LAST"
	}
	return "NULLS FIRST"
}

// Collation selects the string comparison rule for a Varchar key. The
// paper notes that collations are handled by evaluating the collation
// before encoding the string prefix; the encoder does exactly that, and the
// oracle comparator and Comparator apply the same rule.
type Collation uint8

// The supported collations.
const (
	// CollationBinary compares raw bytes (the default).
	CollationBinary Collation = iota
	// CollationNoCase compares ASCII case-insensitively.
	CollationNoCase
)

// Apply evaluates the collation on s, returning the string whose binary
// order equals s's collated order.
func (c Collation) Apply(s string) string {
	if c != CollationNoCase {
		return s
	}
	// Lower-case ASCII; allocate only when needed.
	lower := -1
	for i := 0; i < len(s); i++ {
		if s[i] >= 'A' && s[i] <= 'Z' {
			lower = i
			break
		}
	}
	if lower < 0 {
		return s
	}
	b := []byte(s)
	for i := lower; i < len(b); i++ {
		b[i] = lowerASCII(b[i])
	}
	// the rewritten collated string must not alias the mutable scratch buffer
	return string(b)
}

// lowerASCII is CollationNoCase on one byte.
func lowerASCII(c byte) byte {
	if c >= 'A' && c <= 'Z' {
		c += 'a' - 'A'
	}
	return c
}

// DefaultStringPrefixLen is the number of string bytes encoded into the
// normalized key when the caller does not choose one. The paper's
// implementation encodes at most 12 bytes, picked from string statistics.
const DefaultStringPrefixLen = 12

// SortKey describes one ORDER BY term.
type SortKey struct {
	// Column is the key's column index in the chunks handed to Encode.
	Column int
	// Type is the column's logical type.
	Type vector.Type
	// Order is ASC or DESC.
	Order Order
	// Nulls places NULLs first or last.
	Nulls NullOrder
	// PrefixLen bounds the encoded prefix of Varchar keys; 0 means
	// DefaultStringPrefixLen. Ignored for other types.
	PrefixLen int
	// Collation selects the comparison rule for Varchar keys.
	Collation Collation
}

// segWidth returns the key's segment width including the validity byte.
func (k SortKey) segWidth() int {
	if k.Type == vector.Varchar {
		p := k.PrefixLen
		if p <= 0 {
			p = DefaultStringPrefixLen
		}
		return 1 + p
	}
	return 1 + k.Type.Width()
}

func (k SortKey) prefixLen() int {
	if k.PrefixLen <= 0 {
		return DefaultStringPrefixLen
	}
	return k.PrefixLen
}

// Encoder turns tuples of key-column values into normalized keys. It is
// built once per sort (interpreting the type and order of each key exactly
// once) and then applied vector at a time, which is how a vectorized engine
// amortizes interpretation overhead.
type Encoder struct {
	keys    []SortKey
	offsets []int
	width   int
	canTie  bool
}

// NewEncoder validates the key specification and returns an encoder.
func NewEncoder(keys []SortKey) (*Encoder, error) {
	if len(keys) == 0 {
		return nil, fmt.Errorf("normkey: no sort keys")
	}
	e := &Encoder{keys: append([]SortKey(nil), keys...)}
	for i, k := range e.keys {
		if !k.Type.IsValid() {
			return nil, fmt.Errorf("normkey: key %d has invalid type %v", i, k.Type)
		}
		e.offsets = append(e.offsets, e.width)
		e.width += k.segWidth()
		if e.segCanTie(i) {
			e.canTie = true
		}
	}
	return e, nil
}

// Width returns the total normalized key width in bytes.
func (e *Encoder) Width() int { return e.width }

// Keys returns the encoder's key specification.
func (e *Encoder) Keys() []SortKey { return e.keys }

// TiesPossible reports whether byte-equal normalized keys may belong to
// unequal tuples, requiring a tie-break against the original values: a
// string key's prefix may truncate.
func (e *Encoder) TiesPossible() bool { return e.canTie }

// segCanTie reports whether key k's segment alone may byte-tie between
// unequal values: only a string prefix can.
func (e *Encoder) segCanTie(k int) bool { return e.keys[k].Type == vector.Varchar }

// DecisiveWidth returns the key prefix over which byte order is the sort
// order whatever the values: the whole key, or, when a segment may tie, the
// key up to the end of the first such segment. Past a tied prefix the full
// strings decide before any later segment's bytes, so byte (and
// offset-value-code) comparisons must stop there; byte-equal rows fall to
// Comparator.
func (e *Encoder) DecisiveWidth() int {
	for k := range e.keys {
		if e.segCanTie(k) {
			return e.offsets[k] + e.keys[k].segWidth()
		}
	}
	return e.width
}

// Offset returns the byte offset of key k's segment within the key.
func (e *Encoder) Offset(k int) int { return e.offsets[k] }

// EncodeStats reports what one Encode call observed about lossiness.
type EncodeStats struct {
	// Ties is set when some encoded row could byte-tie with a different
	// value's encoding — the run holding these rows needs the semantic
	// tie-break.
	Ties bool
}

// Encode writes one normalized key per row into out. cols[i] supplies the
// values for keys[i]; all columns must share a length. Row r's key is
// written at out[r*stride+offset : +Width()]. Encoding proceeds one key
// column at a time over the whole vector — the vectorized, cache-friendly
// conversion of Figure 11.
func (e *Encoder) Encode(cols []*vector.Vector, out []byte, stride, offset int) error {
	_, err := e.EncodeChunk(cols, out, stride, offset)
	return err
}

// EncodeChunk is Encode returning per-chunk lossiness stats, letting the
// sorter enable its tie-break per run instead of per sort.
func (e *Encoder) EncodeChunk(cols []*vector.Vector, out []byte, stride, offset int) (EncodeStats, error) {
	var st EncodeStats
	if len(cols) != len(e.keys) {
		return st, fmt.Errorf("normkey: got %d columns for %d keys", len(cols), len(e.keys))
	}
	if stride < offset+e.width {
		return st, fmt.Errorf("normkey: stride %d too small for offset %d + width %d", stride, offset, e.width)
	}
	n := -1
	for i, c := range cols {
		if c.Type() != e.keys[i].Type {
			return st, fmt.Errorf("normkey: column %d is %v, key wants %v", i, c.Type(), e.keys[i].Type)
		}
		if n == -1 {
			n = c.Len()
		} else if c.Len() != n {
			return st, fmt.Errorf("normkey: column %d has %d rows, want %d", i, c.Len(), n)
		}
	}
	if len(out) < n*stride {
		return st, fmt.Errorf("normkey: out has %d bytes, need %d", len(out), n*stride)
	}
	for i, c := range cols {
		if e.encodeColumn(i, c, out, stride, offset) {
			st.Ties = true
		}
	}
	return st, nil
}

// encodeColumn encodes all rows of key k from vec, reporting whether any of
// them may byte-tie with a different value. What varies per column — the
// type, whether any row is NULL, the direction — is decided here, once; the
// loops below it decide nothing per row.
//
// DESC inverts every byte of the segment. It is folded into what is stored
// (inv, XORed into every byte on its way out) rather than applied in a second
// pass; the validity byte is chosen so that the requested NULL placement
// survives the inversion.
func (e *Encoder) encodeColumn(k int, vec *vector.Vector, out []byte, stride, offset int) (ties bool) {
	key := e.keys[k]
	n := vec.Len()
	seg := segment{out: out[offset+e.offsets[k]:], stride: stride, width: key.segWidth()}
	seg.valid, seg.null = key.validity()
	if key.Order == Descending {
		seg.inv = 0xFF
	}
	nulls := vec.Validity()
	if nulls.AllValid() {
		nulls = nil
	}

	if key.Type == vector.Varchar {
		ties = seg.encodeStrings(vec.Strings()[:n], nulls, key.prefixLen(), key.Collation == CollationNoCase)
	} else {
		seg.encodeFixed(vec, n)
	}
	// The loops above give a NULL row whatever its slot in the vector holds
	// (or skip it); its segment is the NULL validity byte over zero bytes.
	for r := nulls.NextNull(0); r >= 0; r = nulls.NextNull(r + 1) {
		row := seg.row(r * stride)
		row[0] = seg.null
		for i := 1; i < len(row); i++ {
			row[i] = seg.inv
		}
	}
	return ties
}

// validity returns the leading byte of the key's segment for a value and for
// a NULL, as stored: chosen so that the requested NULL placement survives
// DESC's inversion of the segment.
func (k SortKey) validity() (valid, null byte) {
	valid, null = 0x01, 0x00
	if (k.Nulls == NullsFirst) == (k.Order == Descending) {
		valid, null = 0x00, 0x01
	}
	if k.Order == Descending {
		valid, null = ^valid, ^null
	}
	return valid, null
}

// segment is one key column's slot in a block of key rows: row r's segment
// is the width bytes at out[r*stride:], opening with the byte valid for a
// value or the byte null for a NULL, the value bytes XORed with inv.
type segment struct {
	out         []byte
	stride      int
	width       int
	valid, null byte
	inv         byte
}

// row returns the segment at byte offset o of out.
func (g *segment) row(o int) []byte { return g.out[o : o+g.width : o+g.width] }

// encodeFixed writes the full encoding of every row of a fixed-width column,
// NULL rows included: one loop per type, its slice fetched once.
func (g *segment) encodeFixed(vec *vector.Vector, n int) {
	o, stride, valid := 0, g.stride, g.valid
	inv64 := uint64(0)
	if g.inv != 0 {
		inv64 = ^inv64
	}
	inv32, inv16, inv8 := uint32(inv64), uint16(inv64), uint8(inv64)
	switch vec.Type() {
	case vector.Bool:
		for _, v := range vec.Bools()[:n] {
			row := g.row(o)
			row[0], row[1] = valid, inv8
			if v {
				row[1] = 1 ^ inv8
			}
			o += stride
		}
	case vector.Uint8:
		for _, v := range vec.Uint8s()[:n] {
			row := g.row(o)
			row[0], row[1] = valid, v^inv8
			o += stride
		}
	case vector.Int8:
		for _, v := range vec.Int8s()[:n] {
			row := g.row(o)
			row[0], row[1] = valid, uint8(v)^0x80^inv8
			o += stride
		}
	case vector.Uint16:
		for _, v := range vec.Uint16s()[:n] {
			row := g.row(o)
			row[0] = valid
			binary.BigEndian.PutUint16(row[1:], v^inv16)
			o += stride
		}
	case vector.Int16:
		for _, v := range vec.Int16s()[:n] {
			row := g.row(o)
			row[0] = valid
			binary.BigEndian.PutUint16(row[1:], uint16(v)^0x8000^inv16)
			o += stride
		}
	case vector.Uint32:
		for _, v := range vec.Uint32s()[:n] {
			row := g.row(o)
			row[0] = valid
			binary.BigEndian.PutUint32(row[1:], v^inv32)
			o += stride
		}
	case vector.Int32:
		for _, v := range vec.Int32s()[:n] {
			row := g.row(o)
			row[0] = valid
			binary.BigEndian.PutUint32(row[1:], uint32(v)^0x80000000^inv32)
			o += stride
		}
	case vector.Float32:
		for _, v := range vec.Float32s()[:n] {
			row := g.row(o)
			row[0] = valid
			binary.BigEndian.PutUint32(row[1:], encodeFloat32(v)^inv32)
			o += stride
		}
	case vector.Uint64:
		for _, v := range vec.Uint64s()[:n] {
			row := g.row(o)
			row[0] = valid
			binary.BigEndian.PutUint64(row[1:], v^inv64)
			o += stride
		}
	case vector.Int64:
		for _, v := range vec.Int64s()[:n] {
			row := g.row(o)
			row[0] = valid
			binary.BigEndian.PutUint64(row[1:], uint64(v)^0x8000000000000000^inv64)
			o += stride
		}
	case vector.Float64:
		for _, v := range vec.Float64s()[:n] {
			row := g.row(o)
			row[0] = valid
			binary.BigEndian.PutUint64(row[1:], encodeFloat64(v)^inv64)
			o += stride
		}
	}
}

// encodeStrings writes the zero-padded, collated prefix of every non-NULL
// string and reports whether any of them can byte-tie with a different
// string: it overflows the prefix, or one of the bytes just copied is a NUL,
// which the padding cannot be told from. fold is CollationNoCase, evaluated
// on the bytes as they are copied.
func (g *segment) encodeStrings(vals []string, nulls *vector.Bitmap, prefix int, fold bool) (ties bool) {
	o, inv := 0, g.inv
	for r, s := range vals {
		if nulls != nil && !nulls.Valid(r) {
			o += g.stride
			continue
		}
		row := g.row(o)
		o += g.stride
		row[0] = g.valid
		dst := row[1:]
		if len(s) > prefix {
			s, ties = s[:prefix], true
		}
		for i := 0; i < len(s) && i < len(dst); i++ {
			c := s[i]
			if fold {
				c = lowerASCII(c)
			}
			if c == 0 {
				ties = true
			}
			dst[i] = c ^ inv
		}
		for i := len(s); i < len(dst); i++ {
			dst[i] = inv
		}
	}
	return ties
}

// encodeFloat32 maps a float32 to a uint32 whose unsigned order equals the
// float's total order (with -0 == +0 and NaN greatest).
func encodeFloat32(f float32) uint32 {
	if f != f { // NaN: canonicalize above +Inf
		return 0xFFC00000
	}
	if f == 0 {
		f = 0 // normalize -0 to +0
	}
	bits := math.Float32bits(f)
	if bits&0x80000000 != 0 {
		return ^bits
	}
	return bits | 0x80000000
}

// encodeFloat64 is encodeFloat32 for float64.
func encodeFloat64(f float64) uint64 {
	if f != f {
		return 0xFFF8000000000000
	}
	if f == 0 {
		f = 0
	}
	bits := math.Float64bits(f)
	if bits&0x8000000000000000 != 0 {
		return ^bits
	}
	return bits | 0x8000000000000000
}

func getU16(b []byte) uint16 { return uint16(b[0])<<8 | uint16(b[1]) }

func getU32(b []byte) uint32 {
	return uint32(b[0])<<24 | uint32(b[1])<<16 | uint32(b[2])<<8 | uint32(b[3])
}

func getU64(b []byte) uint64 {
	return uint64(b[0])<<56 | uint64(b[1])<<48 | uint64(b[2])<<40 | uint64(b[3])<<32 |
		uint64(b[4])<<24 | uint64(b[5])<<16 | uint64(b[6])<<8 | uint64(b[7])
}
