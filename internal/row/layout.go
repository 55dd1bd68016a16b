// Package row implements the row (NSM) data format the sort operator
// converts to and from (Figure 1 of the paper): fixed-width, 8-byte-aligned
// rows holding all columns of a tuple contiguously, with variable-sized
// strings stored in a separate heap and referenced by (offset, length).
//
// Sorting is inherently row-wise: comparing and moving tuples touches every
// key column of a row, so co-locating a tuple's values turns the random
// access of a columnar layout into sequential access. The conversions are
// performed one vector at a time, amortizing interpretation overhead.
package row

import (
	"fmt"

	"rowsort/internal/vector"
)

// DefaultAlignment is the row-width alignment. The paper found 8-byte
// alignment to improve copy performance; the ablation benchmark measures
// the alternative.
const DefaultAlignment = 8

// Layout describes the physical layout of one row: a leading validity
// bitmask (one bit per column), followed by each column's fixed-width slot,
// padded to the alignment.
type Layout struct {
	types     []vector.Type
	offsets   []int
	strCols   []int // the Varchar columns
	maskBytes int
	width     int
	maskInit  []byte // all-columns-valid mask; padding bits are zero
	// A row whose mask fits one word and whose tail padding fits another is
	// started, and has its mask read, a word at a time: maskWord is maskInit
	// as a little-endian word.
	wordMask bool
	maskWord uint64
	keySegs  []KeySegment // per column, where its strings may lie in a key row (WithKeySegments)
}

// A KeySegment is where a string column's values may lie in their row's key
// row instead of the heap: the Prefix bytes from Off on, the string's own
// bytes zero-padded (a normalized key's ASC, binary-collation varchar
// segment), when the residence byte behind them is 0, as it is for a NULL.
// Such a string holds no NUL, so it ends at its first zero byte, or at the
// residence byte.
type KeySegment struct{ Off, Prefix int }

// NewLayout computes the row layout for the given column types with the
// default alignment.
func NewLayout(types []vector.Type) *Layout {
	return NewLayoutAligned(types, DefaultAlignment)
}

// NewLayoutAligned computes a layout whose row width is padded to a
// multiple of align (align must be a power of two; 1 disables padding).
func NewLayoutAligned(types []vector.Type, align int) *Layout {
	if align <= 0 || align&(align-1) != 0 {
		panic("row: alignment must be a positive power of two")
	}
	l := &Layout{
		types:     append([]vector.Type(nil), types...),
		maskBytes: (len(types) + 7) / 8,
	}
	off := l.maskBytes
	for c, t := range types {
		if !t.IsValid() {
			panic(fmt.Sprintf("row: invalid column type %v", t))
		}
		if t == vector.Varchar {
			l.strCols = append(l.strCols, c)
		}
		l.offsets = append(l.offsets, off)
		off += t.Width()
	}
	l.width = (off + align - 1) &^ (align - 1)
	l.maskInit = make([]byte, l.maskBytes)
	for c := range types {
		l.maskInit[c>>3] |= 1 << (uint(c) & 7)
		l.maskWord |= 1 << uint(c)
	}
	l.wordMask = l.maskBytes <= 8 && l.width >= 8 && l.width-off <= 8
	return l
}

// WithKeySegments returns l for rows whose key rows hold strings: column c's
// may lie in segs[c] (none where its Prefix is 0). Such a string takes an
// empty slot (AppendChunkKeyed) and is read back from its key row
// (Gather.Refs).
func (l *Layout) WithKeySegments(segs []KeySegment) *Layout {
	k := *l
	k.keySegs = append([]KeySegment(nil), segs...)
	return &k
}

// keySegment returns column c's key segment: the zero KeySegment for none.
func (l *Layout) keySegment(c int) KeySegment {
	if l.keySegs == nil {
		return KeySegment{}
	}
	return l.keySegs[c]
}

// Width returns the aligned row width in bytes.
func (l *Layout) Width() int { return l.width }

// NumColumns returns the number of columns in the layout.
func (l *Layout) NumColumns() int { return len(l.types) }

// Types returns the column types.
func (l *Layout) Types() []vector.Type { return l.types }

// Offset returns the byte offset of column c within a row.
func (l *Layout) Offset(c int) int { return l.offsets[c] }

// valid reports whether column c of the given row is non-NULL.
func (l *Layout) valid(row []byte, c int) bool {
	return row[c>>3]&(1<<(uint(c)&7)) != 0
}
