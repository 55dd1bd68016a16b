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
// padded to the alignment. A layout WithKeySegments gives a string column
// with a key segment no slot: the row ends with one overflow reference
// instead (see WithKeySegments).
type Layout struct {
	types     []vector.Type
	offsets   []int // per column, its slot's offset: -1 for a column in the overflow record
	strCols   []int // the Varchar columns with a slot
	segCols   []int // the Varchar columns without one, whose strings lie in their keys or the overflow record
	segAt     []int // per column, its place among segCols
	refOff    int   // the overflow reference's offset, when there are segCols
	recHdr    int   // an overflow record's length words: lenBytes a segCol
	align     int
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

// refBytes is the width of a row's overflow reference, lenBytes that of a
// length word of its record, and noRecord the reference of a row that has no
// overflow record.
const (
	refBytes = 4
	lenBytes = 4
	noRecord = ^uint32(0)
)

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
	return newLayout(types, align, nil)
}

// newLayout lays out a row of types at align, segs[c], when segs is not nil,
// being column c's key segment: a string column with one takes no slot.
func newLayout(types []vector.Type, align int, segs []KeySegment) *Layout {
	l := &Layout{
		types:     append([]vector.Type(nil), types...),
		align:     align,
		maskBytes: (len(types) + 7) / 8,
	}
	off := l.maskBytes
	for c, t := range types {
		if !t.IsValid() {
			panic(fmt.Sprintf("row: invalid column type %v", t))
		}
		if segs != nil && segs[c].Prefix > 0 {
			if t != vector.Varchar {
				panic(fmt.Sprintf("row: column %d is %v and has a key segment", c, t))
			}
			l.segAt = append(l.segAt, len(l.segCols))
			l.segCols = append(l.segCols, c)
			l.offsets = append(l.offsets, -1)
			continue
		}
		if t == vector.Varchar {
			l.strCols = append(l.strCols, c)
		}
		l.segAt = append(l.segAt, -1)
		l.offsets = append(l.offsets, off)
		off += t.Width()
	}
	if len(l.segCols) > 0 {
		l.refOff, off = off, off+refBytes
		l.recHdr = lenBytes * len(l.segCols)
		l.keySegs = append([]KeySegment(nil), segs...)
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
// may lie in segs[c] (none where its Prefix is 0). Such a column has no slot.
// Where its segment holds a string (AppendChunkKeyed), the string is read
// back from its key row (Gather.Refs); where it does not, the string is in
// the row's overflow record: one heap record a row, named by the 4-byte
// reference the row ends with — noRecord where every such string of the row
// is held by its key or NULL — holding a uint32 length per such column, 0
// for a string its key holds, and then the overflowing strings' bytes, in
// column order.
func (l *Layout) WithKeySegments(segs []KeySegment) *Layout {
	return newLayout(l.types, l.align, segs)
}

// Width returns the aligned row width in bytes.
func (l *Layout) Width() int { return l.width }

// NumColumns returns the number of columns in the layout.
func (l *Layout) NumColumns() int { return len(l.types) }

// Types returns the column types.
func (l *Layout) Types() []vector.Type { return l.types }

// Offset returns the byte offset of column c within a row: -1 for a column
// with no slot, whose strings lie in their keys or the overflow record.
func (l *Layout) Offset(c int) int { return l.offsets[c] }

// valid reports whether column c of the given row is non-NULL.
func (l *Layout) valid(row []byte, c int) bool {
	return row[c>>3]&(1<<(uint(c)&7)) != 0
}
