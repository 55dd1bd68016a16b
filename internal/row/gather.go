package row

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"math"
	"math/bits"
	"strings"
	"sync"

	"rowsort/internal/vector"
)

// This file holds the gather (NSM→DSM) and the payload reorder. They replace
// the value-at-a-time AppendTo on the sorter's hot paths, which stays as the
// reference the gather is tested against (the reorder's, AppendRowFrom, is in
// kernels_test.go).

// Gather converts rows back to vectors, a chunk at a time. A chunk's rows are
// first resolved — each output row's bytes found once, wherever they are — in
// one of four shapes: a contiguous range of one set (Range), an index list
// into one set (Index: a sorted run's payload), (set, index) references
// across sets sharing a layout (Refs: a merge's output), or rows riding
// behind their keys in key rows (Inline: a merge's output whose payload is
// in its key rows). Resolving also ANDs the rows' masks, so the gather knows
// exactly which columns hold a NULL.
// Vectors then converts each column with one typed loop over the resolved
// rows, and tests validity only in those columns. A string of a keyed
// layout's slotless column is read from the key row Refs is given beside the
// row when its key segment holds it, and from the row's overflow record when
// not.
//
// A Gather is scratch for one goroutine; reused, it allocates only the
// vectors it returns and one backing string per varchar column.
type Gather struct {
	layout *Layout
	rows   [][]byte // the resolved rows, in output order
	heaps  [][]byte // each one's string heap
	keys   [][]byte // each one's key row, when Refs was given them
	lens   []uint32 // a string column's lengths, in output order
	over   [][]byte // and, of a slotless one, its overflowing strings' bytes
	nulls  []byte   // per mask byte: the columns NULL in some resolved row
}

// NewGather returns a gather of rows of layout l.
func NewGather(l *Layout) *Gather { return &Gather{layout: l} }

// Range resolves rows [start, start+count) of rs.
func (g *Gather) Range(rs *RowSet, start, count int) {
	w := g.layout.width
	rows, heaps := g.resolve(count)
	data, heap := rs.data[start*w:(start+count)*w], rs.heap
	for o := range rows {
		rows[o], heaps[o] = data[o*w:o*w+w:o*w+w], heap
	}
	g.scanMasks()
}

// Index resolves the rows of rs named by idxs, in that order. Indices may
// repeat and appear in any order.
func (g *Gather) Index(rs *RowSet, idxs []uint32) {
	w := g.layout.width
	rows, heaps := g.resolve(len(idxs))
	data, heap := rs.data, rs.heap
	for o, i := range idxs {
		at := int(i) * w
		rows[o], heaps[o] = data[at:at+w:at+w], heap
	}
	g.scanMasks()
}

// Refs resolves row idxs[o] of sets[which[o]], for every o. The sets share
// the gather's layout; those no reference names may be nil. keys[o], when
// keys is not nil, is the row's key row, where the strings its key segments
// hold are; a keyed layout's gather must be given them.
func (g *Gather) Refs(sets []*RowSet, which, idxs []uint32, keys [][]byte) {
	w := g.layout.width
	rows, heaps := g.resolve(len(idxs))
	for o, i := range idxs {
		src, at := sets[which[o]], int(i)*w
		rows[o], heaps[o] = src.data[at:at+w:at+w], src.heap
	}
	g.keys = keys
	g.scanMasks()
}

// Inline resolves rows that ride in key rows: the row of keys[o] is
// keys[o][off:], of the gather's layout, which has no string column.
func (g *Gather) Inline(keys [][]byte, off int) {
	w := g.layout.width
	rows, heaps := g.resolve(len(keys))
	for o, k := range keys {
		rows[o], heaps[o] = k[off:off+w:off+w], nil
	}
	g.scanMasks()
}

// resolve readies the scratch for n rows, with no key rows.
func (g *Gather) resolve(n int) (rows, heaps [][]byte) {
	if cap(g.rows) < n {
		g.rows, g.heaps = make([][]byte, n), make([][]byte, n)
	}
	g.rows, g.heaps, g.keys = g.rows[:n], g.heaps[:n], nil
	return g.rows, g.heaps
}

// scanMasks finds the columns NULL in some resolved row: those whose bit is
// clear in the AND of the rows' masks — read a word a row where the mask fits
// one, a byte at a time where it does not.
func (g *Gather) scanMasks() {
	l := g.layout
	if cap(g.nulls) < l.maskBytes {
		g.nulls = make([]byte, l.maskBytes)
	}
	nulls := g.nulls[:l.maskBytes]
	g.nulls = nulls
	if l.wordMask {
		all := ^uint64(0)
		for _, r := range g.rows {
			all &= binary.LittleEndian.Uint64(r)
		}
		var word [8]byte
		binary.LittleEndian.PutUint64(word[:], ^all&l.maskWord)
		copy(nulls, word[:])
		return
	}
	copy(nulls, l.maskInit)
	for _, r := range g.rows {
		for j := range nulls {
			nulls[j] &= r[j]
		}
	}
	for j := range nulls {
		nulls[j] ^= l.maskInit[j]
	}
}

// Vectors converts the resolved rows into one new dense vector per column.
func (g *Gather) Vectors() []*vector.Vector {
	out := make([]*vector.Vector, len(g.layout.types))
	for c, t := range g.layout.types {
		out[c] = vector.NewDense(t, len(g.rows))
		g.column(c, out[c])
	}
	return out
}

// column converts column c of the resolved rows into v, a dense vector of as
// many rows. A NULL slot holds zero bytes, so the loops read it like any
// other; the NULL rows are marked afterwards, in a column that has any.
func (g *Gather) column(c int, v *vector.Vector) {
	l, rows := g.layout, g.rows
	off := l.offsets[c]
	switch l.types[c] {
	case vector.Bool:
		d := v.Bools()[:len(rows)]
		for o, r := range rows {
			d[o] = r[off] != 0
		}
	case vector.Int8:
		d := v.Int8s()[:len(rows)]
		for o, r := range rows {
			d[o] = int8(r[off])
		}
	case vector.Uint8:
		d := v.Uint8s()[:len(rows)]
		for o, r := range rows {
			d[o] = r[off]
		}
	case vector.Int16:
		d := v.Int16s()[:len(rows)]
		for o, r := range rows {
			d[o] = int16(binary.LittleEndian.Uint16(r[off:]))
		}
	case vector.Uint16:
		d := v.Uint16s()[:len(rows)]
		for o, r := range rows {
			d[o] = binary.LittleEndian.Uint16(r[off:])
		}
	case vector.Int32:
		d := v.Int32s()[:len(rows)]
		for o, r := range rows {
			d[o] = int32(binary.LittleEndian.Uint32(r[off:]))
		}
	case vector.Uint32:
		d := v.Uint32s()[:len(rows)]
		for o, r := range rows {
			d[o] = binary.LittleEndian.Uint32(r[off:])
		}
	case vector.Int64:
		d := v.Int64s()[:len(rows)]
		for o, r := range rows {
			d[o] = int64(binary.LittleEndian.Uint64(r[off:]))
		}
	case vector.Uint64:
		d := v.Uint64s()[:len(rows)]
		for o, r := range rows {
			d[o] = binary.LittleEndian.Uint64(r[off:])
		}
	case vector.Float32:
		d := v.Float32s()[:len(rows)]
		for o, r := range rows {
			d[o] = math.Float32frombits(binary.LittleEndian.Uint32(r[off:]))
		}
	case vector.Float64:
		d := v.Float64s()[:len(rows)]
		for o, r := range rows {
			d[o] = math.Float64frombits(binary.LittleEndian.Uint64(r[off:]))
		}
	case vector.Varchar:
		if off < 0 {
			g.segStrings(c, v.Strings()[:len(rows)])
		} else {
			g.strings(off, v.Strings()[:len(rows)])
		}
	}
	if bit := byte(1) << (uint(c) & 7); g.nulls[c>>3]&bit != 0 {
		for o, r := range rows {
			if r[c>>3]&bit == 0 {
				v.SetNull(o)
			}
		}
	}
}

// strings gathers the string slot at offset off of the resolved rows into
// d. The bytes are copied once, in output order, into one allocation that
// every value is a slice of.
func (g *Gather) strings(off int, d []string) {
	lens, total := fit(&g.lens, len(g.rows)), 0
	for o, r := range g.rows {
		n := binary.LittleEndian.Uint32(r[off+4:])
		lens[o], total = n, total+int(n)
	}
	var b strings.Builder
	b.Grow(total)
	for o, r := range g.rows {
		pos, ho := b.Len(), binary.LittleEndian.Uint32(r[off:])
		b.Write(g.heaps[o][ho : ho+lens[o]])
		// The builder never reallocates past Grow, so the bytes behind
		// every earlier String stay put.
		d[o] = b.String()[pos:]
	}
}

// segStrings gathers column c, a slotless column, of the resolved rows into
// d: a string whose key segment's residence byte says the segment holds it
// from the row's key row, and any other from the row's overflow record. A
// held string whose segment — validity byte through last prefix byte —
// equals the previous output row's held one is that row's string again:
// sorted keys put equal strings side by side, and they share bytes. The
// others are copied once, in output order, into one allocation every one of
// them is a slice of.
func (g *Gather) segStrings(c int, d []string) {
	l, seg := g.layout, g.layout.keySegs[c]
	if g.keys == nil {
		panic(fmt.Sprintf("row: column %d's strings may lie in their keys, and the gather has no key rows", c))
	}
	lens, total := fit(&g.lens, len(g.rows)), 0
	if cap(g.over) < len(g.rows) {
		g.over = make([][]byte, len(g.rows))
	}
	over, j := g.over[:len(g.rows)], l.segAt[c]
	words := seg.Prefix <= 16 // a held string's length is read as two words
	lo, hi := seg.Off-1, seg.Off+seg.Prefix
	var prev []byte // the previous output row's segment, when its key held the string
	for o, k := range g.keys[:len(g.rows)] {
		if k[seg.Off+seg.Prefix] != 0 {
			// An overflowing string has a byte at least, so its row a record.
			b := l.recordBytes(g.heaps[o][binary.LittleEndian.Uint32(g.rows[o][l.refOff:]):], j)
			lens[o], over[o], total, prev = uint32(len(b)), b, total+len(b), nil
			continue
		}
		if string(k[lo:hi]) == string(prev) {
			lens[o] = sameAsPrev
			continue
		}
		var n uint32
		if words && len(k)-seg.Off >= 16 {
			n = heldLen(k[seg.Off:])
		} else {
			n = uint32(bytes.IndexByte(k[seg.Off:], 0))
		}
		lens[o], total, prev = n|inKey, total+int(n), k[lo:hi]
	}
	var b strings.Builder
	b.Grow(total)
	for o, n := range lens {
		pos := b.Len()
		switch {
		case n == sameAsPrev:
			d[o] = d[o-1]
			continue
		case n&inKey != 0:
			b.Write(g.keys[o][seg.Off : seg.Off+int(n&^inKey)])
		default:
			b.Write(over[o])
		}
		d[o] = b.String()[pos:]
	}
}

// fit returns *s cut to n entries, grown first if it holds fewer.
func fit(s *[]uint32, n int) []uint32 {
	if cap(*s) < n {
		*s = make([]uint32, n)
	}
	return (*s)[:n]
}

// inKey flags a gathered string's length: the string lies in its key row;
// sameAsPrev, in place of a length, says it is the previous output row's.
const (
	inKey      = 1 << 31
	sameAsPrev = ^uint32(0)
)

// heldLen returns the length of the string a key segment of at most 16
// bytes holds, given at least 16 bytes of the key row from the segment's
// first byte on: its first zero byte's index (a held string has no NUL, and
// the residence byte behind it is 0), found with no branch on the length.
func heldLen(key []byte) uint32 {
	lo := bits.TrailingZeros64(zeroBytes(binary.LittleEndian.Uint64(key[:8]))) >> 3
	hi := bits.TrailingZeros64(zeroBytes(binary.LittleEndian.Uint64(key[8:16]))) >> 3
	return uint32(lo + (lo>>3)*hi)
}

// zeroBytes returns a word whose lowest set bit is the high bit of x's
// lowest zero byte: 0 when x has none.
func zeroBytes(x uint64) uint64 {
	return (x - 0x0101010101010101) &^ x & 0x8080808080808080
}

// gathers recycles the scratch of GatherChunk's one-off gathers, so that a
// caller timing GatherChunk (the benchmark's layer replay) times the kernel,
// not a scratch allocation the sorter's own gathers never make.
var gathers = sync.Pool{New: func() any { return new(Gather) }}

// GatherChunk converts rows [start, start+count) back to vectors (NSM to
// DSM), returning one vector per column.
func (rs *RowSet) GatherChunk(start, count int) []*vector.Vector {
	g := gathers.Get().(*Gather)
	g.layout = rs.layout
	g.Range(rs, start, count)
	out := g.Vectors()
	clear(g.rows) // the pool must not keep rs alive
	clear(g.heaps)
	gathers.Put(g)
	return out
}

// AppendPermuted appends the rows of src in the order perm names them, a perm
// that names no row of src twice: the reorder of a run's payload after its
// keys are sorted. No two rows of a set share heap bytes, so the strings and
// overflow records fit in src's heap length, and the heap is sized by it
// without the pass that sums them.
func (rs *RowSet) AppendPermuted(src *RowSet, perm []uint32) {
	rs.reorder([]*RowSet{src}, nil, perm, len(src.heap))
}

// AppendRowsGather appends the rows named by (which[i], idxs[i]) — row
// idxs[i] of srcs[which[i]], of srcs[0] when which is nil — in reference
// order: payload scattered across several sets (a spill block's staging).
// Indices may repeat and leave gaps; all sets must share this set's layout.
func (rs *RowSet) AppendRowsGather(srcs []*RowSet, which, idxs []uint32) {
	rs.reorder(srcs, which, idxs, -1)
}

// reorder appends row idxs[o] of srcs[which[o]] — of srcs[0] when which is
// nil — for every o, in two passes: the rows, then their strings. room bounds
// the heap bytes the strings take; -1 has them summed.
func (rs *RowSet) reorder(srcs []*RowSet, which, idxs []uint32, room int) {
	rows := rs.extendRows(len(idxs))
	if rs.layout.width == 0 {
		return // rows of no bytes: the sources need not even exist
	}
	copyRows(rows, rs.layout.width, srcs, which, idxs)
	rs.moveStrings(rows, srcs, which, room)
}

// extendRows appends n rows, unwritten, and returns their bytes.
func (rs *RowSet) extendRows(n int) []byte {
	w, start := rs.layout.width, rs.n
	rs.data = extendBytes(rs.data, n*w)
	rs.n += n
	return rs.data[start*w:]
}

// moveStrings is the reorder's second pass. The rows were copied from their
// sources — row o from srcs[which[o]], or from srcs[0] when which is nil —
// with heap references into the sources' heaps; their strings, slot column
// after slot column, and then their overflow records, each moved whole, are
// copied into this set's heap, sized once to room bytes (summed first when
// room is -1) and cut to what they took, and the references pointed there.
// Copying every row first and the strings after is what lets the row loads
// overlap: a string's source offset is in the row just loaded.
func (rs *RowSet) moveStrings(rows []byte, srcs []*RowSet, which []uint32, room int) {
	l := rs.layout
	if len(l.strCols)+len(l.segCols) == 0 || len(rows) == 0 {
		return
	}
	w, ro, nseg, src := l.width, l.refOff, len(l.segCols), srcs[0]
	if room < 0 {
		room = 0
		for o, r := 0, 0; o < len(rows); o, r = o+w, r+1 {
			row := rows[o : o+w : o+w]
			for _, c := range l.strCols {
				if l.valid(row, c) {
					room += int(binary.LittleEndian.Uint32(row[l.offsets[c]+4:]))
				}
			}
			if nseg == 0 {
				continue
			}
			if ref := binary.LittleEndian.Uint32(row[ro:]); ref != noRecord {
				if which != nil {
					src = srcs[which[r]]
				}
				room += l.recordLen(src.heap[ref:])
			}
		}
	}
	pos := len(rs.heap)
	heap := extendBytes(rs.heap, room)
	for _, c := range l.strCols {
		off, mb, bit := l.offsets[c], c>>3, byte(1)<<(uint(c)&7)
		for o, r := 0, 0; o < len(rows); o, r = o+w, r+1 {
			slot := rows[o+off : o+off+8 : o+off+8]
			if rows[o+mb]&bit == 0 {
				continue
			}
			if which != nil {
				src = srcs[which[r]]
			}
			so, hl := int(binary.LittleEndian.Uint32(slot)), int(binary.LittleEndian.Uint32(slot[4:]))
			binary.LittleEndian.PutUint32(slot, uint32(pos))
			moveBytes(heap, pos, src.heap, so, hl)
			pos += hl
		}
	}
	for o, r := ro, 0; nseg > 0 && o < len(rows); o, r = o+w, r+1 {
		ref := rows[o : o+refBytes : o+refBytes]
		so := binary.LittleEndian.Uint32(ref)
		if so == noRecord {
			continue
		}
		if which != nil {
			src = srcs[which[r]]
		}
		hl := l.recordLen(src.heap[so:])
		binary.LittleEndian.PutUint32(ref, uint32(pos))
		moveBytes(heap, pos, src.heap, int(so), hl)
		pos += hl
	}
	rs.heap = heap[:pos]
}

// moveBytes copies the hl bytes at so in the heap sh to pos in the heap heap.
// Bytes of at most 16 move as two words, of at most 32 as four, where both
// heaps have that many bytes from their offsets on: the bytes past the end
// are written only ahead of pos, where the bytes still to come overwrite
// them.
func moveBytes(heap []byte, pos int, sh []byte, so, hl int) {
	switch {
	case hl == 0:
	case hl <= 16 && so+16 <= len(sh) && pos+16 <= len(heap):
		Move16(heap[pos:], sh[so:])
	case hl <= 32 && so+32 <= len(sh) && pos+32 <= len(heap):
		Move32(heap[pos:], sh[so:])
	default:
		copy(heap[pos:pos+hl], sh[so:so+hl])
	}
}

// reserveBytes returns b with room for n more bytes, growing by amortized
// doubling. It is the package's one growth policy: append's own (1.25x
// steps once a slice is large) recopies a run-sized buffer many times over.
func reserveBytes(b []byte, n int) []byte {
	if need := len(b) + n; cap(b) < need {
		return withCap(b, max(2*cap(b), need))
	}
	return b
}

// extendBytes lengthens b by n bytes, growing it as reserveBytes does. The
// new bytes may be stale (spare capacity of a recycled buffer): a caller
// either overwrites the whole extension or clears it.
func extendBytes(b []byte, n int) []byte {
	return reserveBytes(b, n)[:len(b)+n]
}

// Reset empties the row set, keeping its allocated buffers for reuse. The
// layout is unchanged.
func (rs *RowSet) Reset() {
	rs.data = rs.data[:0]
	rs.heap = rs.heap[:0]
	rs.n = 0
}
