package row

import (
	"encoding/binary"
	"math"
	"strings"
	"sync"

	"rowsort/internal/vector"
)

// This file holds the gather (NSM→DSM) and the payload reorder. They replace
// the value-at-a-time AppendTo/AppendRowFrom on the sorter's hot paths, which
// stay as the references the kernels are tested against.

// Gather converts rows back to vectors, a chunk at a time. A chunk's rows are
// first resolved — each output row's bytes found once, wherever they are — in
// one of three shapes: a contiguous range of one set (Range), an index list
// into one set (Index: a sorted run's payload), or (set, index) references
// across sets sharing a layout (Refs: a merge's output). Resolving also ANDs
// the rows' masks, so the gather knows exactly which columns hold a NULL.
// Vectors then converts each column with one typed loop over the resolved
// rows, and tests validity only in those columns.
//
// A Gather is scratch for one goroutine; reused, it allocates only the
// vectors it returns and one backing string per varchar column.
type Gather struct {
	layout *Layout
	rows   [][]byte // the resolved rows, in output order
	heaps  [][]byte // each one's string heap
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
// the gather's layout; those no reference names may be nil.
func (g *Gather) Refs(sets []*RowSet, which, idxs []uint32) {
	w := g.layout.width
	rows, heaps := g.resolve(len(idxs))
	for o, i := range idxs {
		src, at := sets[which[o]], int(i)*w
		rows[o], heaps[o] = src.data[at:at+w:at+w], src.heap
	}
	g.scanMasks()
}

// resolve readies the scratch for n rows.
func (g *Gather) resolve(n int) (rows, heaps [][]byte) {
	if cap(g.rows) < n {
		g.rows, g.heaps = make([][]byte, n), make([][]byte, n)
	}
	g.rows, g.heaps = g.rows[:n], g.heaps[:n]
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
		g.strings(off, v.Strings()[:len(rows)])
	}
	if bit := byte(1) << (uint(c) & 7); g.nulls[c>>3]&bit != 0 {
		for o, r := range rows {
			if r[c>>3]&bit == 0 {
				v.SetNull(o)
			}
		}
	}
}

// strings gathers the string slot at offset off of the resolved rows into d.
// The bytes are copied once, in output order, into one allocation that every
// value is a slice of.
func (g *Gather) strings(off int, d []string) {
	total := 0
	for _, r := range g.rows {
		total += int(binary.LittleEndian.Uint32(r[off+4:]))
	}
	var b strings.Builder
	b.Grow(total)
	for o, r := range g.rows {
		ho := binary.LittleEndian.Uint32(r[off:])
		hl := binary.LittleEndian.Uint32(r[off+4:])
		pos := b.Len()
		b.Write(g.heaps[o][ho : ho+hl])
		// The builder never reallocates past Grow, so the bytes behind
		// every earlier String stay put.
		d[o] = b.String()[pos:]
	}
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
// keys are sorted. No two rows of a set share heap bytes, so the strings fit
// in src's heap length, and the heap is sized by it without the pass that
// sums them.
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
// with heap references into the sources' heaps; their strings are copied into
// this set's heap, sized once to room bytes (summed first when room is -1)
// and cut to what they took, column after column, and the references pointed
// there. Copying every row first and the strings after is what lets the row
// loads overlap: a string's source offset is in the row just loaded. A string
// of at most 16 bytes moves as two words, one of at most 32 as four, where
// both heaps have that many bytes from its offset on: the bytes past its end
// are written only ahead of pos, where the strings still to come overwrite
// them.
func (rs *RowSet) moveStrings(rows []byte, srcs []*RowSet, which []uint32, room int) {
	l := rs.layout
	if len(l.strCols) == 0 || len(rows) == 0 {
		return
	}
	w := l.width
	if room < 0 {
		room = 0
		for o := 0; o < len(rows); o += w {
			row := rows[o : o+w : o+w]
			for _, c := range l.strCols {
				if l.valid(row, c) {
					room += int(binary.LittleEndian.Uint32(row[l.offsets[c]+4:]))
				}
			}
		}
	}
	pos := len(rs.heap)
	heap, src := extendBytes(rs.heap, room), srcs[0]
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
			so := int(binary.LittleEndian.Uint32(slot))
			hl := int(binary.LittleEndian.Uint32(slot[4:]))
			binary.LittleEndian.PutUint32(slot, uint32(pos))
			switch sh := src.heap; {
			case hl <= 16 && so+16 <= len(sh) && pos+16 <= len(heap):
				Move16(heap[pos:], sh[so:])
			case hl <= 32 && so+32 <= len(sh) && pos+32 <= len(heap):
				Move32(heap[pos:], sh[so:])
			default:
				copy(heap[pos:pos+hl], sh[so:so+hl])
			}
			pos += hl
		}
	}
	rs.heap = heap[:pos]
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
