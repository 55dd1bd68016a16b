package row

import (
	"encoding/binary"
	"math"
	"strings"

	"rowsort/internal/vector"
)

// This file holds the vectorized NSM→DSM gather kernels and the batched
// payload permute. They replace the value-at-a-time AppendTo/AppendRowFrom
// path on the sorter's hot output paths: each kernel dispatches on the
// column type once and then runs a tight loop over the rows, reading
// fixed-width values straight out of the flat row buffer. Three access
// shapes exist — contiguous ranges (sequential scans), index lists (sorted
// runs), and (set, index) references (merged output scattered across runs).

// GatherRangeColumn gathers column c of the contiguous rows
// [start, start+count) into v, a dense vector of count rows (see
// vector.NewDense). It is the sequential fast path of GatherChunk: no index
// list is materialized.
func (rs *RowSet) GatherRangeColumn(c, start, count int, v *vector.Vector) {
	l := rs.layout
	w := l.width
	off := l.offsets[c]
	base := start * w
	switch l.types[c] {
	case vector.Bool:
		d := v.Bools()
		for o := 0; o < count; o++ {
			rowb := rs.data[base+o*w : base+o*w+w]
			if !l.valid(rowb, c) {
				v.SetNull(o)
				continue
			}
			d[o] = rowb[off] != 0
		}
	case vector.Int8:
		d := v.Int8s()
		for o := 0; o < count; o++ {
			rowb := rs.data[base+o*w : base+o*w+w]
			if !l.valid(rowb, c) {
				v.SetNull(o)
				continue
			}
			d[o] = int8(rowb[off])
		}
	case vector.Uint8:
		d := v.Uint8s()
		for o := 0; o < count; o++ {
			rowb := rs.data[base+o*w : base+o*w+w]
			if !l.valid(rowb, c) {
				v.SetNull(o)
				continue
			}
			d[o] = rowb[off]
		}
	case vector.Int16:
		d := v.Int16s()
		for o := 0; o < count; o++ {
			rowb := rs.data[base+o*w : base+o*w+w]
			if !l.valid(rowb, c) {
				v.SetNull(o)
				continue
			}
			d[o] = int16(binary.LittleEndian.Uint16(rowb[off:]))
		}
	case vector.Uint16:
		d := v.Uint16s()
		for o := 0; o < count; o++ {
			rowb := rs.data[base+o*w : base+o*w+w]
			if !l.valid(rowb, c) {
				v.SetNull(o)
				continue
			}
			d[o] = binary.LittleEndian.Uint16(rowb[off:])
		}
	case vector.Int32:
		d := v.Int32s()
		for o := 0; o < count; o++ {
			rowb := rs.data[base+o*w : base+o*w+w]
			if !l.valid(rowb, c) {
				v.SetNull(o)
				continue
			}
			d[o] = int32(binary.LittleEndian.Uint32(rowb[off:]))
		}
	case vector.Uint32:
		d := v.Uint32s()
		for o := 0; o < count; o++ {
			rowb := rs.data[base+o*w : base+o*w+w]
			if !l.valid(rowb, c) {
				v.SetNull(o)
				continue
			}
			d[o] = binary.LittleEndian.Uint32(rowb[off:])
		}
	case vector.Int64:
		d := v.Int64s()
		for o := 0; o < count; o++ {
			rowb := rs.data[base+o*w : base+o*w+w]
			if !l.valid(rowb, c) {
				v.SetNull(o)
				continue
			}
			d[o] = int64(binary.LittleEndian.Uint64(rowb[off:]))
		}
	case vector.Uint64:
		d := v.Uint64s()
		for o := 0; o < count; o++ {
			rowb := rs.data[base+o*w : base+o*w+w]
			if !l.valid(rowb, c) {
				v.SetNull(o)
				continue
			}
			d[o] = binary.LittleEndian.Uint64(rowb[off:])
		}
	case vector.Float32:
		d := v.Float32s()
		for o := 0; o < count; o++ {
			rowb := rs.data[base+o*w : base+o*w+w]
			if !l.valid(rowb, c) {
				v.SetNull(o)
				continue
			}
			d[o] = math.Float32frombits(binary.LittleEndian.Uint32(rowb[off:]))
		}
	case vector.Float64:
		d := v.Float64s()
		for o := 0; o < count; o++ {
			rowb := rs.data[base+o*w : base+o*w+w]
			if !l.valid(rowb, c) {
				v.SetNull(o)
				continue
			}
			d[o] = math.Float64frombits(binary.LittleEndian.Uint64(rowb[off:]))
		}
	case vector.Varchar:
		d := v.Strings()
		total := 0
		for o := 0; o < count; o++ {
			rowb := rs.data[base+o*w : base+o*w+w]
			if l.valid(rowb, c) {
				total += int(binary.LittleEndian.Uint32(rowb[off+4:]))
			}
		}
		var b strings.Builder
		b.Grow(total)
		for o := 0; o < count; o++ {
			rowb := rs.data[base+o*w : base+o*w+w]
			if !l.valid(rowb, c) {
				continue
			}
			ho := binary.LittleEndian.Uint32(rowb[off:])
			hl := binary.LittleEndian.Uint32(rowb[off+4:])
			b.Write(rs.heap[ho : ho+hl])
		}
		// One backing allocation per column; the output strings are
		// zero-copy slices of it (heap compaction in a single pass).
		big := b.String()
		pos := 0
		for o := 0; o < count; o++ {
			rowb := rs.data[base+o*w : base+o*w+w]
			if !l.valid(rowb, c) {
				v.SetNull(o)
				continue
			}
			hl := int(binary.LittleEndian.Uint32(rowb[off+4:]))
			d[o] = big[pos : pos+hl]
			pos += hl
		}
	}
}

// GatherColumn gathers column c of the rows named by idxs into v, a dense
// vector of len(idxs) rows. Indices may repeat and appear in any order —
// this is the payload retrieval of a sorted run, where the sorted keys
// carry the row indices.
func (rs *RowSet) GatherColumn(c int, idxs []uint32, v *vector.Vector) {
	l := rs.layout
	w := l.width
	off := l.offsets[c]
	data := rs.data
	switch l.types[c] {
	case vector.Bool:
		d := v.Bools()
		for o, i := range idxs {
			rowb := data[int(i)*w : int(i)*w+w]
			if !l.valid(rowb, c) {
				v.SetNull(o)
				continue
			}
			d[o] = rowb[off] != 0
		}
	case vector.Int8:
		d := v.Int8s()
		for o, i := range idxs {
			rowb := data[int(i)*w : int(i)*w+w]
			if !l.valid(rowb, c) {
				v.SetNull(o)
				continue
			}
			d[o] = int8(rowb[off])
		}
	case vector.Uint8:
		d := v.Uint8s()
		for o, i := range idxs {
			rowb := data[int(i)*w : int(i)*w+w]
			if !l.valid(rowb, c) {
				v.SetNull(o)
				continue
			}
			d[o] = rowb[off]
		}
	case vector.Int16:
		d := v.Int16s()
		for o, i := range idxs {
			rowb := data[int(i)*w : int(i)*w+w]
			if !l.valid(rowb, c) {
				v.SetNull(o)
				continue
			}
			d[o] = int16(binary.LittleEndian.Uint16(rowb[off:]))
		}
	case vector.Uint16:
		d := v.Uint16s()
		for o, i := range idxs {
			rowb := data[int(i)*w : int(i)*w+w]
			if !l.valid(rowb, c) {
				v.SetNull(o)
				continue
			}
			d[o] = binary.LittleEndian.Uint16(rowb[off:])
		}
	case vector.Int32:
		d := v.Int32s()
		for o, i := range idxs {
			rowb := data[int(i)*w : int(i)*w+w]
			if !l.valid(rowb, c) {
				v.SetNull(o)
				continue
			}
			d[o] = int32(binary.LittleEndian.Uint32(rowb[off:]))
		}
	case vector.Uint32:
		d := v.Uint32s()
		for o, i := range idxs {
			rowb := data[int(i)*w : int(i)*w+w]
			if !l.valid(rowb, c) {
				v.SetNull(o)
				continue
			}
			d[o] = binary.LittleEndian.Uint32(rowb[off:])
		}
	case vector.Int64:
		d := v.Int64s()
		for o, i := range idxs {
			rowb := data[int(i)*w : int(i)*w+w]
			if !l.valid(rowb, c) {
				v.SetNull(o)
				continue
			}
			d[o] = int64(binary.LittleEndian.Uint64(rowb[off:]))
		}
	case vector.Uint64:
		d := v.Uint64s()
		for o, i := range idxs {
			rowb := data[int(i)*w : int(i)*w+w]
			if !l.valid(rowb, c) {
				v.SetNull(o)
				continue
			}
			d[o] = binary.LittleEndian.Uint64(rowb[off:])
		}
	case vector.Float32:
		d := v.Float32s()
		for o, i := range idxs {
			rowb := data[int(i)*w : int(i)*w+w]
			if !l.valid(rowb, c) {
				v.SetNull(o)
				continue
			}
			d[o] = math.Float32frombits(binary.LittleEndian.Uint32(rowb[off:]))
		}
	case vector.Float64:
		d := v.Float64s()
		for o, i := range idxs {
			rowb := data[int(i)*w : int(i)*w+w]
			if !l.valid(rowb, c) {
				v.SetNull(o)
				continue
			}
			d[o] = math.Float64frombits(binary.LittleEndian.Uint64(rowb[off:]))
		}
	case vector.Varchar:
		d := v.Strings()
		total := 0
		for _, i := range idxs {
			rowb := data[int(i)*w : int(i)*w+w]
			if l.valid(rowb, c) {
				total += int(binary.LittleEndian.Uint32(rowb[off+4:]))
			}
		}
		var b strings.Builder
		b.Grow(total)
		for _, i := range idxs {
			rowb := data[int(i)*w : int(i)*w+w]
			if !l.valid(rowb, c) {
				continue
			}
			ho := binary.LittleEndian.Uint32(rowb[off:])
			hl := binary.LittleEndian.Uint32(rowb[off+4:])
			b.Write(rs.heap[ho : ho+hl])
		}
		big := b.String()
		pos := 0
		for o, i := range idxs {
			rowb := data[int(i)*w : int(i)*w+w]
			if !l.valid(rowb, c) {
				v.SetNull(o)
				continue
			}
			hl := int(binary.LittleEndian.Uint32(rowb[off+4:]))
			d[o] = big[pos : pos+hl]
			pos += hl
		}
	}
}

// GatherRefsColumn gathers column c of the rows named by (which[i],
// idxs[i]) — row idxs[i] of sets[which[i]] — into v, a dense vector of
// len(idxs) rows. All sets must share one layout; entries of sets never
// referenced by which may be nil. This is the merged-output gather: after
// the cascaded merge, consecutive output rows reference payload scattered
// across the sorted runs.
func GatherRefsColumn(sets []*RowSet, which, idxs []uint32, c int, v *vector.Vector) {
	if len(idxs) == 0 {
		return
	}
	l := sets[which[0]].layout
	w := l.width
	off := l.offsets[c]
	switch l.types[c] {
	case vector.Bool:
		d := v.Bools()
		for o := range idxs {
			src := sets[which[o]]
			rowb := src.data[int(idxs[o])*w : int(idxs[o])*w+w]
			if !l.valid(rowb, c) {
				v.SetNull(o)
				continue
			}
			d[o] = rowb[off] != 0
		}
	case vector.Int8:
		d := v.Int8s()
		for o := range idxs {
			src := sets[which[o]]
			rowb := src.data[int(idxs[o])*w : int(idxs[o])*w+w]
			if !l.valid(rowb, c) {
				v.SetNull(o)
				continue
			}
			d[o] = int8(rowb[off])
		}
	case vector.Uint8:
		d := v.Uint8s()
		for o := range idxs {
			src := sets[which[o]]
			rowb := src.data[int(idxs[o])*w : int(idxs[o])*w+w]
			if !l.valid(rowb, c) {
				v.SetNull(o)
				continue
			}
			d[o] = rowb[off]
		}
	case vector.Int16:
		d := v.Int16s()
		for o := range idxs {
			src := sets[which[o]]
			rowb := src.data[int(idxs[o])*w : int(idxs[o])*w+w]
			if !l.valid(rowb, c) {
				v.SetNull(o)
				continue
			}
			d[o] = int16(binary.LittleEndian.Uint16(rowb[off:]))
		}
	case vector.Uint16:
		d := v.Uint16s()
		for o := range idxs {
			src := sets[which[o]]
			rowb := src.data[int(idxs[o])*w : int(idxs[o])*w+w]
			if !l.valid(rowb, c) {
				v.SetNull(o)
				continue
			}
			d[o] = binary.LittleEndian.Uint16(rowb[off:])
		}
	case vector.Int32:
		d := v.Int32s()
		for o := range idxs {
			src := sets[which[o]]
			rowb := src.data[int(idxs[o])*w : int(idxs[o])*w+w]
			if !l.valid(rowb, c) {
				v.SetNull(o)
				continue
			}
			d[o] = int32(binary.LittleEndian.Uint32(rowb[off:]))
		}
	case vector.Uint32:
		d := v.Uint32s()
		for o := range idxs {
			src := sets[which[o]]
			rowb := src.data[int(idxs[o])*w : int(idxs[o])*w+w]
			if !l.valid(rowb, c) {
				v.SetNull(o)
				continue
			}
			d[o] = binary.LittleEndian.Uint32(rowb[off:])
		}
	case vector.Int64:
		d := v.Int64s()
		for o := range idxs {
			src := sets[which[o]]
			rowb := src.data[int(idxs[o])*w : int(idxs[o])*w+w]
			if !l.valid(rowb, c) {
				v.SetNull(o)
				continue
			}
			d[o] = int64(binary.LittleEndian.Uint64(rowb[off:]))
		}
	case vector.Uint64:
		d := v.Uint64s()
		for o := range idxs {
			src := sets[which[o]]
			rowb := src.data[int(idxs[o])*w : int(idxs[o])*w+w]
			if !l.valid(rowb, c) {
				v.SetNull(o)
				continue
			}
			d[o] = binary.LittleEndian.Uint64(rowb[off:])
		}
	case vector.Float32:
		d := v.Float32s()
		for o := range idxs {
			src := sets[which[o]]
			rowb := src.data[int(idxs[o])*w : int(idxs[o])*w+w]
			if !l.valid(rowb, c) {
				v.SetNull(o)
				continue
			}
			d[o] = math.Float32frombits(binary.LittleEndian.Uint32(rowb[off:]))
		}
	case vector.Float64:
		d := v.Float64s()
		for o := range idxs {
			src := sets[which[o]]
			rowb := src.data[int(idxs[o])*w : int(idxs[o])*w+w]
			if !l.valid(rowb, c) {
				v.SetNull(o)
				continue
			}
			d[o] = math.Float64frombits(binary.LittleEndian.Uint64(rowb[off:]))
		}
	case vector.Varchar:
		d := v.Strings()
		total := 0
		for o := range idxs {
			src := sets[which[o]]
			rowb := src.data[int(idxs[o])*w : int(idxs[o])*w+w]
			if l.valid(rowb, c) {
				total += int(binary.LittleEndian.Uint32(rowb[off+4:]))
			}
		}
		var b strings.Builder
		b.Grow(total)
		for o := range idxs {
			src := sets[which[o]]
			rowb := src.data[int(idxs[o])*w : int(idxs[o])*w+w]
			if !l.valid(rowb, c) {
				continue
			}
			ho := binary.LittleEndian.Uint32(rowb[off:])
			hl := binary.LittleEndian.Uint32(rowb[off+4:])
			b.Write(src.heap[ho : ho+hl])
		}
		big := b.String()
		pos := 0
		for o := range idxs {
			src := sets[which[o]]
			rowb := src.data[int(idxs[o])*w : int(idxs[o])*w+w]
			if !l.valid(rowb, c) {
				v.SetNull(o)
				continue
			}
			hl := int(binary.LittleEndian.Uint32(rowb[off+4:]))
			d[o] = big[pos : pos+hl]
			pos += hl
		}
	}
}

// GatherRange converts rows [start, start+count) back to vectors, one
// dense vector per column, through the range kernels.
func (rs *RowSet) GatherRange(start, count int) []*vector.Vector {
	l := rs.layout
	out := make([]*vector.Vector, len(l.types))
	for c, t := range l.types {
		v := vector.NewDense(t, count)
		rs.GatherRangeColumn(c, start, count, v)
		out[c] = v
	}
	return out
}

// GatherRows converts the rows named by idxs back to vectors, one dense
// vector per column, through the indexed kernels.
func (rs *RowSet) GatherRows(idxs []uint32) []*vector.Vector {
	l := rs.layout
	out := make([]*vector.Vector, len(l.types))
	for c, t := range l.types {
		v := vector.NewDense(t, len(idxs))
		rs.GatherColumn(c, idxs, v)
		out[c] = v
	}
	return out
}

// AppendRowsFrom appends the rows of src named by idxs, in index order —
// the batched form of AppendRowFrom used to physically reorder a run's
// payload after its keys are sorted. Row bytes are copied in one loop;
// each varchar column's heap data is then compacted into this set's heap
// in a single pre-sized pass, with the (offset, length) references
// rewritten in place.
func (rs *RowSet) AppendRowsFrom(src *RowSet, idxs []uint32) {
	w := rs.layout.width
	base := rs.n
	rs.data = extendBytes(rs.data, len(idxs)*w)
	dst := rs.data[base*w:]
	for o, i := range idxs {
		copy(dst[o*w:(o+1)*w], src.data[int(i)*w:int(i)*w+w])
	}
	rs.n += len(idxs)
	rs.compactHeapFrom(func(int) *RowSet { return src }, base, len(idxs))
}

// AppendRowsGather appends the rows named by (which[i], idxs[i]) — row
// idxs[i] of srcs[which[i]] — in reference order. It is AppendRowsFrom for
// payload scattered across several sets (a pairwise run merge); all sets
// must share this set's layout.
func (rs *RowSet) AppendRowsGather(srcs []*RowSet, which, idxs []uint32) {
	w := rs.layout.width
	base := rs.n
	rs.data = extendBytes(rs.data, len(idxs)*w)
	dst := rs.data[base*w:]
	for o := range idxs {
		src := srcs[which[o]]
		i := int(idxs[o])
		copy(dst[o*w:(o+1)*w], src.data[i*w:i*w+w])
	}
	rs.n += len(idxs)
	rs.compactHeapFrom(func(o int) *RowSet { return srcs[which[o]] }, base, len(idxs))
}

// compactHeapFrom rewrites the heap references of the count rows starting
// at row base (freshly copied from the source sets) to point into this
// set's heap, copying the string bytes over column by column. srcAt returns
// the set the o-th copied row came from.
func (rs *RowSet) compactHeapFrom(srcAt func(o int) *RowSet, base, count int) {
	l := rs.layout
	for c, t := range l.types {
		if t != vector.Varchar {
			continue
		}
		off := l.offsets[c]
		total := 0
		for o := 0; o < count; o++ {
			rowb := rs.Row(base + o)
			if l.valid(rowb, c) {
				total += int(binary.LittleEndian.Uint32(rowb[off+4:]))
			}
		}
		rs.heap = reserveBytes(rs.heap, total)
		for o := 0; o < count; o++ {
			rowb := rs.Row(base + o)
			if !l.valid(rowb, c) {
				continue
			}
			so := binary.LittleEndian.Uint32(rowb[off:])
			hl := binary.LittleEndian.Uint32(rowb[off+4:])
			binary.LittleEndian.PutUint32(rowb[off:], uint32(len(rs.heap)))
			rs.heap = append(rs.heap, srcAt(o).heap[so:so+hl]...)
		}
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
