package row

import "encoding/binary"

// The row movers. Rows are padded to 8 bytes so that they move as whole
// words; Move16 to Move40 copy the strides the sorter's key and payload rows
// have as unrolled 8-byte loads and stores, the loads first, so that one
// bounds check a slice covers them all. Only those strides are unrolled: a
// generic word loop is slower than memmove from 24 to 112 bytes, so every
// other width keeps copy. dst and src must not overlap.

// Move16 copies the first 16 bytes of src to dst.
func Move16(dst, src []byte) {
	dst, src = dst[:16:16], src[:16:16]
	w0, w1 := binary.LittleEndian.Uint64(src), binary.LittleEndian.Uint64(src[8:])
	binary.LittleEndian.PutUint64(dst, w0)
	binary.LittleEndian.PutUint64(dst[8:], w1)
}

// Move24 copies the first 24 bytes of src to dst.
func Move24(dst, src []byte) {
	dst, src = dst[:24:24], src[:24:24]
	w0, w1, w2 := binary.LittleEndian.Uint64(src), binary.LittleEndian.Uint64(src[8:]), binary.LittleEndian.Uint64(src[16:])
	binary.LittleEndian.PutUint64(dst, w0)
	binary.LittleEndian.PutUint64(dst[8:], w1)
	binary.LittleEndian.PutUint64(dst[16:], w2)
}

// Move32 copies the first 32 bytes of src to dst.
func Move32(dst, src []byte) {
	dst, src = dst[:32:32], src[:32:32]
	w0, w1 := binary.LittleEndian.Uint64(src), binary.LittleEndian.Uint64(src[8:])
	w2, w3 := binary.LittleEndian.Uint64(src[16:]), binary.LittleEndian.Uint64(src[24:])
	binary.LittleEndian.PutUint64(dst, w0)
	binary.LittleEndian.PutUint64(dst[8:], w1)
	binary.LittleEndian.PutUint64(dst[16:], w2)
	binary.LittleEndian.PutUint64(dst[24:], w3)
}

// Move40 copies the first 40 bytes of src to dst.
func Move40(dst, src []byte) {
	dst, src = dst[:40:40], src[:40:40]
	w0, w1 := binary.LittleEndian.Uint64(src), binary.LittleEndian.Uint64(src[8:])
	w2, w3 := binary.LittleEndian.Uint64(src[16:]), binary.LittleEndian.Uint64(src[24:])
	w4 := binary.LittleEndian.Uint64(src[32:])
	binary.LittleEndian.PutUint64(dst, w0)
	binary.LittleEndian.PutUint64(dst[8:], w1)
	binary.LittleEndian.PutUint64(dst[16:], w2)
	binary.LittleEndian.PutUint64(dst[24:], w3)
	binary.LittleEndian.PutUint64(dst[32:], w4)
}

// MoveRow copies the row src, all of it, to the front of dst: as words where
// its width is one of the movers', with copy otherwise. A loop over many rows
// of one width picks the mover once, outside the loop (copyRows).
func MoveRow(dst, src []byte) {
	switch len(src) {
	case 16:
		Move16(dst, src)
	case 24:
		Move24(dst, src)
	case 32:
		Move32(dst, src)
	case 40:
		Move40(dst, src)
	default:
		copy(dst, src)
	}
}

// copyRows copies row idxs[o] of srcs[which[o]] — of srcs[0] when which is
// nil — to rows[o*w:], for every o: the reorder's first pass. The mover is
// chosen once, for the stride.
func copyRows(rows []byte, w int, srcs []*RowSet, which, idxs []uint32) {
	var src []byte
	if which == nil {
		src = srcs[0].data
	}
	switch w {
	case 16:
		for o, i := range idxs {
			if which != nil {
				src = srcs[which[o]].data
			}
			Move16(rows[o*16:], src[int(i)*16:])
		}
	case 24:
		for o, i := range idxs {
			if which != nil {
				src = srcs[which[o]].data
			}
			Move24(rows[o*24:], src[int(i)*24:])
		}
	case 32:
		for o, i := range idxs {
			if which != nil {
				src = srcs[which[o]].data
			}
			Move32(rows[o*32:], src[int(i)*32:])
		}
	case 40:
		for o, i := range idxs {
			if which != nil {
				src = srcs[which[o]].data
			}
			Move40(rows[o*40:], src[int(i)*40:])
		}
	default:
		for o, i := range idxs {
			if which != nil {
				src = srcs[which[o]].data
			}
			copy(rows[o*w:(o+1)*w], src[int(i)*w:int(i)*w+w])
		}
	}
}
