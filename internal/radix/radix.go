// Package radix implements byte-wise radix sorts over fixed-stride rows of
// normalized keys (Section VI-B of the paper).
//
// Because normalized keys (package normkey) yield the correct order under
// byte-by-byte comparison, they can be sorted with a byte-by-byte radix sort
// that performs no comparisons at all — sidestepping the dynamic-comparator
// overhead of interpreted engines. Two variants are provided, selected by
// key width as in the paper: least-significant-digit (LSD) for keys of at
// most 4 bytes, and most-significant-digit (MSD) otherwise, with MSD
// recursing into insertion sort for buckets of at most 24 rows.
//
// Both move a row once per counting pass, as 8-byte words where the stride
// allows, between the caller's buffer and one scratch buffer of the same
// size. MSD scatters a bucket into whichever of the two does not hold it and
// recurses there; a branch that ends in the scratch is copied home once.
// Before it counts, MSD steps over the key bytes a bucket's rows all share —
// however many there are — in one scan, which softens radix sort's weakness
// on long common prefixes and duplicates; LSD skips the data copy for a byte
// position on which every row agrees.
package radix

import (
	"bytes"
	"encoding/binary"
	"math/bits"

	"rowsort/internal/row"
)

// Defaults matching the paper's implementation.
const (
	// LSDThreshold is the largest key width sorted with LSD radix sort.
	// The rule is on the whole key width, not on the bytes that vary: a
	// "skipped" LSD pass over a constant byte position still pays a full
	// counting scan, so a wide key with a narrow varying band does not favor
	// LSD (measured: MSD is ~6% faster at 3 varying bytes of 8, and even at 2
	// varying of 64). Which side is faster at 5 and 6 bytes depends on the
	// values, not only on the width: BenchmarkSortWidthRule has LSD ahead on
	// random value bytes and MSD ahead on dense, low-cardinality and
	// duplicate-heavy ones, so the paper's 4 stays.
	LSDThreshold = 4
	// DefaultInsertionCutoff is the bucket size at or below which MSD radix
	// sort falls back to insertion sort.
	DefaultInsertionCutoff = 24
)

// UseLSD is the key-width rule: Sort runs least significant digit first on
// keys this narrow, most significant digit first on wider ones. Whoever names
// the sort a run will get (the sorter's decision log) asks here.
func UseLSD(keyWidth int) bool { return keyWidth <= LSDThreshold }

// Options tune the sort; the zero value gives the paper's configuration.
type Options struct {
	// ForceLSD and ForceMSD override the key-width selection rule.
	ForceLSD bool
	ForceMSD bool
	// InsertionCutoff overrides DefaultInsertionCutoff when positive.
	InsertionCutoff int
	// Scratch, when at least as long as the data, is used as the scatter
	// buffer instead of allocating (and zeroing) one per call; its contents
	// on entry do not matter and are garbage on return. A caller that sorts
	// run after run keeps one buffer for all of them.
	Scratch []byte
}

// Stats reports what a sort did, for tests and ablation benchmarks.
type Stats struct {
	UsedMSD bool
	Passes  int // counting passes that scattered data
	// SkippedPasses counts the key bytes stepped over without a scatter
	// because every row of the bucket agreed on them: byte positions for LSD,
	// bytes of shared prefix summed over buckets for MSD.
	SkippedPasses int
}

// Sort sorts rows byte-lexicographically on their first keyWidth bytes.
// Rows are rowWidth bytes each, stored back to back in data; bytes beyond
// keyWidth travel with their row. LSD is used where UseLSD says, MSD
// otherwise.
//
// Sort is STABLE: rows with byte-equal key prefixes keep their input order.
// Every path preserves order — LSD and MSD scatter with counting sort, and
// the insertion fallback only moves strictly-smaller rows. The sorter relies
// on this to leave a run that arrived in order unsorted: that is
// byte-identical to sorting it.
func Sort(data []byte, rowWidth, keyWidth int) Stats {
	return SortOpts(data, rowWidth, keyWidth, Options{})
}

// SortOpts is Sort with explicit options.
func SortOpts(data []byte, rowWidth, keyWidth int, opt Options) Stats {
	if rowWidth <= 0 || len(data)%rowWidth != 0 {
		panic("radix: data length must be a positive multiple of rowWidth")
	}
	if keyWidth < 0 || keyWidth > rowWidth {
		panic("radix: keyWidth must be in [0, rowWidth]")
	}
	n := len(data) / rowWidth
	if n < 2 || keyWidth == 0 {
		return Stats{}
	}
	cutoff := opt.InsertionCutoff
	if cutoff <= 0 {
		cutoff = DefaultInsertionCutoff
	}
	aux := opt.Scratch
	if len(aux) < len(data) {
		aux = make([]byte, len(data))
	}
	s := &sorter{
		data:   data,
		aux:    aux[:len(data)],
		rowW:   rowWidth,
		keyW:   keyWidth,
		cutoff: cutoff * rowWidth,
		tmp:    make([]byte, rowWidth),
	}
	useLSD := UseLSD(keyWidth)
	if opt.ForceLSD {
		useLSD = true
	}
	if opt.ForceMSD {
		useLSD = false
	}
	if useLSD {
		s.lsd()
	} else {
		s.stats.UsedMSD = true
		s.msd(s.data, s.aux, 0, len(data), 0, true)
	}
	return s.stats
}

type sorter struct {
	data   []byte
	aux    []byte
	rowW   int
	keyW   int
	cutoff int    // insertion cutoff in bytes of rows
	tmp    []byte // the row insertion sort holds out
	stats  Stats
}

// scatter moves every row of src to dst at the byte offset pos holds for the
// row's key byte d, advancing that offset by one row: one stable counting-sort
// permutation. dst and src do not overlap. The row mover follows the stride:
// unrolled word moves for the strides the sorter's key rows have, a word loop
// for any other multiple of 8, copy for the rest.
func (s *sorter) scatter(dst, src []byte, d int, pos *[256]int) {
	switch rowW := s.rowW; {
	case rowW == 16:
		scatter16(dst, src, d, pos)
	case rowW == 24:
		scatter24(dst, src, d, pos)
	case rowW == 32:
		scatter32(dst, src, d, pos)
	case rowW == 40:
		scatter40(dst, src, d, pos)
	case rowW%8 == 0:
		scatterWords(dst, src, rowW, d, pos)
	default:
		scatterCopy(dst, src, rowW, d, pos)
	}
}

// The scatter loops for the strides the sorter's key rows have.

func scatter16(dst, src []byte, d int, pos *[256]int) {
	for ; len(src) >= 16; src = src[16:] {
		p := pos[src[d]]
		pos[src[d]] = p + 16
		row.Move16(dst[p:], src)
	}
}

func scatter24(dst, src []byte, d int, pos *[256]int) {
	for ; len(src) >= 24; src = src[24:] {
		p := pos[src[d]]
		pos[src[d]] = p + 24
		row.Move24(dst[p:], src)
	}
}

func scatter32(dst, src []byte, d int, pos *[256]int) {
	for ; len(src) >= 32; src = src[32:] {
		p := pos[src[d]]
		pos[src[d]] = p + 32
		row.Move32(dst[p:], src)
	}
}

func scatter40(dst, src []byte, d int, pos *[256]int) {
	for ; len(src) >= 40; src = src[40:] {
		p := pos[src[d]]
		pos[src[d]] = p + 40
		row.Move40(dst[p:], src)
	}
}

// scatterWords serves any stride that is a multiple of 8.
func scatterWords(dst, src []byte, rowW, d int, pos *[256]int) {
	for ; len(src) >= rowW; src = src[rowW:] {
		row := src[:rowW]
		p := pos[row[d]]
		pos[row[d]] = p + rowW
		out := dst[p : p+rowW]
		for o := 0; o+8 <= len(row) && o+8 <= len(out); o += 8 {
			binary.LittleEndian.PutUint64(out[o:], binary.LittleEndian.Uint64(row[o:]))
		}
	}
}

// scatterCopy serves every stride that is not a multiple of 8.
func scatterCopy(dst, src []byte, rowW, d int, pos *[256]int) {
	for ; len(src) >= rowW; src = src[rowW:] {
		row := src[:rowW]
		p := pos[row[d]]
		pos[row[d]] = p + rowW
		copy(dst[p:], row)
	}
}

// countByte adds to count the occurrences of each value of key byte d over
// rows.
func (s *sorter) countByte(rows []byte, d int, count *[256]int) {
	for o := d; o < len(rows); o += s.rowW {
		count[rows[o]]++
	}
}

// offsets turns per-bucket row counts into the byte offset each bucket
// starts at, the first at lo. A scatter leaves in their place the offset
// each bucket ends at.
func (s *sorter) offsets(count *[256]int, lo int) {
	for b, c := range count {
		count[b] = lo
		lo += c * s.rowW
	}
}

// lsd runs stable counting-sort passes from the least significant key byte
// to the most significant, alternating between data and aux.
func (s *sorter) lsd() {
	src, dst, home := s.data, s.aux, true
	for d := s.keyW - 1; d >= 0; d-- {
		var count [256]int
		s.countByte(src, d, &count)
		if count[src[d]] == len(src)/s.rowW {
			s.stats.SkippedPasses++
			continue
		}
		s.offsets(&count, 0)
		s.scatter(dst, src, d, &count)
		src, dst, home = dst, src, !home
		s.stats.Passes++
	}
	if !home {
		copy(s.data, src)
	}
}

// msd sorts the rows at byte offsets [lo,hi), which cur holds and which
// agree on every key byte before d, and leaves them in s.data. oth is the
// other of the sorter's two buffers; home says cur is s.data. Each counting
// pass scatters the range into oth and sorts the buckets there, so a row is
// moved once per pass; where a bucket needs no further pass it stays, and if
// that place is the scratch it is copied home — neighbouring such buckets
// together.
func (s *sorter) msd(cur, oth []byte, lo, hi, d int, home bool) {
	// Every key byte the rows share is stepped over at once; a range of equal
	// keys ends here without being counted.
	shared := s.commonPrefix(cur[lo:hi], d) - d
	s.stats.SkippedPasses += shared
	d += shared
	if d >= s.keyW || hi-lo <= s.cutoff {
		s.insertion(cur[lo:hi], d)
		if !home {
			copy(oth[lo:hi], cur[lo:hi])
		}
		return
	}
	var pos [256]int
	s.countByte(cur[lo:hi], d, &pos)
	s.offsets(&pos, lo)
	s.scatter(oth, cur[lo:hi], d, &pos)
	s.stats.Passes++

	// The buckets are in oth now, bucket b ending at pos[b]. Those that are
	// done after an insertion sort wait in [done,start) to go home together.
	d++
	start, done := lo, lo
	for b := range pos {
		end := pos[b]
		switch {
		case end-start <= s.cutoff || d >= s.keyW:
			if end-start > s.rowW {
				s.insertion(oth[start:end], d)
			}
		default:
			if home && done < start {
				copy(cur[done:start], oth[done:start])
			}
			s.msd(oth, cur, start, end, d, !home)
			done = end
		}
		start = end
	}
	if home && done < hi {
		copy(cur[done:hi], oth[done:hi])
	}
}

// commonPrefix returns the first key byte at or after d on which rows
// differ, keyW if they agree on all of them. It is one scan comparing every
// row with the first, a word at a time, that stops at the first row to
// differ in byte d itself: a bucket with nothing to skip costs a few rows.
func (s *sorter) commonPrefix(rows []byte, d int) int {
	rowW := s.rowW
	first := rows[:rowW]
	// The rows seen so far agree on [d,diff) and differ, in the bits acc
	// holds, within the word at diff.
	diff, acc, o := s.keyW, uint64(0), rowW
	for ; o < len(rows) && diff > d; o += rowW {
		row := rows[o : o+rowW]
		for w := d; w <= diff && w < s.keyW; w += 8 {
			x := s.word(row, w) ^ s.word(first, w)
			if x == 0 {
				continue
			}
			if w < diff {
				diff, acc = w, 0
			}
			acc |= x
			break
		}
	}
	// Once a row differs within the first word, only that word matters.
	fw := s.word(first, d)
	for ; o < len(rows) && acc>>56 == 0; o += rowW {
		acc |= s.word(rows[o:o+rowW], d) ^ fw
	}
	if acc == 0 {
		return s.keyW
	}
	return diff + bits.LeadingZeros64(acc)/8
}

// word returns key bytes [o, o+8) of row as a big-endian integer, zero past
// the end of the key: comparing words compares those key bytes.
func (s *sorter) word(row []byte, o int) uint64 {
	if o+8 <= len(row) {
		w := binary.BigEndian.Uint64(row[o:])
		if over := o + 8 - s.keyW; over > 0 {
			w &= ^uint64(0) << (8 * uint(over))
		}
		return w
	}
	return s.tailWord(row, o)
}

// tailWord is word where the row ends before the word does.
func (s *sorter) tailWord(row []byte, o int) uint64 {
	var w uint64
	for i := o; i < o+8; i++ {
		w <<= 8
		if i < s.keyW {
			w |= uint64(row[i])
		}
	}
	return w
}

// insertion sorts rows, which agree on every key byte before d, comparing
// the next eight key bytes as one word and the rest, when those tie, with
// bytes.Compare. Only a strictly smaller row moves ahead of another.
func (s *sorter) insertion(rows []byte, d int) {
	rowW, keyW := s.rowW, s.keyW
	if d >= keyW {
		return
	}
	rest := min(d+8, keyW) // where the key bytes a word does not cover begin
	tmp := s.tmp
	// prev is the word of the row before i: the last row that stayed put.
	prev := s.word(rows[:rowW], d)
	for i := rowW; i < len(rows); i += rowW {
		cur := rows[i : i+rowW]
		w := s.word(cur, d)
		if w > prev || w == prev && bytes.Compare(cur[rest:keyW], rows[i-rowW : i][rest:keyW]) >= 0 {
			prev = w
			continue
		}
		row.MoveRow(tmp, cur)
		j := i
		for {
			row.MoveRow(rows[j:j+rowW], rows[j-rowW:j])
			if j -= rowW; j == 0 {
				break
			}
			before := rows[j-rowW : j]
			if bw := s.word(before, d); w > bw || w == bw && bytes.Compare(tmp[rest:keyW], before[rest:keyW]) >= 0 {
				break
			}
		}
		row.MoveRow(rows[j:j+rowW], tmp)
	}
}
