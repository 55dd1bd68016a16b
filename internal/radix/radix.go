// Package radix implements byte-wise radix sorts over fixed-stride rows of
// normalized keys (Section VI-B of the paper).
//
// Because normalized keys (package normkey) yield the correct order under
// byte-by-byte comparison, they can be sorted with a byte-by-byte radix sort
// that performs no comparisons at all — sidestepping the dynamic-comparator
// overhead of interpreted engines. Two variants are provided, selected by
// key width as in the paper: least-significant-digit (LSD) for keys of at
// most 4 bytes, and most-significant-digit (MSD) otherwise, with MSD
// recursing into insertion sort for buckets of at most 24 rows. Both skip
// the data copy for a pass whose rows all fall into a single bucket, which
// softens radix sort's weakness on long common prefixes and duplicates.
package radix

import (
	"bytes"

	"rowsort/internal/sortalgo"
)

// Defaults matching the paper's implementation.
const (
	// LSDThreshold is the largest key width sorted with LSD radix sort.
	// The rule is on the whole key width, not on the bytes that vary: a
	// "skipped" LSD pass over a constant byte position still pays a full
	// counting scan, so a wide key with a narrow varying band does not favor
	// LSD (measured: MSD is ~6% faster at 3 varying bytes of 8, and even at 2
	// varying of 64).
	LSDThreshold = 4
	// DefaultInsertionCutoff is the bucket size at or below which MSD radix
	// sort falls back to insertion sort.
	DefaultInsertionCutoff = 24
)

// UseLSD is the key-width rule: Sort runs least significant digit first on
// keys this narrow, most significant digit first on wider ones. Whoever names
// the sort a run will get (the strategy planner, the sorter's decision log)
// asks here.
func UseLSD(keyWidth int) bool { return keyWidth <= LSDThreshold }

// Options tune the sort; the zero value gives the paper's configuration.
type Options struct {
	// ForceLSD and ForceMSD override the key-width selection rule.
	ForceLSD bool
	ForceMSD bool
	// NoSingleBucketSkip disables the skip-copy optimization (for ablation).
	NoSingleBucketSkip bool
	// InsertionCutoff overrides DefaultInsertionCutoff when positive.
	InsertionCutoff int
	// PdqCutoff, when positive, sorts MSD buckets of at most this many rows
	// with pdqsort on the remaining key bytes instead of recursing — the
	// hybrid the paper's Future Work suggests. Buckets at or below the
	// insertion cutoff still use insertion sort.
	PdqCutoff int
	// Scratch, when at least as long as the data, is used as the scatter
	// buffer instead of allocating (and zeroing) one per call; its contents
	// on entry do not matter and are garbage on return. A caller that sorts
	// run after run keeps one buffer for all of them.
	Scratch []byte
}

// Stats reports what a sort did, for tests and ablation benchmarks.
type Stats struct {
	UsedMSD       bool
	Passes        int // counting passes that scattered data
	SkippedPasses int // passes skipped because one bucket held every row
	PdqBuckets    int // MSD buckets handed to pdqsort (hybrid mode)
}

// Sort sorts rows byte-lexicographically on their first keyWidth bytes.
// Rows are rowWidth bytes each, stored back to back in data; bytes beyond
// keyWidth travel with their row. LSD is used where UseLSD says, MSD
// otherwise.
//
// Sort is STABLE: rows with byte-equal key prefixes keep their input order.
// Every default path preserves order — LSD and MSD scatter with counting
// sort, and the insertion fallback only moves strictly-smaller rows. The
// duplicate-group run sort (sortalgo.CollectDupGroups) relies on this to
// make grouped sorting byte-identical to sorting row-at-a-time. The one
// exception is the opt-in Options.PdqCutoff hybrid, which hands buckets to
// an unstable pdqsort.
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
		data:      data,
		aux:       aux[:len(data)],
		rowW:      rowWidth,
		keyW:      keyWidth,
		cutoff:    cutoff,
		pdqCutoff: opt.PdqCutoff,
		skip:      !opt.NoSingleBucketSkip,
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
		s.msd(0, n, 0)
	}
	return s.stats
}

type sorter struct {
	data      []byte
	aux       []byte
	rowW      int
	keyW      int
	cutoff    int
	pdqCutoff int
	skip      bool
	tmp       []byte // scratch row for insertion sort
	stats     Stats
}

// lsd runs stable counting-sort passes from the least significant key byte
// to the most significant, alternating between data and aux.
func (s *sorter) lsd() {
	n := len(s.data) / s.rowW
	src, dst := s.data, s.aux
	srcIsData := true
	var count [256]int
	for d := s.keyW - 1; d >= 0; d-- {
		for i := range count {
			count[i] = 0
		}
		for i := 0; i < n; i++ {
			count[src[i*s.rowW+d]]++
		}
		if s.skip && s.singleBucket(&count, n) {
			s.stats.SkippedPasses++
			continue
		}
		// Prefix-sum into starting offsets.
		sum := 0
		for b := 0; b < 256; b++ {
			c := count[b]
			count[b] = sum
			sum += c
		}
		for i := 0; i < n; i++ {
			row := src[i*s.rowW : (i+1)*s.rowW]
			pos := count[row[d]]
			count[row[d]]++
			copy(dst[pos*s.rowW:], row)
		}
		src, dst = dst, src
		srcIsData = !srcIsData
		s.stats.Passes++
	}
	if !srcIsData {
		copy(s.data, s.aux)
	}
}

func (s *sorter) singleBucket(count *[256]int, n int) bool {
	for _, c := range count {
		if c == n {
			return true
		}
		if c > 0 {
			return false
		}
	}
	return false
}

// msd recursively sorts rows [lo,hi) on key byte d. Bytes 0..d-1 are equal
// across the range by construction.
func (s *sorter) msd(lo, hi, d int) {
	for d < s.keyW {
		n := hi - lo
		if n <= s.cutoff {
			s.insertion(lo, hi, d)
			return
		}
		if s.pdqCutoff > 0 && n <= s.pdqCutoff {
			s.pdqBucket(lo, hi, d)
			return
		}
		var count [256]int
		for i := lo; i < hi; i++ {
			count[s.data[i*s.rowW+d]]++
		}
		if s.skip && s.singleBucket(&count, n) {
			// Every row shares this byte: advance to the next byte without
			// moving any data.
			s.stats.SkippedPasses++
			d++
			continue
		}

		// Scatter rows into aux ordered by bucket, then copy back.
		var offset [256]int
		sum := lo
		for b := 0; b < 256; b++ {
			offset[b] = sum
			sum += count[b]
		}
		pos := offset
		for i := lo; i < hi; i++ {
			row := s.data[i*s.rowW : (i+1)*s.rowW]
			p := pos[row[d]]
			pos[row[d]]++
			copy(s.aux[p*s.rowW:], row)
		}
		copy(s.data[lo*s.rowW:hi*s.rowW], s.aux[lo*s.rowW:hi*s.rowW])
		s.stats.Passes++

		// Recurse into each bucket on the next byte.
		for b := 0; b < 256; b++ {
			if count[b] > 1 {
				s.msd(offset[b], offset[b]+count[b], d+1)
			}
		}
		return
	}
}

// insertion sorts rows [lo,hi) comparing key bytes from d onward (the
// preceding bytes are equal across the range).
func (s *sorter) insertion(lo, hi, d int) {
	if d >= s.keyW {
		return
	}
	if s.tmp == nil {
		s.tmp = make([]byte, s.rowW)
	}
	tmp := s.tmp
	for i := lo + 1; i < hi; i++ {
		j := i
		if !s.lessSuffix(j, j-1, d) {
			continue
		}
		copy(tmp, s.row(j))
		for j > lo && bytes.Compare(tmp[d:s.keyW], s.row(j - 1)[d:s.keyW]) < 0 {
			copy(s.row(j), s.row(j-1))
			j--
		}
		copy(s.row(j), tmp)
	}
}

// pdqBucket sorts rows [lo,hi) with pdqsort comparing key bytes from d
// onward — the hybrid MSD+pdqsort of the paper's Future Work.
func (s *sorter) pdqBucket(lo, hi, d int) {
	s.stats.PdqBuckets++
	r := sortalgo.NewRows(s.data[lo*s.rowW:hi*s.rowW], s.rowW)
	keyW := s.keyW
	r.Compare = func(a, b []byte) int { return bytes.Compare(a[d:keyW], b[d:keyW]) }
	r.Pdqsort()
}

func (s *sorter) row(i int) []byte { return s.data[i*s.rowW : (i+1)*s.rowW] }

func (s *sorter) lessSuffix(i, j, d int) bool {
	return bytes.Compare(s.row(i)[d:s.keyW], s.row(j)[d:s.keyW]) < 0
}
