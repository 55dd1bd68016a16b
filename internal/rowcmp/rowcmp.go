// Package rowcmp implements the row-format (NSM) micro-benchmark kernels of
// Sections IV-B, V and VI: sorting arrays of fixed-size key rows with
// static comparators (the compiled-engine analog), dynamic per-column
// comparator callbacks (the interpreted-engine overhead the paper
// measures), the subsort strategy applied to rows, and normalized keys
// compared with one dynamic bytes.Compare call.
package rowcmp

import (
	"bytes"
	"encoding/binary"
	"fmt"

	"rowsort/internal/radix"
	"rowsort/internal/sortalgo"
)

// MaxKeys is the largest number of key columns in the micro-benchmarks.
const MaxKeys = 4

// Row is the micro-benchmark tuple: up to four uint32 key columns plus the
// row index used to retrieve the payload after sorting — the Go analog of
// the paper's generated OrderKey struct. Sorting []Row physically moves
// whole tuples, giving the row format its cache locality.
type Row struct {
	Keys [MaxKeys]uint32
	ID   uint32
}

// BuildRows converts columnar key data into an array of rows (the DSM to
// NSM conversion of the micro-benchmarks). len(cols) must be 1..MaxKeys.
func BuildRows(cols [][]uint32) []Row {
	if len(cols) == 0 || len(cols) > MaxKeys {
		panic(fmt.Sprintf("rowcmp: need 1..%d key columns, got %d", MaxKeys, len(cols)))
	}
	rows := make([]Row, len(cols[0]))
	for c, col := range cols {
		for i, v := range col {
			rows[i].Keys[c] = v
		}
	}
	for i := range rows {
		rows[i].ID = uint32(i)
	}
	return rows
}

// Static comparators: one concrete function per key count, selected once
// before sorting. Each instantiation of the generic sort with one of these
// is specialized code with an inlinable comparator — the analog of a
// compiling query engine generating a comparison function for the query.

func less1(a, b Row) bool { return a.Keys[0] < b.Keys[0] }

func less2(a, b Row) bool {
	if a.Keys[0] != b.Keys[0] {
		return a.Keys[0] < b.Keys[0]
	}
	return a.Keys[1] < b.Keys[1]
}

func less3(a, b Row) bool {
	if a.Keys[0] != b.Keys[0] {
		return a.Keys[0] < b.Keys[0]
	}
	if a.Keys[1] != b.Keys[1] {
		return a.Keys[1] < b.Keys[1]
	}
	return a.Keys[2] < b.Keys[2]
}

func less4(a, b Row) bool {
	if a.Keys[0] != b.Keys[0] {
		return a.Keys[0] < b.Keys[0]
	}
	if a.Keys[1] != b.Keys[1] {
		return a.Keys[1] < b.Keys[1]
	}
	if a.Keys[2] != b.Keys[2] {
		return a.Keys[2] < b.Keys[2]
	}
	return a.Keys[3] < b.Keys[3]
}

// StaticLess returns the statically compiled comparator for numKeys key
// columns.
func StaticLess(numKeys int) sortalgo.LessFunc[Row] {
	switch numKeys {
	case 1:
		return less1
	case 2:
		return less2
	case 3:
		return less3
	case 4:
		return less4
	default:
		panic(fmt.Sprintf("rowcmp: numKeys must be 1..%d, got %d", MaxKeys, numKeys))
	}
}

// SortStatic sorts rows on their first numKeys keys with a statically
// compiled tuple-at-a-time comparator.
func SortStatic(rows []Row, numKeys int, alg sortalgo.Algorithm) {
	sortalgo.SortSlice(alg, rows, StaticLess(numKeys))
}

// ColumnCompare compares one key column of two rows; used as the dynamic
// per-column callback.
type ColumnCompare func(a, b Row) int

// DynamicComparator builds the interpreted-engine comparator: a loop over
// per-column compare callbacks, each invoked through a function pointer on
// every comparison. This is the function-call overhead Figure 6 measures.
func DynamicComparator(numKeys int) sortalgo.LessFunc[Row] {
	if numKeys < 1 || numKeys > MaxKeys {
		panic(fmt.Sprintf("rowcmp: numKeys must be 1..%d, got %d", MaxKeys, numKeys))
	}
	cmps := make([]ColumnCompare, numKeys)
	for c := 0; c < numKeys; c++ {
		c := c
		cmps[c] = func(a, b Row) int {
			va, vb := a.Keys[c], b.Keys[c]
			switch {
			case va < vb:
				return -1
			case va > vb:
				return 1
			default:
				return 0
			}
		}
	}
	return func(a, b Row) bool {
		for _, cmp := range cmps {
			if r := cmp(a, b); r != 0 {
				return r < 0
			}
		}
		return false
	}
}

// SortDynamic sorts rows with the dynamic per-column callback comparator.
func SortDynamic(rows []Row, numKeys int, alg sortalgo.Algorithm) {
	sortalgo.SortSlice(alg, rows, DynamicComparator(numKeys))
}

// SortSubsort applies the subsort strategy to rows: sort everything by key
// column 0 with a single-column comparator, then sort each run of ties by
// column 1, and so on. Unlike the columnar variant it physically moves rows.
func SortSubsort(rows []Row, numKeys int, alg sortalgo.Algorithm) {
	if numKeys < 1 || numKeys > MaxKeys {
		panic(fmt.Sprintf("rowcmp: numKeys must be 1..%d, got %d", MaxKeys, numKeys))
	}
	subsortRows(rows, 0, numKeys, alg)
}

func subsortRows(rows []Row, c, numKeys int, alg sortalgo.Algorithm) {
	sortalgo.SortSlice(alg, rows, func(a, b Row) bool { return a.Keys[c] < b.Keys[c] })
	if c+1 == numKeys {
		return
	}
	runStart := 0
	for i := 1; i <= len(rows); i++ {
		if i == len(rows) || rows[i].Keys[c] != rows[runStart].Keys[c] {
			if i-runStart > 1 {
				subsortRows(rows[runStart:i], c+1, numKeys, alg)
			}
			runStart = i
		}
	}
}

// NormalizedRowWidth returns the byte width of a normalized micro-benchmark
// key row: numKeys big-endian uint32 keys plus a 4-byte row id, padded to
// 8-byte alignment as in the paper's row formats.
func NormalizedRowWidth(numKeys int) (rowWidth, keyWidth int) {
	keyWidth = numKeys * 4
	rowWidth = (keyWidth + 4 + 7) &^ 7
	return rowWidth, keyWidth
}

// EncodeNormalized builds normalized key rows from columnar key data: each
// row is the big-endian concatenation of its key values (order-preserving
// for uint32) followed by the row id. The result can be compared with
// bytes.Compare or sorted with radix sort.
func EncodeNormalized(cols [][]uint32) (data []byte, rowWidth, keyWidth int) {
	if len(cols) == 0 || len(cols) > MaxKeys {
		panic(fmt.Sprintf("rowcmp: need 1..%d key columns, got %d", MaxKeys, len(cols)))
	}
	n := len(cols[0])
	rowWidth, keyWidth = NormalizedRowWidth(len(cols))
	data = make([]byte, n*rowWidth)
	// One column at a time: the vectorized conversion pattern.
	for c, col := range cols {
		off := c * 4
		for i, v := range col {
			binary.BigEndian.PutUint32(data[i*rowWidth+off:], v)
		}
	}
	for i := 0; i < n; i++ {
		// row ids are generated non-negative and sit outside the compared key prefix
		binary.BigEndian.PutUint32(data[i*rowWidth+keyWidth:], uint32(i))
	}
	return data, rowWidth, keyWidth
}

// SortNormalizedPdq sorts normalized key rows with pdqsort using a dynamic
// bytes.Compare on the key prefix — the Figure 8/9 configuration for
// comparison sorting in an interpreted engine.
func SortNormalizedPdq(data []byte, rowWidth, keyWidth int) {
	r := sortalgo.NewRows(data, rowWidth)
	r.Compare = func(a, b []byte) int { return dynamicMemcmp(a[:keyWidth], b[:keyWidth]) }
	r.Pdqsort()
}

// SortNormalizedRadix sorts normalized key rows with the paper's radix sort
// (LSD or MSD selected by key width); it performs no comparisons at all.
func SortNormalizedRadix(data []byte, rowWidth, keyWidth int) radix.Stats {
	return radix.Sort(data, rowWidth, keyWidth)
}

// dynamicMemcmp is the runtime-optimized bytes.Compare behind a
// non-inlinable call, modeling a memcmp invoked dynamically with a size
// parameter known only at run time (the interpreted engine's situation).
//
//go:noinline
func dynamicMemcmp(a, b []byte) int { return bytes.Compare(a, b) }

// SortNormalizedIntro sorts normalized key rows with introsort (the
// std::sort analog) using a dynamic bytes.Compare on the key prefix — the
// Figure 8 configuration.
func SortNormalizedIntro(data []byte, rowWidth, keyWidth int) {
	r := sortalgo.NewRows(data, rowWidth)
	r.Compare = func(a, b []byte) int { return dynamicMemcmp(a[:keyWidth], b[:keyWidth]) }
	r.Introsort()
}
