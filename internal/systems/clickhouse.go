package systems

import (
	"encoding/binary"
	"runtime"
	"sync"

	"rowsort/internal/core"
	"rowsort/internal/normkey"
	"rowsort/internal/radix"
	"rowsort/internal/sortalgo"
	"rowsort/internal/vector"
)

// ClickHouse models ClickHouse's sort as the paper describes it: a columnar
// format throughout, thread-local sorts that use radix sort when sorting by
// a single integer column and otherwise pdqsort with a tuple-at-a-time
// comparator (JIT compilation trimming some interpretation overhead), a
// k-way merge of the sorted runs, and a columnar payload gather at the end.
// Because it sorts indices over columns, its cache behaviour degrades with
// input size and key count — the effect Figures 12 and 13 show.
type ClickHouse struct {
	threads int
}

// NewClickHouse returns the ClickHouse model limited to the given thread
// count (0 means GOMAXPROCS).
func NewClickHouse(threads int) *ClickHouse { return &ClickHouse{threads: threads} }

// Name implements System.
func (c *ClickHouse) Name() string { return "ClickHouse" }

func (c *ClickHouse) numThreads() int {
	if c.threads > 0 {
		return c.threads
	}
	return runtime.GOMAXPROCS(0)
}

// Sort implements System.
func (c *ClickHouse) Sort(t *vector.Table, keys []core.SortColumn) (*vector.Table, error) {
	if err := validateSpec(t.Schema, keys); err != nil {
		return nil, err
	}
	cols := materialize(t)
	n := t.NumRows()
	nkeys := normKeys(t.Schema, keys)
	kcols := keyColumns(cols, keys)

	// For a single integer key, precompute the radix encoding once.
	var encCol []byte
	encW := 0
	if singleIntKey(t.Schema, keys) {
		encCol, encW = buildRadixEncoding(nkeys[0], kcols[0])
	}

	// Thread-local sorts over index ranges.
	ranges := splitRanges(n, c.numThreads())
	runs := make([][]uint32, len(ranges))
	var wg sync.WaitGroup
	for ri, rg := range ranges {
		wg.Add(1)
		go func(ri int, lo, hi int) {
			defer wg.Done()
			idx := make([]uint32, hi-lo)
			for i := range idx {
				idx[i] = uint32(lo + i)
			}
			if encCol != nil {
				sortIndicesRadix(idx, encCol, encW)
			} else {
				cmp := jitComparator(nkeys, kcols)
				sortalgo.Pdqsort(idx, func(a, b uint32) bool { return cmp(a, b) < 0 })
			}
			runs[ri] = idx
		}(ri, rg[0], rg[1])
	}
	wg.Wait()

	// K-way merge of the sorted index runs (tuple comparisons cause random
	// access into the columns).
	cmp := jitComparator(nkeys, kcols)
	order := kwayMergeIndices(runs, cmp)
	return gather(t.Schema, cols, order, c.numThreads()), nil
}

// singleIntKey reports whether the spec is one integer-typed key — the case
// where ClickHouse uses radix sort.
func singleIntKey(schema vector.Schema, keys []core.SortColumn) bool {
	if len(keys) != 1 {
		return false
	}
	t := schema[keys[0].Column].Type
	return t >= vector.Int8 && t <= vector.Uint64
}

// buildRadixEncoding encodes the whole key column into per-row normalized
// keys once (vector at a time), returning the encoding and its width.
func buildRadixEncoding(key normkey.SortKey, col *vector.Vector) ([]byte, int) {
	key.Column = 0
	enc, err := normkey.NewEncoder([]normkey.SortKey{key})
	if err != nil { // unreachable: the key was validated
		panic(err)
	}
	keyW := enc.Width()
	out := make([]byte, col.Len()*keyW)
	if err := enc.Encode([]*vector.Vector{col}, out, keyW, 0); err != nil {
		panic(err)
	}
	return out, keyW
}

// sortIndicesRadix sorts indices by one integer key: each row is the
// precomputed normalized key plus the index, sorted with radix sort.
func sortIndicesRadix(idx []uint32, encCol []byte, keyW int) {
	rowW := keyW + 4
	data := make([]byte, len(idx)*rowW)
	for i, ri := range idx {
		copy(data[i*rowW:], encCol[int(ri)*keyW:(int(ri)+1)*keyW])
		binary.LittleEndian.PutUint32(data[i*rowW+keyW:], ri)
	}
	radix.Sort(data, rowW, keyW)
	for i := range idx {
		idx[i] = binary.LittleEndian.Uint32(data[i*rowW+keyW:])
	}
}

// jitComparator models ClickHouse's partially JIT-compiled comparator: the
// per-column compare functions are built once (types resolved up front) and
// then invoked through function pointers per comparison.
func jitComparator(nkeys []normkey.SortKey, kcols []*vector.Vector) func(a, b uint32) int {
	perCol := make([]func(a, b uint32) int, len(nkeys))
	for i := range nkeys {
		key, col := nkeys[i:i+1], kcols[i:i+1]
		perCol[i] = func(a, b uint32) int {
			return normkey.CompareRows(key, col, int(a), int(b))
		}
	}
	return func(a, b uint32) int {
		for _, f := range perCol {
			if r := f(a, b); r != 0 {
				return r
			}
		}
		return 0
	}
}

// kwayMergeIndices merges sorted index runs with a binary heap, stable
// across runs.
func kwayMergeIndices(runs [][]uint32, cmp func(a, b uint32) int) []uint32 {
	type cursor struct {
		run, pos int
	}
	var heap []cursor
	total := 0
	for r := range runs {
		total += len(runs[r])
		if len(runs[r]) > 0 {
			heap = append(heap, cursor{run: r})
		}
	}
	lessCur := func(x, y cursor) bool {
		c := cmp(runs[x.run][x.pos], runs[y.run][y.pos])
		if c != 0 {
			return c < 0
		}
		return x.run < y.run
	}
	down := func(i int) {
		for {
			l := 2*i + 1
			if l >= len(heap) {
				return
			}
			m := l
			if r := l + 1; r < len(heap) && lessCur(heap[r], heap[l]) {
				m = r
			}
			if !lessCur(heap[m], heap[i]) {
				return
			}
			heap[i], heap[m] = heap[m], heap[i]
			i = m
		}
	}
	for i := len(heap)/2 - 1; i >= 0; i-- {
		down(i)
	}
	out := make([]uint32, 0, total)
	for len(heap) > 0 {
		top := heap[0]
		out = append(out, runs[top.run][top.pos])
		top.pos++
		if top.pos < len(runs[top.run]) {
			heap[0] = top
		} else {
			heap[0] = heap[len(heap)-1]
			heap = heap[:len(heap)-1]
		}
		down(0)
	}
	return out
}
