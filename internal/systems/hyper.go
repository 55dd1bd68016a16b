package systems

import (
	"fmt"
	"math"
	"runtime"
	"sort"
	"sync"

	"rowsort/internal/core"
	"rowsort/internal/normkey"
	"rowsort/internal/sortalgo"
	"rowsort/internal/vector"
)

// HyPer and Umbra model the compiled row-based sorts the paper describes:
// the engine generates a query-specific tuple type and comparison function,
// materializes the key columns into an array of such tuples, sorts
// thread-locally with a quicksort, merges the runs in parallel on pointers
// (no payload moves), and collects the payload only when the output is
// read. In Go the generated tuple is a fixed struct of order-preserving
// 64-bit key slots, and the generated comparator is a single statically
// compiled function — the same "no interpretation, inlinable comparison"
// property JIT code generation provides.
//
// The two systems share the pipeline; per the paper their implementations
// are similar, with Umbra slightly faster. The models differ in the
// thread-local algorithm: HyPer uses introsort, Umbra pattern-defeating
// quicksort.
type compiled struct {
	name    string
	threads int
	alg     sortalgo.Algorithm
}

// NewHyPer returns the HyPer model limited to the given thread count.
func NewHyPer(threads int) System {
	return &compiled{name: "HyPer", threads: threads, alg: sortalgo.AlgIntrosort}
}

// NewUmbra returns the Umbra model limited to the given thread count.
func NewUmbra(threads int) System {
	return &compiled{name: "Umbra", threads: threads, alg: sortalgo.AlgPdq}
}

// Name implements System.
func (h *compiled) Name() string { return h.name }

func (h *compiled) numThreads() int {
	if h.threads > 0 {
		return h.threads
	}
	return runtime.GOMAXPROCS(0)
}

// crowMaxKeys bounds the generated tuple's key slots.
const crowMaxKeys = 8

// crow is the "generated" sort tuple: per-key order-preserving 64-bit
// encodings, per-key NULL ranks, and the row id for payload retrieval.
type crow struct {
	k     [crowMaxKeys]uint64
	nulls [crowMaxKeys]uint8
	id    uint32
}

// keyMeta is the comparator's per-key plan, resolved once at "compile"
// time.
type keyMeta struct {
	desc bool
	str  *vector.Vector // non-nil for Varchar keys: full-string tie-break
	coll normkey.Collation
}

// Sort implements System.
func (h *compiled) Sort(t *vector.Table, keys []core.SortColumn) (*vector.Table, error) {
	nkeys, err := core.NormKeys(t.Schema, keys)
	if err != nil {
		return nil, err
	}
	if len(keys) > crowMaxKeys {
		return nil, fmt.Errorf("systems: %s model supports at most %d key columns", h.name, crowMaxKeys)
	}
	cols := materialize(t)
	kcols := keyColumns(cols, keys)
	n := t.NumRows()

	rows := buildCrows(nkeys, kcols, n)
	meta := make([]keyMeta, len(nkeys))
	for i, nk := range nkeys {
		meta[i].desc, meta[i].coll = nk.Order == normkey.Descending, nk.Collation
		if nk.Type == vector.Varchar {
			meta[i].str = kcols[i]
		}
	}
	numKeys := len(nkeys)
	less := func(a, b crow) bool { return compareCrows(&a, &b, meta, numKeys) < 0 }

	// Thread-local quicksorts.
	ranges := splitRanges(n, h.numThreads())
	runs := make([][]crow, len(ranges))
	var wg sync.WaitGroup
	for ri, rg := range ranges {
		wg.Add(1)
		go func(ri, lo, hi int) {
			defer wg.Done()
			run := rows[lo:hi]
			sortalgo.SortSlice(h.alg, run, less)
			runs[ri] = run
		}(ri, rg[0], rg[1])
	}
	wg.Wait()

	// Parallel k-way merge on the tuples (payload untouched).
	merged := parallelKWayCrows(runs, meta, numKeys, h.numThreads())

	// Payload is physically collected only now, when the output is read —
	// with the shared vectorized gather kernels, in parallel.
	order := make([]uint32, n)
	for i := range merged {
		order[i] = merged[i].id
	}
	return gather(t.Schema, cols, order, h.numThreads()), nil
}

// buildCrows materializes the generated tuples, one key column at a time.
func buildCrows(nkeys []normkey.SortKey, kcols []*vector.Vector, n int) []crow {
	rows := make([]crow, n)
	for i := range rows {
		rows[i].id = uint32(i)
	}
	for c, nk := range nkeys {
		col := kcols[c]
		nullRank := uint8(0)
		if nk.Nulls == normkey.NullsLast {
			nullRank = 2
		}
		for r := 0; r < n; r++ {
			if !col.Valid(r) {
				rows[r].nulls[c] = nullRank
				continue
			}
			rows[r].nulls[c] = 1
			rows[r].k[c] = encodeSlot(nk, col, r)
		}
	}
	return rows
}

// encodeSlot maps a value to a uint64 whose unsigned order matches the
// value's order (ascending) under the key's collation.
func encodeSlot(nk normkey.SortKey, col *vector.Vector, r int) uint64 {
	switch nk.Type {
	case vector.Bool:
		if col.Bools()[r] {
			return 1
		}
		return 0
	case vector.Int8:
		return uint64(col.Int8s()[r]) ^ (1 << 63)
	case vector.Int16:
		return uint64(col.Int16s()[r]) ^ (1 << 63)
	case vector.Int32:
		return uint64(col.Int32s()[r]) ^ (1 << 63)
	case vector.Int64:
		return uint64(col.Int64s()[r]) ^ (1 << 63)
	case vector.Uint8:
		return uint64(col.Uint8s()[r])
	case vector.Uint16:
		return uint64(col.Uint16s()[r])
	case vector.Uint32:
		return uint64(col.Uint32s()[r])
	case vector.Uint64:
		return col.Uint64s()[r]
	case vector.Float32:
		return encodeFloatSlot(float64(col.Float32s()[r]))
	case vector.Float64:
		return encodeFloatSlot(col.Float64s()[r])
	case vector.Varchar:
		// Big-endian 8-byte collated prefix; ties resolved against the full
		// string.
		s := col.Strings()[r]
		s = nk.Collation.Apply(s[:min(len(s), 8)])
		var v uint64
		for i := 0; i < 8; i++ {
			v <<= 8
			if i < len(s) {
				v |= uint64(s[i])
			}
		}
		return v
	}
	return 0
}

func encodeFloatSlot(f float64) uint64 {
	if f != f {
		return math.MaxUint64 // NaN greatest
	}
	if f == 0 {
		f = 0
	}
	bits := math.Float64bits(f)
	if bits&(1<<63) != 0 {
		return ^bits
	}
	return bits | 1<<63
}

// compareCrows is the "generated" comparator: a single function, one
// branch per key column, no indirect calls except the rare string
// tie-break.
func compareCrows(a, b *crow, meta []keyMeta, numKeys int) int {
	for c := 0; c < numKeys; c++ {
		if a.nulls[c] != b.nulls[c] {
			if a.nulls[c] < b.nulls[c] {
				return -1
			}
			return 1
		}
		if a.nulls[c] != 1 {
			continue // both NULL on this key
		}
		va, vb := a.k[c], b.k[c]
		if va != vb {
			r := 1
			if va < vb {
				r = -1
			}
			if meta[c].desc {
				r = -r
			}
			return r
		}
		if s := meta[c].str; s != nil {
			sa, sb := meta[c].coll.Apply(s.Strings()[a.id]), meta[c].coll.Apply(s.Strings()[b.id])
			if sa != sb {
				r := 1
				if sa < sb {
					r = -1
				}
				if meta[c].desc {
					r = -r
				}
				return r
			}
		}
	}
	return 0
}

// parallelKWayCrows merges sorted tuple runs. The output is split into p
// partitions by value splitters; each partition is k-way merged
// independently and in parallel.
func parallelKWayCrows(runs [][]crow, meta []keyMeta, numKeys, p int) []crow {
	total := 0
	longest := 0
	for i, r := range runs {
		total += len(r)
		if len(r) > len(runs[longest]) {
			longest = i
		}
	}
	out := make([]crow, total)
	if total == 0 {
		return out
	}
	if p < 2 || total < 4*p || len(runs[longest]) < p {
		kwayMergeCrows(out, runs, meta, numKeys)
		return out
	}

	// Splitters: p-quantiles of the longest run.
	cmp := func(a, b *crow) int { return compareCrows(a, b, meta, numKeys) }
	type cut struct{ starts []int }
	prev := cut{starts: make([]int, len(runs))}
	outPos := 0
	var wg sync.WaitGroup
	for part := 1; part <= p; part++ {
		var cur cut
		if part == p {
			cur.starts = make([]int, len(runs))
			for i, r := range runs {
				cur.starts[i] = len(r)
			}
		} else {
			splitter := runs[longest][part*len(runs[longest])/p]
			cur.starts = make([]int, len(runs))
			for i, r := range runs {
				// Elements <= splitter go to the left partitions.
				cur.starts[i] = sort.Search(len(r), func(j int) bool {
					return cmp(&r[j], &splitter) > 0
				})
			}
		}
		size := 0
		subRuns := make([][]crow, len(runs))
		for i, r := range runs {
			subRuns[i] = r[prev.starts[i]:cur.starts[i]]
			size += len(subRuns[i])
		}
		dst := out[outPos : outPos+size]
		outPos += size
		wg.Add(1)
		go func(dst []crow, subRuns [][]crow) {
			defer wg.Done()
			kwayMergeCrows(dst, subRuns, meta, numKeys)
		}(dst, subRuns)
		prev = cur
	}
	wg.Wait()
	return out
}

// kwayMergeCrows merges sorted tuple runs into dst with a binary heap.
func kwayMergeCrows(dst []crow, runs [][]crow, meta []keyMeta, numKeys int) {
	type cursor struct{ run, pos int }
	var heap []cursor
	for r := range runs {
		if len(runs[r]) > 0 {
			heap = append(heap, cursor{run: r})
		}
	}
	lessCur := func(x, y cursor) bool {
		c := compareCrows(&runs[x.run][x.pos], &runs[y.run][y.pos], meta, numKeys)
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
	k := 0
	for len(heap) > 0 {
		top := heap[0]
		dst[k] = runs[top.run][top.pos]
		k++
		top.pos++
		if top.pos < len(runs[top.run]) {
			heap[0] = top
		} else {
			heap[0] = heap[len(heap)-1]
			heap = heap[:len(heap)-1]
		}
		down(0)
	}
}
