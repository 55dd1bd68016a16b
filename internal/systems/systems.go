// Package systems models the five database systems of the paper's
// end-to-end evaluation (Section VII), each implementing the sort pipeline
// the paper attributes to it over a shared in-memory table substrate:
//
//   - DuckDB: row format, normalized keys, radix sort / pdqsort run
//     generation, cascaded Merge Path merge (package core — the paper's
//     contribution).
//   - ClickHouse: columnar throughout; thread-local radix sort for a single
//     integer key, otherwise pdqsort with a tuple-at-a-time comparator;
//     k-way merge; payload gathered through sorted indices.
//   - MonetDB: columnar throughout; single-threaded quicksort with the
//     subsort approach; payload gathered afterwards.
//   - HyPer and Umbra: compiled row-based sorts — tuples materialized as
//     generated structs with statically specialized comparators,
//     thread-local quicksort, parallel merge on pointers, payload collected
//     when the output is read.
//
// The benchmark operation is the paper's optimizer-proof query
// SELECT count(*) FROM (SELECT ... ORDER BY ...): a full sort, a full
// payload materialization, and a tiny result set. (The paper's OFFSET 1
// exists only to defeat real optimizers, which these models do not have.)
package systems

import (
	"fmt"
	"sync"

	"rowsort/internal/core"
	"rowsort/internal/normkey"
	"rowsort/internal/vector"
)

// System is one modeled database engine.
type System interface {
	// Name returns the modeled system's name.
	Name() string
	// Sort fully sorts t by keys and materializes the sorted payload.
	Sort(t *vector.Table, keys []core.SortColumn) (*vector.Table, error)
}

// SortCount executes the benchmark query on a system: a full sort, a full
// payload materialization, and a count of the result's rows.
func SortCount(s System, t *vector.Table, keys []core.SortColumn) (int, error) {
	res, err := s.Sort(t, keys)
	if err != nil {
		return 0, err
	}
	return res.NumRows(), nil
}

// All returns the five systems under benchmark, each limited to the given
// thread count (0 means GOMAXPROCS), in the paper's presentation order.
func All(threads int) []System {
	return []System{
		NewClickHouse(threads),
		NewDuckDB(threads),
		NewHyPer(threads),
		NewMonetDB(),
		NewUmbra(threads),
	}
}

// ByName returns the named system or an error.
func ByName(name string, threads int) (System, error) {
	for _, s := range All(threads) {
		if s.Name() == name {
			return s, nil
		}
	}
	return nil, fmt.Errorf("systems: unknown system %q", name)
}

// --- shared helpers -----------------------------------------------------

// materialize gathers the table's chunks into whole-column vectors: the
// sort operator is a pipeline breaker, so every system materializes its
// input first.
func materialize(t *vector.Table) []*vector.Vector {
	cols := make([]*vector.Vector, len(t.Schema))
	for c := range t.Schema {
		cols[c] = t.Column(c)
	}
	return cols
}

// normKeys translates the sort spec into the reference key descriptors.
func normKeys(schema vector.Schema, keys []core.SortColumn) []normkey.SortKey {
	out := make([]normkey.SortKey, len(keys))
	for i, k := range keys {
		order := normkey.Ascending
		if k.Descending {
			order = normkey.Descending
		}
		nulls := normkey.NullsFirst
		if k.NullsLast {
			nulls = normkey.NullsLast
		}
		out[i] = normkey.SortKey{Column: k.Column, Type: schema[k.Column].Type, Order: order, Nulls: nulls}
	}
	return out
}

// keyColumns selects the key columns from materialized columns.
func keyColumns(cols []*vector.Vector, keys []core.SortColumn) []*vector.Vector {
	out := make([]*vector.Vector, len(keys))
	for i, k := range keys {
		out[i] = cols[k.Column]
	}
	return out
}

// gather builds the sorted output table by fetching every payload column
// through the sorted row indices — the columnar payload retrieval step.
// The copy runs vector at a time (one typed kernel pass per column, see
// vector.GatherInto) and output chunks are distributed over threads
// workers; chunks are independent, so the output is identical at any
// thread count. Single-threaded models pass threads=1.
func gather(schema vector.Schema, cols []*vector.Vector, order []uint32, threads int) *vector.Table {
	out := vector.NewTable(schema)
	n := len(order)
	if n == 0 {
		return out
	}
	numChunks := (n + vector.DefaultVectorSize - 1) / vector.DefaultVectorSize
	chunks := make([]*vector.Chunk, numChunks)
	threads = min(max(threads, 1), numChunks)
	var wg sync.WaitGroup
	for w := 0; w < threads; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for ci := w; ci < numChunks; ci += threads {
				start := ci * vector.DefaultVectorSize
				count := min(vector.DefaultVectorSize, n-start)
				chunk := &vector.Chunk{Vectors: make([]*vector.Vector, len(schema))}
				for c := range schema {
					v := vector.NewDense(schema[c].Type, count)
					vector.GatherInto(v, cols[c], order[start:start+count])
					chunk.Vectors[c] = v
				}
				chunks[ci] = chunk
			}
		}(w)
	}
	wg.Wait()
	out.Chunks = chunks
	return out
}

// splitRanges divides [0,n) into at most parts near-equal ranges.
func splitRanges(n, parts int) [][2]int {
	if parts < 1 {
		parts = 1
	}
	var out [][2]int
	for p := 0; p < parts; p++ {
		lo, hi := p*n/parts, (p+1)*n/parts
		if hi > lo {
			out = append(out, [2]int{lo, hi})
		}
	}
	return out
}

// validateSpec checks a sort specification against the schema.
func validateSpec(schema vector.Schema, keys []core.SortColumn) error {
	if len(keys) == 0 {
		return fmt.Errorf("systems: sort needs at least one key column")
	}
	for i, k := range keys {
		if k.Column < 0 || k.Column >= len(schema) {
			return fmt.Errorf("systems: key %d column index %d out of range", i, k.Column)
		}
	}
	return nil
}
