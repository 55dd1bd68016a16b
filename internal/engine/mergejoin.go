package engine

import (
	"fmt"

	"rowsort/internal/core"
	"rowsort/internal/normkey"
	"rowsort/internal/vector"
)

// MergeJoin computes the inner equi-join of two tables with a sort-merge
// join: both inputs are sorted on their join keys by the relational sorter,
// then merged with full tuple comparisons. It exists because the paper
// (Section V-B) singles out exactly this pattern — iterating sorted runs
// and fully comparing tuples — as the operation an interpreted engine
// cannot run through the subsort trick, motivating normalized keys.
//
// Join semantics follow SQL: rows whose key contains a NULL never match.
// The output schema is the left schema followed by the right schema.
func MergeJoin(left, right *vector.Table, leftKeys, rightKeys []int, opt core.Options) (*vector.Table, error) {
	if len(leftKeys) == 0 || len(leftKeys) != len(rightKeys) {
		return nil, fmt.Errorf("core: merge join needs matching non-empty key lists (got %d and %d)",
			len(leftKeys), len(rightKeys))
	}
	for i := range leftKeys {
		lk, rk := leftKeys[i], rightKeys[i]
		if lk < 0 || lk >= len(left.Schema) || rk < 0 || rk >= len(right.Schema) {
			return nil, fmt.Errorf("core: join key %d out of range", i)
		}
		if left.Schema[lk].Type != right.Schema[rk].Type {
			return nil, fmt.Errorf("core: join key %d type mismatch: %v vs %v",
				i, left.Schema[lk].Type, right.Schema[rk].Type)
		}
	}

	sortedLeft, err := core.SortTable(left, sortSpec(leftKeys), opt)
	if err != nil {
		return nil, err
	}
	sortedRight, err := core.SortTable(right, sortSpec(rightKeys), opt)
	if err != nil {
		return nil, err
	}

	// Materialize both sides as whole columns for the merge scan.
	lcols := materializeColumns(sortedLeft)
	rcols := materializeColumns(sortedRight)
	lkeyCols := pick(lcols, leftKeys)
	rkeyCols := pick(rcols, rightKeys)
	nkeys := make([]normkey.SortKey, len(leftKeys))
	for i, k := range leftKeys {
		nkeys[i] = normkey.SortKey{Type: left.Schema[k].Type}
	}

	outSchema := append(append(vector.Schema{}, left.Schema...), right.Schema...)
	out := vector.NewTable(outSchema)
	var chunk *vector.Chunk
	emit := func(li, ri int) error {
		if chunk == nil {
			chunk = vector.NewChunk(outSchema, vector.DefaultVectorSize)
		}
		for c := range left.Schema {
			vector.AppendValue(chunk.Vectors[c], lcols[c], li)
		}
		for c := range right.Schema {
			vector.AppendValue(chunk.Vectors[len(left.Schema)+c], rcols[c], ri)
		}
		if chunk.Len() == vector.DefaultVectorSize {
			if err := out.AppendChunk(chunk); err != nil {
				return err
			}
			chunk = nil
		}
		return nil
	}

	// The merge: advance whichever side is smaller; on equality, find both
	// tie groups and emit their cross product. Every step performs a full
	// tuple comparison across all key columns.
	li, ri := 0, 0
	ln, rn := sortedLeft.NumRows(), sortedRight.NumRows()
	for li < ln && ri < rn {
		if anyNullKey(lkeyCols, li) {
			li++
			continue
		}
		if anyNullKey(rkeyCols, ri) {
			ri++
			continue
		}
		c := compareAcross(nkeys, lkeyCols, rkeyCols, li, ri)
		switch {
		case c < 0:
			li++
		case c > 0:
			ri++
		default:
			lEnd := li + 1
			for lEnd < ln && !anyNullKey(lkeyCols, lEnd) &&
				normkey.CompareRows(nkeys, lkeyCols, li, lEnd) == 0 {
				lEnd++
			}
			rEnd := ri + 1
			for rEnd < rn && !anyNullKey(rkeyCols, rEnd) &&
				normkey.CompareRows(nkeys, rkeyCols, ri, rEnd) == 0 {
				rEnd++
			}
			for l := li; l < lEnd; l++ {
				for r := ri; r < rEnd; r++ {
					if err := emit(l, r); err != nil {
						return nil, err
					}
				}
			}
			li, ri = lEnd, rEnd
		}
	}
	if chunk != nil && chunk.Len() > 0 {
		if err := out.AppendChunk(chunk); err != nil {
			return nil, err
		}
	}
	return out, nil
}

func sortSpec(cols []int) []core.SortColumn {
	keys := make([]core.SortColumn, len(cols))
	for i, c := range cols {
		keys[i] = core.SortColumn{Column: c}
	}
	return keys
}

func materializeColumns(t *vector.Table) []*vector.Vector {
	cols := make([]*vector.Vector, len(t.Schema))
	for c := range t.Schema {
		cols[c] = t.Column(c)
	}
	return cols
}

func pick(cols []*vector.Vector, idx []int) []*vector.Vector {
	out := make([]*vector.Vector, len(idx))
	for i, c := range idx {
		out[i] = cols[c]
	}
	return out
}

func anyNullKey(keyCols []*vector.Vector, i int) bool {
	for _, c := range keyCols {
		if !c.Valid(i) {
			return true
		}
	}
	return false
}

// compareAcross compares tuple li of the left key columns with tuple ri of
// the right key columns — a full multi-column comparison per call, the
// access pattern Section V-B describes.
func compareAcross(nkeys []normkey.SortKey, lcols, rcols []*vector.Vector, li, ri int) int {
	for k := range nkeys {
		// Build a pairwise comparison by comparing within a two-vector view.
		c := normkey.CompareValues(nkeys[k], lcols[k], li, rcols[k], ri)
		if c != 0 {
			return c
		}
	}
	return 0
}
