package engine

import (
	"fmt"

	"rowsort/internal/core"
	"rowsort/internal/normkey"
	"rowsort/internal/vector"
)

// The window operator is, like sort, a blocking operator (the paper's §IX):
// it materializes its input, orders it by (PARTITION BY, ORDER BY) with the
// relational sorter — reusing the row format and normalized keys — and then
// computes ranking functions in one scan over the sorted rows.

// WindowFunc is a supported window function.
type WindowFunc uint8

// The supported ranking functions.
const (
	// RowNumber numbers rows 1..n within each partition.
	RowNumber WindowFunc = iota
	// Rank gives peers (rows tied on the ORDER BY keys) the same rank,
	// with gaps after peer groups.
	Rank
	// DenseRank gives peers the same rank without gaps.
	DenseRank
)

// String returns the SQL name of the function.
func (f WindowFunc) String() string {
	switch f {
	case RowNumber:
		return "row_number"
	case Rank:
		return "rank"
	case DenseRank:
		return "dense_rank"
	default:
		return fmt.Sprintf("WindowFunc(%d)", uint8(f))
	}
}

// WindowSpec describes OVER (PARTITION BY ... ORDER BY ...).
type WindowSpec struct {
	// PartitionBy lists partition column indices (may be empty).
	PartitionBy []int
	// OrderBy lists the window's sort keys (may be empty, in which case all
	// partition rows are peers).
	OrderBy []core.SortColumn
}

// Window evaluates the given ranking functions over t and returns the input
// columns extended with one BIGINT column per function (named after it),
// with rows ordered by (PARTITION BY, ORDER BY) — the order the window sort
// produces.
func Window(t *vector.Table, spec WindowSpec, funcs []WindowFunc, opt core.Options) (*vector.Table, error) {
	if len(funcs) == 0 {
		return nil, fmt.Errorf("core: window needs at least one function")
	}
	for _, f := range funcs {
		if f > DenseRank {
			return nil, fmt.Errorf("core: unknown window function %d", uint8(f))
		}
	}

	// Sort by partition columns first, then the window order.
	sortKeys := make([]core.SortColumn, 0, len(spec.PartitionBy)+len(spec.OrderBy))
	for _, c := range spec.PartitionBy {
		sortKeys = append(sortKeys, core.SortColumn{Column: c})
	}
	sortKeys = append(sortKeys, spec.OrderBy...)
	sorted := t
	var nkeys []normkey.SortKey
	if len(sortKeys) > 0 {
		var err error
		if nkeys, err = core.NormKeys(t.Schema, sortKeys); err != nil {
			return nil, err
		}
		if sorted, err = core.SortTable(t, sortKeys, opt); err != nil {
			return nil, err
		}
	}

	cols := materializeColumns(sorted)
	kcols := make([]*vector.Vector, len(nkeys))
	for i, nk := range nkeys {
		kcols[i] = cols[nk.Column]
	}
	p := len(spec.PartitionBy)
	partKeys, partCols := nkeys[:p], kcols[:p]
	orderKeys, orderCols := nkeys[p:], kcols[p:]

	n := sorted.NumRows()
	results := make([][]int64, len(funcs))
	for i := range results {
		results[i] = make([]int64, n)
	}

	var rowNum, rank, dense int64
	for r := 0; r < n; r++ {
		newPartition := r == 0 ||
			(len(partKeys) > 0 && normkey.CompareRows(partKeys, partCols, r-1, r) != 0)
		if newPartition {
			rowNum, rank, dense = 0, 0, 0
		}
		rowNum++
		isPeer := !newPartition && r > 0 &&
			(len(orderKeys) == 0 || normkey.CompareRows(orderKeys, orderCols, r-1, r) == 0)
		if !isPeer {
			rank = rowNum
			dense++
		}
		for i, f := range funcs {
			switch f {
			case RowNumber:
				results[i][r] = rowNum
			case Rank:
				results[i][r] = rank
			case DenseRank:
				results[i][r] = dense
			}
		}
	}

	// Assemble the output: sorted input columns plus the function columns.
	outSchema := append(vector.Schema{}, t.Schema...)
	for _, f := range funcs {
		outSchema = append(outSchema, vector.Column{Name: f.String(), Type: vector.Int64})
	}
	out := vector.NewTable(outSchema)
	for start := 0; start < n; start += vector.DefaultVectorSize {
		count := min(vector.DefaultVectorSize, n-start)
		chunk := vector.NewChunk(outSchema, count)
		for c := range t.Schema {
			for r := start; r < start+count; r++ {
				vector.AppendValue(chunk.Vectors[c], cols[c], r)
			}
		}
		for i := range funcs {
			for r := start; r < start+count; r++ {
				chunk.Vectors[len(t.Schema)+i].AppendInt64(results[i][r])
			}
		}
		if err := out.AppendChunk(chunk); err != nil {
			return nil, err
		}
	}
	return out, nil
}
