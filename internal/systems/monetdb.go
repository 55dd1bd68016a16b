package systems

import (
	"rowsort/internal/core"
	"rowsort/internal/normkey"
	"rowsort/internal/sortalgo"
	"rowsort/internal/vector"
)

// MonetDB models MonetDB's sort as the paper describes it: a columnar
// format throughout, a single-threaded quicksort, and the subsort approach
// for multiple key columns (sort the whole index array by the first column,
// then sort each run of ties by the next). The payload is collected in
// sorted order afterwards. Single-threaded execution is why it trails every
// other system by a wide margin in Figures 12–14.
type MonetDB struct{}

// NewMonetDB returns the MonetDB model (always single-threaded).
func NewMonetDB() *MonetDB { return &MonetDB{} }

// Name implements System.
func (m *MonetDB) Name() string { return "MonetDB" }

// Sort implements System.
func (m *MonetDB) Sort(t *vector.Table, keys []core.SortColumn) (*vector.Table, error) {
	nkeys, err := core.NormKeys(t.Schema, keys)
	if err != nil {
		return nil, err
	}
	cols := materialize(t)
	kcols := keyColumns(cols, keys)

	idx := make([]uint32, t.NumRows())
	for i := range idx {
		idx[i] = uint32(i)
	}
	subsortIndices(idx, nkeys, kcols, 0)
	// MonetDB is modeled single-threaded end to end, including the gather.
	return gather(t.Schema, cols, idx, 1), nil
}

// subsortIndices sorts idx by key column c with a single-column comparator,
// then recurses into runs of ties on the next key column.
func subsortIndices(idx []uint32, nkeys []normkey.SortKey, kcols []*vector.Vector, c int) {
	key, col := nkeys[c:c+1], kcols[c:c+1]
	one := func(a, b uint32) int { return normkey.CompareRows(key, col, int(a), int(b)) }
	sortalgo.Introsort(idx, func(a, b uint32) bool { return one(a, b) < 0 })
	if c+1 == len(nkeys) {
		return
	}
	runStart := 0
	for i := 1; i <= len(idx); i++ {
		if i == len(idx) || one(idx[i], idx[runStart]) != 0 {
			if i-runStart > 1 {
				subsortIndices(idx[runStart:i], nkeys, kcols, c+1)
			}
			runStart = i
		}
	}
}
