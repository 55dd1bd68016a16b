package main

import (
	"cmp"
	"fmt"
	"hash/maphash"
	"slices"
	"strings"

	"rowsort/internal/core"
	"rowsort/internal/vector"
)

// digest summarises a row sequence for verification: the row count, an
// order-sensitive hash of the key columns (rows with equal keys hash alike,
// so any valid tie order gives the same value) and an order-insensitive hash
// of whole rows (the output must be a permutation of the input).
type digest struct {
	Rows   int
	KeySeq uint64
	RowSet uint64
}

const (
	seqPrime = 0x9E3779B97F4A7C15
	nullHash = 0xA24BAED4963EE407
)

// strSeed keys the string hash; oracle and verifier run in one process, so
// a per-process seed is enough.
var strSeed = maphash.MakeSeed()

func mix(x uint64) uint64 {
	x = (x ^ (x >> 30)) * 0xBF58476D1CE4E5B9
	x = (x ^ (x >> 27)) * 0x94D049BB133111EB
	return x ^ (x >> 31)
}

// valueHashes writes one hash per row of v into out; NULLs hash alike.
func valueHashes(v *vector.Vector, out []uint64) error {
	switch v.Type() {
	case vector.Int32:
		for i, x := range v.Int32s() {
			out[i] = mix(uint64(uint32(x)))
		}
	case vector.Int64:
		for i, x := range v.Int64s() {
			out[i] = mix(uint64(x))
		}
	case vector.Varchar:
		for i, s := range v.Strings() {
			out[i] = maphash.String(strSeed, s)
		}
	default:
		return fmt.Errorf("benchmark: no value hash for column type %v", v.Type())
	}
	for i := range out {
		if !v.Valid(i) {
			out[i] = nullHash
		}
	}
	return nil
}

// chunkHashes appends one key hash and one whole-row hash per row of c.
func chunkHashes(c *vector.Chunk, keys []core.SortColumn, keyH, rowH []uint64) ([]uint64, []uint64, error) {
	n := c.Len()
	base := len(keyH)
	keyH = append(keyH, make([]uint64, n)...)
	rowH = append(rowH, make([]uint64, n)...)
	vh := make([]uint64, n)
	for ci, v := range c.Vectors {
		if v.Len() != n {
			return nil, nil, fmt.Errorf("benchmark: column %d has %d rows, chunk has %d", ci, v.Len(), n)
		}
		if err := valueHashes(v, vh); err != nil {
			return nil, nil, err
		}
		for r, h := range vh {
			rowH[base+r] = mix(rowH[base+r]*seqPrime + h)
		}
		for _, k := range keys {
			if k.Column != ci {
				continue
			}
			for r, h := range vh {
				keyH[base+r] = mix(keyH[base+r]*seqPrime + h)
			}
		}
	}
	return keyH, rowH, nil
}

// add appends one row, given its key and whole-row hashes.
func (d *digest) add(keyH, rowH uint64) {
	d.KeySeq = d.KeySeq*seqPrime + keyH
	d.RowSet += mix(rowH)
	d.Rows++
}

// digestOf hashes a sorter's output chunks in the order they were returned.
func digestOf(chunks []*vector.Chunk, keys []core.SortColumn) (digest, error) {
	var d digest
	var keyH, rowH []uint64
	for _, c := range chunks {
		var err error
		keyH, rowH, err = chunkHashes(c, keys, keyH[:0], rowH[:0])
		if err != nil {
			return digest{}, err
		}
		for i := range keyH {
			d.add(keyH[i], rowH[i])
		}
	}
	return d, nil
}

// check compares an output's digest with the oracle's.
func (e digest) check(got digest) error {
	switch {
	case got.Rows != e.Rows:
		return fmt.Errorf("sorted %d rows, want %d", got.Rows, e.Rows)
	case got.RowSet != e.RowSet:
		return fmt.Errorf("output rows are not a permutation of the input (row-set hash %#x, want %#x)", got.RowSet, e.RowSet)
	case got.KeySeq != e.KeySeq:
		return fmt.Errorf("output keys are out of order (key-sequence hash %#x, want %#x)", got.KeySeq, e.KeySeq)
	}
	return nil
}

// keyColumn is one sort key's values flattened over the whole table, read
// through the vector accessors — never through normkey, which is the code
// under test.
type keyColumn struct {
	valid []bool
	ints  []int64
	strs  []string // non-nil for Varchar keys
}

func flattenKey(t *vector.Table, col int) (keyColumn, error) {
	n := t.NumRows()
	k := keyColumn{valid: make([]bool, 0, n)}
	for _, c := range t.Chunks {
		v := c.Vectors[col]
		switch v.Type() {
		case vector.Int32:
			for _, x := range v.Int32s() {
				k.ints = append(k.ints, int64(x))
			}
		case vector.Int64:
			k.ints = append(k.ints, v.Int64s()...)
		case vector.Varchar:
			k.strs = append(k.strs, v.Strings()...)
		default:
			return keyColumn{}, fmt.Errorf("no oracle comparison for key type %v", v.Type())
		}
		for i := 0; i < v.Len(); i++ {
			k.valid = append(k.valid, v.Valid(i))
		}
	}
	return k, nil
}

// compare orders rows a and b ascending with NULLs first, the sorter's
// default for a zero-value SortColumn.
func (k *keyColumn) compare(a, b uint32) int {
	va, vb := k.valid[a], k.valid[b]
	switch {
	case !va && !vb:
		return 0
	case !va:
		return -1
	case !vb:
		return 1
	case k.strs != nil:
		return strings.Compare(k.strs[a], k.strs[b])
	}
	return cmp.Compare(k.ints[a], k.ints[b])
}

// buildOracle sorts the table's row indices with plain Go comparisons and
// returns the digest the sorter's output must reproduce.
func buildOracle(t *vector.Table, keys []core.SortColumn) (digest, error) {
	keyCols := make([]keyColumn, len(keys))
	for i, k := range keys {
		if k != (core.SortColumn{Column: k.Column}) {
			return digest{}, fmt.Errorf("oracle orders ascending, NULLs first, binary collation only; key %d asks for %+v", i, k)
		}
		var err error
		if keyCols[i], err = flattenKey(t, k.Column); err != nil {
			return digest{}, err
		}
	}
	var keyH, rowH []uint64
	for _, c := range t.Chunks {
		var err error
		if keyH, rowH, err = chunkHashes(c, keys, keyH, rowH); err != nil {
			return digest{}, err
		}
	}
	order := make([]uint32, len(keyH))
	for i := range order {
		order[i] = uint32(i)
	}
	slices.SortFunc(order, func(a, b uint32) int {
		for i := range keyCols {
			if c := keyCols[i].compare(a, b); c != 0 {
				return c
			}
		}
		return 0
	})
	var e digest
	for _, idx := range order {
		e.add(keyH[idx], rowH[idx])
	}
	return e, nil
}
