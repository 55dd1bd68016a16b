package workload

import "rowsort/internal/vector"

// Adaptive-strategy workloads: generators whose order structure — not value
// distribution — is the variable. NearlySorted dials disorder continuously
// from fully sorted to fully random; SawtoothRuns produces the adversarial
// locally-sorted/globally-shuffled ramps that defeat naive adjacent-pair
// sortedness estimators. Both key payloads are pure functions of the key,
// so equivalence tests can compare sorts byte for byte.

// NearlySorted generates n rows keyed by an ascending Int64 sequence with a
// fraction of rows displaced: each row is swapped with a random other row
// with probability disorder (0 = fully sorted, 1 ≈ random shuffle). This is
// the presorted-input dial: at small disorder a comparison sort's pattern
// detection wins, at large disorder radix does.
func NearlySorted(n int, disorder float64, seed uint64) *vector.Table {
	rng := NewRNG(seed)
	keys := make([]int64, n)
	for i := range keys {
		keys[i] = int64(i)
	}
	for i := range keys {
		if rng.Float64() < disorder {
			j := rng.Intn(n)
			keys[i], keys[j] = keys[j], keys[i]
		}
	}
	t := vector.NewTable(IntKeySchema)
	i := 0
	appendRows(t, n, func(c *vector.Chunk) {
		k := keys[i]
		i++
		c.Vectors[0].AppendInt64(k)
		c.Vectors[1].AppendInt64(mixPayload(uint64(k)))
	})
	return t
}

// SawtoothRuns generates n rows of ascending ramps of the given period with
// random, overlapping bases: within each tooth keys strictly ascend, but
// consecutive teeth restart lower, so adjacent-pair order statistics read
// the input as almost sorted while roughly half of all global index pairs
// are inverted. An estimator that only looks locally will misclassify this
// as presorted; the strategy analyzer's global inversion sample must not.
func SawtoothRuns(n, period int, seed uint64) *vector.Table {
	if period < 2 {
		period = 2
	}
	rng := NewRNG(seed)
	t := vector.NewTable(IntKeySchema)
	base, pos := int64(0), 0
	appendRows(t, n, func(c *vector.Chunk) {
		if pos == 0 {
			base = int64(rng.Intn(n))
		}
		k := base + int64(pos)
		pos = (pos + 1) % period
		c.Vectors[0].AppendInt64(k)
		c.Vectors[1].AppendInt64(mixPayload(uint64(k)))
	})
	return t
}
