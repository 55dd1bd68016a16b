package workload

import (
	"fmt"

	"rowsort/internal/vector"
)

// Single-key workloads: each generator gives the key column one shape — low
// cardinality, duplicate runs, a long shared prefix, uniform high cardinality
// — beside a payload column that is a deterministic function of the key
// value, so two sorts that order equal keys differently still produce
// byte-identical tables.

// StringKeySchema is the schema of the string-keyed generators:
// a Varchar key and an Int64 payload derived from it.
var StringKeySchema = vector.Schema{
	{Name: "k", Type: vector.Varchar},
	{Name: "v", Type: vector.Int64},
}

// IntKeySchema is the schema of the integer-keyed generators:
// an Int64 key and an Int64 payload derived from it.
var IntKeySchema = vector.Schema{
	{Name: "k", Type: vector.Int64},
	{Name: "v", Type: vector.Int64},
}

// mixPayload maps a key's ordinal to its payload value: an invertible
// multiply-xorshift so the payload looks arbitrary but is a pure function
// of the key.
func mixPayload(x uint64) int64 {
	x *= 0x9E3779B97F4A7C15
	x ^= x >> 32
	return int64(x)
}

// LowCardStrings generates n rows keyed by card distinct strings drawn
// uniformly. The values share a common prefix and differ only in their
// numeric suffix; at 14 bytes they overflow the default 12-byte normalized
// prefix, so equal prefixes tie and the sort resolves them on the full
// strings.
func LowCardStrings(n, card int, seed uint64) *vector.Table {
	rng := NewRNG(seed)
	pool := make([]string, card)
	for i := range pool {
		pool[i] = fmt.Sprintf("warehouse-%04d", i)
	}
	t := vector.NewTable(StringKeySchema)
	appendRows(t, n, func(c *vector.Chunk) {
		j := rng.Intn(card)
		c.Vectors[0].AppendString(pool[j])
		c.Vectors[1].AppendInt64(mixPayload(uint64(j)))
	})
	return t
}

// DupHeavyInts generates n rows keyed by Int64 values in [0, domain),
// emitted in runs of 4..64 equal keys — the shape of data clustered by an
// upstream operator (a previous sort, a time-ordered status column) and
// the duplicate-run sweet spot. The unsorted input already consists of
// adjacent byte-equal groups, so RLE group sorting moves each group
// through the radix sort once, and after sorting the merge's
// duplicate-run fast path skips most comparisons.
func DupHeavyInts(n, domain int, seed uint64) *vector.Table {
	rng := NewRNG(seed)
	t := vector.NewTable(IntKeySchema)
	k, left := 0, 0
	appendRows(t, n, func(c *vector.Chunk) {
		if left == 0 {
			k = rng.Intn(domain)
			left = 4 + rng.Intn(61)
		}
		left--
		c.Vectors[0].AppendInt64(int64(k))
		c.Vectors[1].AppendInt64(mixPayload(uint64(k)))
	})
	return t
}

// SharedPrefixStrings generates n rows keyed by URL-like strings with a
// long constant prefix and a high-cardinality numeric tail. The default
// normalized prefix is consumed entirely by the shared prefix, so every key
// ties and the tie-break decides every comparison. Keys spread over a
// million ids via a coprime stride so every leading digit occurs.
func SharedPrefixStrings(n int, seed uint64) *vector.Table {
	rng := NewRNG(seed)
	t := vector.NewTable(StringKeySchema)
	appendRows(t, n, func(c *vector.Chunk) {
		id := (rng.Intn(1_000_000) * 7919) % 1_000_000
		c.Vectors[0].AppendString(fmt.Sprintf("https://shop.example.com/item/%06d", id))
		c.Vectors[1].AppendInt64(mixPayload(uint64(id)))
	})
	return t
}

// UniformInt64s generates n rows keyed by uniform 64-bit integers: nearly
// every key byte discriminates, cardinality is ~n and duplicate-run grouping
// finds nothing.
func UniformInt64s(n int, seed uint64) *vector.Table {
	rng := NewRNG(seed)
	t := vector.NewTable(IntKeySchema)
	appendRows(t, n, func(c *vector.Chunk) {
		k := rng.Uint64()
		c.Vectors[0].AppendInt64(int64(k))
		c.Vectors[1].AppendInt64(mixPayload(k))
	})
	return t
}
