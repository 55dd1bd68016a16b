// Package strategy plans each run's execution from sampled statistics: a
// HyperLogLog cardinality sketch per key segment, a presortedness estimate,
// the effective (varying) key bytes and a first-byte entropy/skew measure,
// combined through perfmodel's run-sort cost curves into a per-run
// strategy.Plan — which sort generates the run (LSD/MSD radix, pdqsort, or
// duplicate-group counting), how its spill blocks are shaped, and what role
// it plays in the merge. Per-run decisions in place of a configured rule are
// the paper's Future Work: algorithm choice should follow key size, tuple
// count and uniqueness. Every run whose key bytes decide its order is sorted
// this way; there is no other rule to fall back to.
package strategy

import (
	"encoding/binary"
	"math"
	"math/bits"
)

// hllP is the sketch precision: 2^hllP registers. 256 registers give a
// ~6.5% standard error, plenty for a sort/no-sort style decision, at 256
// bytes of zero-alloc per-analyzer state.
const hllP = 8

const hllM = 1 << hllP

// hllAlpha is the standard bias-correction constant for m = 256.
const hllAlpha = 0.7213 / (1 + 1.079/float64(hllM))

// HLL is a HyperLogLog cardinality sketch over 64-bit hashes. The zero
// value is ready to use; Reset reuses it without allocating.
type HLL struct {
	reg [hllM]uint8
}

// Reset clears the sketch for reuse.
func (h *HLL) Reset() { clear(h.reg[:]) }

// Add observes one hashed value. The input is finalized with a
// splitmix64-style avalanche first: FNV-1a's trailing multiply leaves
// low-order input differences out of the high bits, and the register
// index is exactly those bits.
func (h *HLL) Add(hash uint64) {
	hash ^= hash >> 33
	hash *= 0xff51afd7ed558ccd
	hash ^= hash >> 33
	hash *= 0xc4ceb9fe1a85ec53
	hash ^= hash >> 33
	idx := hash >> (64 - hllP)
	// Rank of the first set bit in the remaining 56 bits, 1-based; an
	// all-zero remainder ranks 57.
	rank := uint8(bits.LeadingZeros64(hash<<hllP|1<<(hllP-1))) + 1
	if rank > h.reg[idx] {
		h.reg[idx] = rank
	}
}

// Estimate returns the estimated number of distinct values observed, with
// the standard linear-counting correction for small cardinalities.
func (h *HLL) Estimate() float64 {
	sum := 0.0
	zeros := 0
	for _, r := range h.reg {
		sum += 1 / float64(uint64(1)<<r)
		if r == 0 {
			zeros++
		}
	}
	est := hllAlpha * hllM * hllM / sum
	if est <= 2.5*hllM && zeros > 0 {
		est = hllM * math.Log(float64(hllM)/float64(zeros))
	}
	return est
}

// HashBytes is the sketch's byte-string hash (FNV-1a over 8-byte words).
func HashBytes(b []byte) uint64 {
	h := uint64(1469598103934665603)
	for len(b) >= 8 {
		h = (h ^ binary.LittleEndian.Uint64(b)) * 1099511628211
		b = b[8:]
	}
	for _, c := range b {
		h = (h ^ uint64(c)) * 1099511628211
	}
	return h
}
