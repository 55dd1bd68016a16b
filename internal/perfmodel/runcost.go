package perfmodel

import "math"

// Run-sort cost models: per-row cost estimates, in cache-line units (the
// cache model's first-order accounting), for the two run-generation sorts,
// driven by the sampled distribution of the run about to be sorted. The
// strategy planner, which the sorter no longer consults, compares them to
// pick the sort per run — the paper's Future Work asks for exactly this:
// algorithm choice following key size, tuple count and uniqueness instead of
// a static rule. The old heuristic's hard-coded "effective <= 2*log2(n)"
// crossover falls out of these curves instead of being written down.

// PresortedCliff is the Sortedness at or above which PdqRunCost credits
// pdqsort's pattern-detector fast path. Just under 1: a dense 2048-pair
// order scan of a run with a single displaced row still reads ~0.999, and
// any real disorder beyond that makes pdqsort slower than radix (measured).
const PresortedCliff = 0.999

// RunShape is the sampled distribution of one pending run, as the strategy
// analyzer estimates it.
type RunShape struct {
	// Rows is the run's row count.
	Rows int
	// RowBytes is the key-row stride: the bytes a permute or swap moves.
	RowBytes int
	// KeyBytes is the compared key prefix width.
	KeyBytes int
	// EffectiveKeyBytes is the number of key byte positions that vary
	// across the run — the radix passes that actually scatter data
	// (constant positions become skipped passes).
	EffectiveKeyBytes int
	// Sortedness is the estimated fraction of the run already in order
	// (min of local adjacent-pair and global sampled-inversion order).
	Sortedness float64
	// DistinctRatio is the estimated distinct-key fraction in (0, 1].
	DistinctRatio float64
}

// RadixRunCost estimates the per-row cost of the byte-wise radix sort:
// one counting scan plus one permute pass per effective key byte, each
// permute moving the full row stride. Constant byte positions cost only
// their (cheap, skipped) counting scan, folded into the pass constant.
func RadixRunCost(sh RunShape) float64 {
	passes := float64(sh.EffectiveKeyBytes)
	if passes < 1 {
		passes = 1 // a degenerate all-equal run still does one scan
	}
	lines := func(b int) float64 { return 1 + float64(b)/float64(DefaultLineSize) }
	// Per pass: the counting scan touches each row's byte (1 unit) and the
	// permute rewrites the row (lines(RowBytes)).
	return passes * (1 + lines(sh.RowBytes))
}

// PdqRunCost estimates the per-row cost of comparison pdqsort: recursion
// depth × (branch + compared-prefix read + swap traffic). Two distribution
// effects shorten the depth — duplicate-heavy runs bottom out once every
// partition holds one distinct key (fat-pivot skipping), and presorted runs
// hit the partial-insertion pattern detector, which finishes them in a
// near-linear pass or two.
func PdqRunCost(sh RunShape) float64 {
	n := sh.Rows
	if n < 2 {
		return 1
	}
	depth := math.Log2(float64(n))
	distinct := sh.DistinctRatio * float64(n)
	if distinct < 2 {
		distinct = 2
	}
	if d := math.Log2(distinct) + 1; d < depth {
		depth = d
	}
	lines := func(b int) float64 { return 1 + float64(b)/float64(DefaultLineSize) }
	cmpBytes := sh.KeyBytes
	if cmpBytes > 16 {
		cmpBytes = 16 // memcmp bails at the first differing line in practice
	}
	// The pattern-detector cliff: an in-order run is partitioned once
	// (already partitioned, so nothing moves), then each half insertion-
	// sorts within the move budget — ~2 compares per row and essentially
	// no row movement. The cliff is razor thin: measured at 131k rows,
	// pdqsort beats radix by ~21% at zero disorder but loses by 17-30% at
	// 0.01-0.1% disorder, because a handful of displaced rows blows the
	// insertion-sort move budget and forces full partitioning anyway. So
	// the cliff only applies to a sample with essentially no observed
	// inversions, not to "mostly sorted" runs.
	if sh.Sortedness >= PresortedCliff {
		return 2 * (1 + lines(cmpBytes))
	}
	perLevel := 1 + lines(cmpBytes) + lines(sh.RowBytes)
	return depth * perLevel
}
