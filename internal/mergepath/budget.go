package mergepath

// Budget-driven merge planning ("Implementing the Comparison-Based
// External Sort", Polyntsov et al.): an external merge's resident memory
// is fan-in × the bytes each run holds resident, so when a budget is in
// force the fan-in is derived from the remaining reservation instead of
// fixed, and a budget too small for it forces intermediate passes that
// reduce the run count first. The block size is the caller's: one per sort,
// the one its files are written at.

// minFanIn is the merge's progress floor: below 2-way merging nothing
// merges, and a 2-way cascade is the worst case the budget can force.
const minFanIn = 2

// BatchRuns splits n runs into contiguous batches of fanIn runs, the last
// one holding the remainder, returned as [start, end) index pairs. Batches
// stay contiguous: the fan-in reducer relies on that for its byte-identical
// tie ordering.
func BatchRuns(n, fanIn int) [][2]int {
	if n <= 0 {
		return nil
	}
	fanIn = max(fanIn, minFanIn)
	out := make([][2]int, 0, (n+fanIn-1)/fanIn)
	for start := 0; start < n; start += fanIn {
		out = append(out, [2]int{start, min(start+fanIn, n)})
	}
	return out
}

// PlanFanIn picks how many of k runs one streaming merge pass may read at
// once: each run holds about blockBytes resident, so the fan-in is the
// remaining budget divided by the per-run block footprint, clamped to
// [minFanIn, k]. A fan-in below k forces intermediate merge passes that
// reduce the run count first — trading extra I/O for bounded memory,
// exactly the external-sort trade-off the budget encodes.
func PlanFanIn(k int, remaining, blockBytes int64) int {
	return max(min(int(remaining/max(blockBytes, 1)), k), minFanIn)
}
