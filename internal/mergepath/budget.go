package mergepath

// Budget-driven merge planning ("Implementing the Comparison-Based
// External Sort", Polyntsov et al.): an external merge's resident memory
// is fan-in × block bytes, so when a budget is in force the two knobs are
// derived from the remaining reservation instead of fixed constants —
// the block size when a run is written, the fan-in when runs are merged.
// Too-small answers thrash I/O, too-large answers blow the budget, so
// both planners clamp to floors that keep the merge making progress even
// when the budget is absurdly small.

const (
	// minFanIn is the merge's progress floor: below 2-way merging nothing
	// merges, and a 2-way cascade is the worst case the budget can force.
	minFanIn = 2
	// minBlockRows keeps spill blocks from degenerating into per-row I/O
	// under tiny budgets.
	minBlockRows = 16
	// blockBudgetShare divides the remaining budget when sizing one run's
	// spill block: a k-run merge holds ~k blocks resident, so each block
	// targets a small share of the budget rather than all of it.
	blockBudgetShare = 16
	// maxBlockBytes caps block growth under huge budgets; past ~1 MiB per
	// block, larger sequential reads stop paying.
	maxBlockBytes = 1 << 20
)

// PlanBlockRows picks the spill-block row count for a run about to be
// written, from the budget headroom remaining (bytes; may be negative
// under pressure) and the run's average row footprint (key row + payload
// row + heap share, bytes). maxRows is the unbudgeted default and upper
// bound. The result targets remaining/blockBudgetShare bytes per block,
// clamped to [minBlockRows, maxRows].
func PlanBlockRows(remaining, rowBytes int64, maxRows int) int {
	if rowBytes <= 0 {
		rowBytes = 1
	}
	target := remaining / blockBudgetShare
	if target > maxBlockBytes {
		target = maxBlockBytes
	}
	rows := int(target / rowBytes)
	if rows > maxRows {
		rows = maxRows
	}
	if rows < minBlockRows {
		rows = minBlockRows
	}
	return rows
}

// minHealthyBlockRows is the block size below which a multi-pass merge
// beats shrinking blocks further: a pass over blocks this small already
// pays more in per-block overhead (syscalls, header decode, code
// recompute) than a full extra read-write pass over healthy blocks would.
const minHealthyBlockRows = 512

// MergePlan is the resolved shape of one external merge pass: how many
// runs it may read at once and the block size each reader streams with.
// FanIn < the run count means intermediate passes must reduce the run
// count first (the multi-pass cascade the budget forces).
type MergePlan struct {
	FanIn     int
	BlockRows int
}

// PlanMerge sizes one external merge pass for k runs under the remaining
// budget (bytes), given the average row footprint, the unbudgeted block
// default maxRows, and buffers — the resident blocks held per run (1
// synchronous, 2 with read-ahead). It prefers cascading intermediate
// passes over healthy-sized blocks to thrashing tiny blocks: when the
// naive per-run share would push blocks below minHealthyBlockRows, the
// fan-in shrinks (forcing passes) before the block size does, and only a
// budget too small for even a 2-way merge of healthy blocks degrades the
// block size toward minBlockRows.
func PlanMerge(k int, remaining, rowBytes int64, maxRows, buffers int) MergePlan {
	if rowBytes <= 0 {
		rowBytes = 1
	}
	if buffers < 1 {
		buffers = 1
	}
	if maxRows < minBlockRows {
		maxRows = minBlockRows
	}
	healthy := min(maxRows, minHealthyBlockRows)
	healthyBytes := int64(healthy) * rowBytes * int64(buffers)

	// Fan-in at healthy blocks: how many runs can stream healthy-sized
	// blocks at once within the budget.
	f := PlanFanIn(k, remaining, healthyBytes)
	if f >= k {
		// Everything fits at healthy blocks — grow the blocks into the
		// spare headroom (up to the unbudgeted default) for larger reads.
		share := remaining / int64(k*buffers)
		if share > maxBlockBytes {
			share = maxBlockBytes
		}
		rows := int(share / rowBytes)
		if rows > maxRows {
			rows = maxRows
		}
		if rows < healthy {
			rows = healthy
		}
		return MergePlan{FanIn: k, BlockRows: rows}
	}
	// The budget forces passes. Keep blocks healthy unless even minFanIn
	// healthy blocks exceed the budget, in which case shrink the blocks as
	// the last resort (floored at minBlockRows).
	rows := healthy
	if remaining < int64(minFanIn)*healthyBytes {
		rows = int(remaining / int64(minFanIn*buffers) / rowBytes)
		if rows > healthy {
			rows = healthy
		}
		if rows < minBlockRows {
			rows = minBlockRows
		}
		f = PlanFanIn(k, remaining, int64(rows)*rowBytes*int64(buffers))
	}
	return MergePlan{FanIn: f, BlockRows: rows}
}

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
	if k <= minFanIn {
		return max(k, minFanIn)
	}
	if blockBytes <= 0 {
		blockBytes = 1
	}
	f := int(remaining / blockBytes)
	if f > k {
		f = k
	}
	if f < minFanIn {
		f = minFanIn
	}
	return f
}
