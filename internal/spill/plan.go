package spill

import (
	"cmp"

	"rowsort/internal/mergepath"
)

// A merge of spilled runs is cut into tasks at fences: a run on disk can be
// entered at any block, and every block's first key row — its fence — is in
// memory, with its payload row (File.FencePayload). A run still in memory is
// given fences too, every so many of its key rows: they cut tasks as a file's
// do, and the stage never reads them. The fences of all runs, in merged
// order, cut every so many fences at the fence found there, give tasks whose
// ranges [lower, upper) concatenate to the whole output; those of the runs on
// disk, in that order, are the order in which a merge first needs each block:
// the block stage's forecast. Bounds compare in the merge's whole order: the
// key, under the caller's comparator, then the row's place in the merge — its
// run's and its own in the run, taken from where it sits and never from its
// bytes. Every row is distinct under it, and a bound splits even equal keys
// where the stable merge would (Merge Path's rule), so the output is
// byte-identical to the sequential merge's at every task and worker count.

// BlockRef names a block of a plan: Run is the run's place in the merge order.
type BlockRef struct{ Run, Blk int32 }

// Bound is one end of a task's range: a fence's key row and the fence's place
// in the merge — Run, its run's place in the merge order, and Row, its row's
// index in the run. A nil Key is an open end.
type Bound struct {
	Key      []byte
	Run, Row int
}

// Plan is the task plan of one merge over runs of which some, usually all,
// are on disk.
type Plan struct {
	files  []*File                  // the runs, in merge (tie) order; nil for one in memory
	fences []mergepath.Run          // every run's fences: a file's, or those a run in memory was given
	stride []int                    // the rows between two of a run's fences
	key    mergepath.RunCompareFunc // the merge's order on keys, for comparing fences

	forecast []BlockRef // every block on disk, by fence
	bounds   []Bound    // task t merges the rows in [bounds[t-1], bounds[t]); one fewer than tasks
	refs     [][]int32  // per run on disk and block: the tasks whose range overlaps it
}

// PlanTasks plans the merge of runs, given in merge order with nil for a run
// still in memory, whose rows are sorted under key, the merge's order on
// keys; key compares any two fences, each beside its run's place in the
// merge. resident[i], when runs[i] is nil, is
// that run's fences — its key rows every stride rows from its first, the
// files' block size — and may be empty (nil: none for any run). With
// taskFences 0 the plan is one task; otherwise the merged fences are cut
// wherever taskFences of them have gone by. A run in memory is trimmed to a
// task's range by its rows, not its fences: they only balance the tasks.
func PlanTasks(runs []*File, resident []mergepath.Run, stride int, key mergepath.RunCompareFunc, taskFences int) *Plan {
	p := &Plan{files: runs, fences: make([]mergepath.Run, len(runs)), stride: make([]int, len(runs)), key: key,
		refs: make([][]int32, len(runs))}
	blocks := 0
	for i, f := range runs {
		if f == nil {
			if resident != nil {
				p.fences[i] = resident[i]
			}
			p.stride[i] = stride
			continue
		}
		p.refs[i] = make([]int32, f.NumBlocks())
		p.fences[i] = mergepath.Run{Data: f.fences, Width: f.format.RowWidth}
		p.stride[i] = f.blockRows
		blocks += f.NumBlocks()
	}

	// Each run's fences are sorted: their merged order is a loser-tree merge
	// away (ties under the key to the earlier run, then the earlier fence —
	// the whole order).
	p.forecast = make([]BlockRef, 0, blocks)
	for pos, m := 0, mergepath.NewMerger(p.fences, 0, key); ; pos++ {
		r, blk, fence, ok := m.Next()
		if !ok {
			break
		}
		if taskFences > 0 && pos > 0 && pos%taskFences == 0 {
			p.bounds = append(p.bounds, Bound{Key: fence, Run: r, Row: blk * p.stride[r]})
		}
		if runs[r] != nil {
			p.forecast = append(p.forecast, BlockRef{int32(r), int32(blk)})
		}
	}

	for t := 0; t < p.Tasks(); t++ {
		lo, hi := p.Bound(t)
		for i, f := range runs {
			if f == nil {
				continue
			}
			first, end := p.Span(i, lo, hi)
			for b := first; b < end; b++ {
				p.refs[i][b]++
			}
		}
	}
	return p
}

// Tasks returns how many tasks the merge is cut into.
func (p *Plan) Tasks() int { return len(p.bounds) + 1 }

// Bound returns task t's range [lo, hi) of rows; a nil Key is an open end.
func (p *Plan) Bound(t int) (lo, hi Bound) {
	if t > 0 {
		lo = p.bounds[t-1]
	}
	if t < len(p.bounds) {
		hi = p.bounds[t]
	}
	return lo, hi
}

// Span returns the blocks [first, end) of run i that can hold a row in
// [lo, hi): from the last block whose fence is below lo — every earlier one
// is wholly below it — up to the first whose fence is not below hi. The block
// a bound falls into is in the span of the tasks on either side of it. For a
// run in memory the blocks are the stretches its fences begin.
func (p *Plan) Span(i int, lo, hi Bound) (first, end int) {
	fences := p.fences[i]
	end = fences.Len()
	if hi.Key != nil {
		end = rank(fences, i, 0, p.stride[i], hi, p.key)
	}
	if lo.Key != nil {
		first = max(rank(fences, i, 0, p.stride[i], lo, p.key)-1, 0)
	}
	return first, end
}

// Range returns the rows [from, to) of rows, sorted rows of run i from its
// row start on (a block, or the whole run in memory), that lie in [lo, hi),
// comparing keys under key: the claimant's order, which is handed run i
// beside each of rows and a bound's Run beside its fence, and must find the
// payload of each by them. Only a task's first and last block of a run can
// hold a row outside its range.
func (p *Plan) Range(rows mergepath.Run, i, start int, lo, hi Bound, key mergepath.RunCompareFunc) (from, to int) {
	to = rows.Len()
	if lo.Key != nil {
		from = rank(rows, i, start, 1, lo, key)
	}
	if hi.Key != nil {
		to = rank(rows, i, start, 1, hi, key)
	}
	return from, to
}

// rank returns the first of rows — run i's, sorted, the m-th at row
// start+m*step of the run — that is not below b in the whole order: the key
// under key decides but among rows whose key is b's, which are below b when
// their run comes earlier in the merge, or it is b's run and their row comes
// before b's.
func rank(rows mergepath.Run, i, start, step int, b Bound, key mergepath.RunCompareFunc) int {
	byKey := func(a, k []byte) int { return key(a, i, k, b.Run) }
	lo := mergepath.LowerBound(rows, b.Key, byKey)
	if i > b.Run {
		return lo
	}
	hi := mergepath.LowerBound(rows, b.Key, func(a, k []byte) int { return cmp.Or(byKey(a, k), -1) }) // the first row above b's key
	if i < b.Run {
		return hi
	}
	before := (max(b.Row-start, 0) + step - 1) / step // rows of the run ahead of b's
	return min(max(lo, before), hi)
}
