package spill

import (
	"cmp"

	"rowsort/internal/mergepath"
)

// A merge of spilled runs is cut into tasks at fences: a run on disk can be
// entered at any block, and every block's first key row — its fence — is in
// memory. A run still in memory is given fences too, every so many of its key
// rows: they cut tasks as a file's do, and the stage never reads them. The
// fences of all runs, in merged order, cut every so many fences at the fence
// found there, give tasks whose ranges [lower, upper) concatenate to the whole
// output; those of the runs on disk, in that order, are the order in which a
// merge first needs each block: the block stage's forecast. Bounds compare in
// the order the caller gives (Order): the merge's whole order — the key, then
// the row's place in the merge, its run's and its own in the run, taken from
// where it sits and never from its bytes — under which every row is distinct
// and a bound splits even equal keys where the stable merge would (Merge
// Path's rule), or the key alone, an order that ties — a byte-decisive prefix
// — whose ties are never split. Either way the output is byte-identical to the
// sequential merge's at every task and worker count.

// BlockRef names a block of a plan: Run is the run's place in the merge order.
type BlockRef struct{ Run, Blk int32 }

// Order is the order a plan's bounds compare rows in: Key over key rows, and,
// when Total, a tie there broken by the rows' places in the merge — the run's
// place in the merge order first, then the row's index in its run — as the
// stable merge breaks it. Key must be the merge's order on keys; with Total
// false it may be a coarser one (a prefix), whose ties stay in one task.
type Order struct {
	Key   mergepath.CompareFunc
	Total bool
}

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
	files  []*File               // the runs, in merge (tie) order; nil for one in memory
	fences []mergepath.Run       // every run's fences: a file's, or those a run in memory was given
	stride []int                 // the rows between two of a run's fences
	order  Order                 // the order bounds compare in
	above  mergepath.CompareFunc // order.Key with a tie read as below: LowerBound under it is the first row above a key

	forecast []BlockRef // every block on disk, by fence
	bounds   []Bound    // task t merges the rows in [bounds[t-1], bounds[t]); one fewer than tasks
	refs     [][]int32  // per run on disk and block: the tasks whose range overlaps it
}

// PlanTasks plans the merge of runs, given in merge order with nil for a run
// still in memory, whose rows are sorted under order. resident[i], when
// runs[i] is nil, is that run's fences — its key rows every stride rows from
// its first, the files' block size — and may be empty (nil: none for any
// run). With taskFences 0 the plan is one task; otherwise the merged fences
// are cut wherever taskFences of them have gone by and the fence there is
// above its predecessor under order — always, when it is Total; under one
// that ties, keys that all collide (a constant column) degrade to one task,
// never to a wrong order. A run in memory is trimmed to a task's range by its
// rows, not its fences: they only balance the tasks.
func PlanTasks(runs []*File, resident []mergepath.Run, stride int, order Order, taskFences int) *Plan {
	key := order.Key
	p := &Plan{files: runs, fences: make([]mergepath.Run, len(runs)), stride: make([]int, len(runs)), order: order,
		above: func(a, b []byte) int { return cmp.Or(key(a, b), -1) }, refs: make([][]int32, len(runs))}
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
	var prev []byte
	for pos, start, m := 0, 0, mergepath.NewMerger(p.fences, 0, key); ; pos++ {
		r, blk, fence, ok := m.Next()
		if !ok {
			break
		}
		if taskFences > 0 && pos-start >= taskFences && (order.Total || key(fence, prev) > 0) {
			p.bounds = append(p.bounds, Bound{Key: fence, Run: r, Row: blk * p.stride[r]})
			start = pos
		}
		if runs[r] != nil {
			p.forecast = append(p.forecast, BlockRef{int32(r), int32(blk)})
		}
		prev = fence
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
		end = p.rank(fences, i, 0, p.stride[i], hi)
	}
	if lo.Key != nil {
		first = max(p.rank(fences, i, 0, p.stride[i], lo)-1, 0)
	}
	return first, end
}

// Range returns the rows [from, to) of rows, sorted rows of run i from its
// row start on (a block, or the whole run in memory), that lie in [lo, hi).
// Only a task's first and last block of a run can hold a row outside its
// range.
func (p *Plan) Range(rows mergepath.Run, i, start int, lo, hi Bound) (from, to int) {
	to = rows.Len()
	if lo.Key != nil {
		from = p.rank(rows, i, start, 1, lo)
	}
	if hi.Key != nil {
		to = p.rank(rows, i, start, 1, hi)
	}
	return from, to
}

// rank returns the first of rows — run i's, sorted, the m-th at row
// start+m*step of the run — that is not below b. The key decides but among
// rows whose key is b's, where under a Total order a row is below b when its
// run comes earlier in the merge, or it is b's run and its row comes before
// b's.
func (p *Plan) rank(rows mergepath.Run, i, start, step int, b Bound) int {
	lo := mergepath.LowerBound(rows, b.Key, p.order.Key)
	if !p.order.Total || i > b.Run {
		return lo
	}
	hi := mergepath.LowerBound(rows, b.Key, p.above) // the first row above b's key
	if i < b.Run {
		return hi
	}
	before := (max(b.Row-start, 0) + step - 1) / step // rows of the run ahead of b's
	return min(max(lo, before), hi)
}
