package spill

import "rowsort/internal/mergepath"

// A merge of spilled runs is cut into tasks at fences: a run on disk can be
// entered at any block, and every block's first key row — its fence — is in
// memory. A run still in memory is given fences too, every so many of its key
// rows: they cut tasks as a file's do, and the stage never reads them. The
// fences of all runs, in merged order, cut every so many fences at the fence
// found there, give tasks whose ranges [lower, upper) concatenate to the whole
// output; those of the runs on disk, in that order, are the order in which a
// merge first needs each block: the block stage's forecast. Bounds compare in
// the order the caller gives: the merge's whole order, under which every row
// is distinct and a bound splits even equal keys where the stable merge
// would (Merge Path's rule), or an order that ties — a byte-decisive prefix —
// whose ties are never split. Either way the output is byte-identical to the
// sequential merge's at every task and worker count.

// BlockRef names a block of a plan: Run is the run's place in the merge order.
type BlockRef struct{ Run, Blk int32 }

// Plan is the task plan of one merge over runs of which some, usually all,
// are on disk.
type Plan struct {
	files  []*File               // the runs, in merge (tie) order; nil for one in memory
	fences []mergepath.Run       // every run's fences: a file's, or those a run in memory was given
	cmp    mergepath.CompareFunc // the order bounds compare in

	order  []BlockRef // every block on disk, by fence: the forecast
	bounds [][]byte   // task t merges the rows in [bounds[t-1], bounds[t]); one fewer than tasks
	refs   [][]int32  // per run on disk and block: the tasks whose range overlaps it
}

// PlanTasks plans the merge of runs, given in merge order with nil for a run
// still in memory, whose rows are sorted under cmp. resident[i], when runs[i]
// is nil, is that run's fences — every so many of its key rows, at the files'
// stride — and may be empty (nil: none for any run). With taskFences 0 the
// plan is one task; otherwise the merged fences are cut wherever taskFences
// of them have gone by and the fence there is above its predecessor under
// cmp — always, when cmp is total; under one that ties, keys that all collide
// (a constant column) degrade to one task, never to a wrong order. A run in
// memory is trimmed to a task's range by its rows, not its fences: they only
// balance the tasks.
func PlanTasks(runs []*File, resident []mergepath.Run, cmp mergepath.CompareFunc, taskFences int) *Plan {
	p := &Plan{files: runs, fences: make([]mergepath.Run, len(runs)), cmp: cmp, refs: make([][]int32, len(runs))}
	blocks := 0
	for i, f := range runs {
		if f == nil {
			if resident != nil {
				p.fences[i] = resident[i]
			}
			continue
		}
		p.refs[i] = make([]int32, f.NumBlocks())
		p.fences[i] = mergepath.Run{Data: f.fences, Width: f.format.RowWidth}
		blocks += f.NumBlocks()
	}

	// Each run's fences are sorted: their merged order is a loser-tree merge
	// away (ties under cmp to the earlier run, then the earlier fence).
	p.order = make([]BlockRef, 0, blocks)
	var prev []byte
	for pos, start, m := 0, 0, mergepath.NewMerger(p.fences, 0, cmp); ; pos++ {
		r, blk, key, ok := m.Next()
		if !ok {
			break
		}
		if taskFences > 0 && pos-start >= taskFences && cmp(key, prev) > 0 {
			p.bounds = append(p.bounds, key)
			start = pos
		}
		if runs[r] != nil {
			p.order = append(p.order, BlockRef{int32(r), int32(blk)})
		}
		prev = key
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

// Bound returns task t's range [lo, hi) of rows; nil is an open end.
func (p *Plan) Bound(t int) (lo, hi []byte) {
	if t > 0 {
		lo = p.bounds[t-1]
	}
	if t < len(p.bounds) {
		hi = p.bounds[t]
	}
	return lo, hi
}

// Span returns the blocks [first, end) of run i that can hold a key in
// [lo, hi): from the last block whose fence is below lo — every earlier one
// is wholly below it — up to the first whose fence is not below hi. The block
// a bound falls into is in the span of the tasks on either side of it. For a
// run in memory the blocks are the stretches its fences begin.
func (p *Plan) Span(i int, lo, hi []byte) (first, end int) {
	fences := p.fences[i]
	end = fences.Len()
	if hi != nil {
		end = mergepath.LowerBound(fences, hi, p.cmp)
	}
	if lo != nil {
		first = max(mergepath.LowerBound(fences, lo, p.cmp)-1, 0)
	}
	return first, end
}
