package spill

import (
	"bytes"

	"rowsort/internal/mergepath"
)

// A merge of spilled runs is cut into tasks the way a resident one is, with
// the files' block indexes standing in for random access: a run on disk can
// be entered at any block, and every block's first key row — its fence — is
// in memory. The fences of all runs, in merged order, are the order in which
// a merge first needs each block: the block stage's forecast. Cutting that
// order every so many fences, at the fence key found there, gives tasks whose
// key ranges [lower, upper) concatenate to the whole output. Bounds compare
// only on the byte-decisive safe key prefix, so rows that tie beyond it are
// never split across tasks and the output is byte-identical to the sequential
// merge's at every task and worker count.

// BlockRef names a block of a plan: Run is the run's place in the merge order.
type BlockRef struct{ Run, Blk int32 }

// Plan is the task plan of one merge over runs of which some, usually all,
// are on disk.
type Plan struct {
	files []*File // the runs, in merge (tie) order; nil for one in memory
	safe  int     // width of the byte-decisive key prefix

	order  []BlockRef // every block, by fence: the forecast
	bounds [][]byte   // task t merges the keys in [bounds[t-1], bounds[t]); one fewer than tasks
	refs   [][]int32  // per run and block: the tasks whose range overlaps it
}

// PlanTasks plans the merge of runs, given in merge order with nil for a run
// still in memory, whose keys order by their bytes on the first safe of them.
// With a run in memory (it has no fences), or taskFences 0, the plan is one
// task; otherwise the forecast is cut wherever taskFences fences have gone by
// and the fence there is above its predecessor — so that bounds strictly
// increase, every block before a cut starts below it, and keys that all
// collide (a constant column) degrade to one task, never to a wrong order.
func PlanTasks(runs []*File, safe, taskFences int) *Plan {
	p := &Plan{files: runs, safe: safe, refs: make([][]int32, len(runs))}
	var fences []mergepath.Run // of the runs on disk
	var owner []int32          // their places in runs
	blocks := 0
	for i, f := range runs {
		if f == nil {
			taskFences = 0
			continue
		}
		p.refs[i] = make([]int32, f.NumBlocks())
		fences = append(fences, mergepath.Run{Data: f.fences, Width: f.format.RowWidth})
		owner = append(owner, int32(i))
		blocks += f.NumBlocks()
	}

	// Each run's fences are sorted: their merged order is a loser-tree merge
	// away (ties to the earlier run, then the earlier block).
	p.order = make([]BlockRef, 0, blocks)
	for m := mergepath.NewMerger(fences, safe, nil); ; {
		r, blk, _, ok := m.Next()
		if !ok {
			break
		}
		p.order = append(p.order, BlockRef{owner[r], int32(blk)})
	}
	for pos, start := 0, 0; pos < len(p.order) && taskFences > 0; pos++ {
		if key := p.fence(p.order[pos]); pos-start >= taskFences &&
			compareSafe(key, p.fence(p.order[pos-1]), safe) > 0 {
			p.bounds = append(p.bounds, key)
			start = pos
		}
	}

	for t := 0; t < p.Tasks(); t++ {
		lo, hi := p.Bound(t)
		for i := range runs {
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

// fence returns the first key row of block ref.
func (p *Plan) fence(ref BlockRef) []byte { return p.files[ref.Run].fence(int(ref.Blk)) }

// Bound returns task t's key range [lo, hi); nil is an open end.
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
// a bound falls into is in the span of the tasks on either side of it. A run
// in memory has none.
func (p *Plan) Span(i int, lo, hi []byte) (first, end int) {
	f := p.files[i]
	if f == nil {
		return 0, 0
	}
	fences := mergepath.Run{Data: f.fences, Width: f.format.RowWidth}
	end = f.NumBlocks()
	if hi != nil {
		end = LowerBound(fences, hi, p.safe)
	}
	if lo != nil {
		first = max(LowerBound(fences, lo, p.safe)-1, 0)
	}
	return first, end
}

// compareSafe compares two key rows on the byte-decisive safe prefix — the
// only region where plain byte order is guaranteed to agree with the sort's
// total order.
func compareSafe(a, b []byte, safe int) int {
	return bytes.Compare(a[:safe], b[:safe])
}

// LowerBound returns the first index in r whose row's safe prefix is not
// below key's. Rows tying on the safe prefix stay together on one side of
// every bound, which is what keeps range partitioning consistent with the
// tie-broken total order; a merge trims a task's first and last block of a
// run with it.
func LowerBound(r mergepath.Run, key []byte, safe int) int {
	lo, hi := 0, r.Len()
	for lo < hi {
		m := int(uint(lo+hi) >> 1)
		if compareSafe(r.Row(m), key, safe) < 0 {
			lo = m + 1
		} else {
			hi = m
		}
	}
	return lo
}
