package core

import "rowsort/internal/mergepath"

// The final merge of spilled runs is cut into tasks the way the resident
// one is (rows.go), with the spill files' block indexes standing in for
// random access: a run on disk can be entered at any block, and every
// block's first key row — its fence — is in memory. The fences of all runs,
// in merged order, are the order in which a merge first needs each block:
// the block stage's forecast. Cutting that order every drainTaskFences
// fences, at the fence key found there, gives tasks whose key ranges
// [lower, upper) concatenate to the whole output. Bounds compare only
// on the byte-decisive safe key prefix, so rows that tie beyond it are never
// split across tasks and the output is byte-identical to the sequential
// merge's at every task and worker count.

// drainTaskFences is the blocks a task over spilled runs begins: as many as
// make a resident task's rows at the default block size. Fixed by the null
// arms in EXPERIMENTS.md ("Spilled runs stream through Rows").
const drainTaskFences = drainTaskRows / DefaultSpillBlockRows

// spillPlan is the task plan of one merge over runs of which some, usually
// all, are on disk.
type spillPlan struct {
	ids    []uint32 // the runs, in merge (tie) order
	index  []int32  // a run id's position in ids
	anyTie bool     // some run needs the tie-break comparator
	safe   int      // width of the byte-decisive key prefix

	order  []blockRef // every block, by fence: the forecast
	bounds [][]byte   // task t merges the keys in [bounds[t-1], bounds[t]); one fewer than tasks
	refs   [][]int32  // per run and block: the tasks whose range overlaps it
}

// planSpillTasks plans the merge of runs ids. With single set, or a run
// still in memory (which has no fences), the plan is one task; otherwise the
// forecast is cut wherever drainTaskFences fences have gone by and the fence
// there is above its predecessor — so that bounds strictly increase,
// every block before a cut starts below it, and keys that all collide (a
// constant column) degrade to one task, never to a wrong order.
func (s *Sorter) planSpillTasks(ids []uint32, single bool) *spillPlan {
	p := &spillPlan{ids: ids, index: make([]int32, len(s.runs)), refs: make([][]int32, len(ids))}
	var fences []mergepath.Run // of the runs on disk
	var owner []int32          // their positions in ids
	blocks := 0
	for i, id := range ids {
		r := s.runs[id]
		p.index[id] = int32(i)
		p.anyTie = p.anyTie || r.tieBreak
		if r.spill == nil {
			single = true
			continue
		}
		p.refs[i] = make([]int32, r.spill.numBlocks())
		fences = append(fences, mergepath.Run{Data: r.spill.fences, Width: s.rowWidth})
		owner = append(owner, int32(i))
		blocks += r.spill.numBlocks()
	}
	p.safe = s.ovcSafeWidth(p.anyTie)

	// Each run's fences are sorted: their merged order is a loser-tree merge
	// away (ties to the earlier run, then the earlier block).
	p.order = make([]blockRef, 0, blocks)
	for m := mergepath.NewMerger(fences, p.safe, nil); ; {
		r, blk, _, ok := m.Next()
		if !ok {
			break
		}
		p.order = append(p.order, blockRef{owner[r], int32(blk)})
	}
	for pos, start := 0, 0; pos < len(p.order) && !single; pos++ {
		if key := p.fence(s, p.order[pos]); pos-start >= drainTaskFences &&
			compareSafe(key, p.fence(s, p.order[pos-1]), p.safe) > 0 {
			p.bounds = append(p.bounds, key)
			start = pos
		}
	}

	for t := 0; t < p.tasks(); t++ {
		lo, hi := p.bound(t)
		for i := range ids {
			first, end := p.span(s, i, lo, hi)
			for b := first; b < end; b++ {
				p.refs[i][b]++
			}
		}
	}
	return p
}

func (p *spillPlan) tasks() int { return len(p.bounds) + 1 }

// fence returns the first key row of block ref.
func (p *spillPlan) fence(s *Sorter, ref blockRef) []byte {
	return s.runs[p.ids[ref.run]].spill.fence(int(ref.blk), s.rowWidth)
}

// bound returns task t's key range [lo, hi); nil is an open end.
func (p *spillPlan) bound(t int) (lo, hi []byte) {
	if t > 0 {
		lo = p.bounds[t-1]
	}
	if t < len(p.bounds) {
		hi = p.bounds[t]
	}
	return lo, hi
}

// span returns the blocks [first, end) of run i that can hold a key in
// [lo, hi): from the last block whose fence is below lo — every earlier one
// is wholly below it — up to the first whose fence is not below hi. The block
// a bound falls into is in the span of the tasks on either side of it.
func (p *spillPlan) span(s *Sorter, i int, lo, hi []byte) (first, end int) {
	sf := s.runs[p.ids[i]].spill
	if sf == nil {
		return 0, 0
	}
	fences := mergepath.Run{Data: sf.fences, Width: s.rowWidth}
	end = sf.numBlocks()
	if hi != nil {
		end = safeLowerBound(fences, hi, p.safe)
	}
	if lo != nil {
		first = max(safeLowerBound(fences, lo, p.safe)-1, 0)
	}
	return first, end
}
