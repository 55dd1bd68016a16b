package core

import (
	"bytes"
	"cmp"
	"context"
	"errors"

	"rowsort/internal/mergepath"
	"rowsort/internal/obs"
	"rowsort/internal/row"
	"rowsort/internal/spill"
	"rowsort/internal/vector"
)

// The merge. Every merge — the tasks of the result iterator, over runs in
// memory, on disk or both, and an intermediate fan-in pass — streams all k
// runs through one offset-value-coded loser tree (extMerge), the blocks of
// those on disk served by internal/spill's block stage. This file plans it —
// the order over key rows, the tasks and the order their bounds compare in,
// how many runs a budget can merge at once and how many claimants a budgeted
// drain affords — and runs it. Resident memory is bounded by the stage's
// blocks, not by the output, and every spilled byte is read exactly once.

// mergeOrder returns the merge's comparators over key rows: tie orders rows
// equal on the byte-decisive prefix (normkey's DecisiveWidth), the one a
// loser tree is coded on, and is nil when no run can tie; cmp is the whole
// order. A tie is resolved against the full strings in the payload, which
// lookup finds through the row's reference: the RowSet holding it and the
// row's index there (a merge over spilled runs keeps only one block of each
// run current, so the index is block-local). Rows that cannot tie are
// compared with one bytes.Compare over the key, the paper's memcmp.
func (s *Sorter) mergeOrder(anyTieBreak bool, lookup func(runID, idx uint32) (*row.RowSet, int)) (tie, cmp mergepath.CompareFunc) {
	if anyTieBreak {
		tie = s.enc.Comparator(func(keyRow []byte, k int) []byte {
			p, i := lookup(s.getRef(keyRow))
			return p.StringBytes(i, s.keys[k].Column)
		})
		return tie, tie
	}
	kw := s.keyWidth
	return nil, func(a, b []byte) int { return bytes.Compare(a[:kw], b[:kw]) }
}

// mergePlan is one merge over runs in memory, on disk or both: the runs, and
// the tasks internal/spill's planner cuts it into.
type mergePlan struct {
	*spill.Plan
	ids    []uint32              // the runs, in merge (tie) order
	index  []int32               // a run id's position in ids
	anyTie bool                  // some run needs the tie-break comparator
	safe   int                   // width of the byte-decisive key prefix
	cmp    mergepath.CompareFunc // the order task bounds compare in (boundOrder)
}

// drainTaskFences is the fences a task of the drain begins: as many as make
// drainTaskRows at the default block size, and 8,192 rows at a budget's
// 512-row block. Fixed by the null arms in EXPERIMENTS.md ("Spilled runs
// stream through Rows", and "A budgeted sort drains on every thread" for the
// budget's).
const drainTaskFences = drainTaskRows / DefaultSpillBlockRows

// planSpillTasks plans the merge of runs ids: as many tasks as the fences
// afford (see spill.PlanTasks) — a run still in memory given one every
// spillBlockRows of its key rows — or, when single says so, one: a merge
// pass writes one output file.
func (s *Sorter) planSpillTasks(ids []uint32, single bool) *mergePlan {
	p := &mergePlan{ids: ids, index: make([]int32, len(s.runs))}
	files, resident := make([]*spill.File, len(ids)), make([]mergepath.Run, len(ids))
	disk := false
	for i, id := range ids {
		r := s.runs[id]
		p.index[id] = int32(i)
		p.anyTie = p.anyTie || r.tieBreak
		disk = disk || r.spill != nil
		if files[i] = r.spill; r.spill == nil && !single {
			resident[i] = s.residentFences(r)
		}
	}
	p.safe = s.keyWidth
	if p.anyTie {
		p.safe = s.enc.DecisiveWidth()
	}
	p.cmp = s.boundOrder(p, disk)
	taskFences := drainTaskFences
	if single {
		taskFences = 0
	}
	p.Plan = spill.PlanTasks(files, resident, p.cmp, taskFences)
	return p
}

// boundOrder returns the order p's task bounds compare in: the merge's whole
// order — the key, then the run's place in the merge, then the row's place in
// its run, both read off the row's payload reference. It is total, and every
// run, block and fence list is sorted under it, so a bound row's LowerBound in
// a run is its Merge Path rank there, and rows of equal keys are split
// between tasks where the stable merge would. The tie comparator, though,
// reads a row's payload, which a fence of a run on disk does not have at
// hand: a plan whose keys may tie and that has a run on disk compares the
// byte-decisive prefix alone, so rows tying on it stay in one task.
func (s *Sorter) boundOrder(p *mergePlan, disk bool) mergepath.CompareFunc {
	if p.anyTie && disk {
		safe := p.safe
		return func(a, b []byte) int { return bytes.Compare(a[:safe], b[:safe]) }
	}
	_, key := s.mergeOrder(p.anyTie, s.residentPayload)
	return func(a, b []byte) int {
		if c := key(a, b); c != 0 {
			return c
		}
		ra, ia := s.getRef(a)
		rb, ib := s.getRef(b)
		if c := cmp.Compare(p.index[ra], p.index[rb]); c != 0 {
			return c
		}
		return cmp.Compare(ia, ib)
	}
}

// residentPayload resolves a key row's payload reference against the
// in-memory runs.
func (s *Sorter) residentPayload(runID, idx uint32) (*row.RowSet, int) {
	return s.runs[runID].payload, int(idx)
}

// residentFences returns the fences of a run in memory: its key rows at
// every spillBlockRows, where its blocks would start were it on disk.
func (s *Sorter) residentFences(r *sortedRun) mergepath.Run {
	rw, stride := s.rowWidth, s.spillBlockRows()
	fences := make([]byte, 0, (r.rows+stride-1)/stride*rw)
	for i := 0; i < r.rows; i += stride {
		fences = append(fences, r.keys[i*rw:(i+1)*rw]...)
	}
	return mergepath.Run{Data: fences, Width: rw}
}

// extMerge is one claimant's streaming k-way merge over a range of runs in
// memory, on disk or both: the offset-value-coded loser tree over each run's
// current block (a resident run is one block: its own buffers, trimmed to
// the range), refilled from the block stage as blocks of runs on disk run
// out. It emits payload references, not rows —
// next names each merged row as (slot in sets, row in that set), ready for
// the cross-set gather kernels — so whoever drives it moves every payload
// row once, from the decoded block to wherever it is going: an output chunk
// (the result iterator's tasks) or a spill block (mergeRunsToSpill). The
// blocks the references point into stay held until the driver has gathered
// them and says so (settle): at most the blocks a chunk's, or an output
// block's, rows came from.
type extMerge struct {
	s   *Sorter
	p   *mergePlan
	st  *spill.Stage
	ctx context.Context
	ow  *obs.Worker // the claimant's trace lane, for the blocks it decodes itself
	tie mergepath.CompareFunc

	lo, hi  []byte // the range being merged, under the plan's bound order; nil is open
	cur     []extCursor
	m       *mergepath.Merger
	sets    []*row.RowSet    // gather sources; the first len(cur) are the runs' current blocks at the last settle
	retired []spill.BlockRef // blocks run out, still referenced since the last settle
	pending int              // references handed out since the last settle
	err     error            // a refill's failure: the merge ran on without the run
}

// extCursor is one run's current block in an extMerge.
type extCursor struct {
	payload    *row.RowSet
	start      int    // absolute run index of payload's first row
	pad        uint32 // the served keys' first row within payload (a block or resident run trimmed at lo)
	slot       uint32 // payload's place in sets
	first, end int    // the run's blocks in the range
	blk        int    // the current one; end when the run is exhausted
}

// newExtMerge returns a claimant's merge over p's runs, whose blocks on disk
// st serves (nil when none is), not yet on any range.
func (s *Sorter) newExtMerge(ctx context.Context, p *mergePlan, st *spill.Stage, ow *obs.Worker) *extMerge {
	k := len(p.ids)
	e := &extMerge{s: s, p: p, st: st, ctx: ctx, ow: ow,
		cur: make([]extCursor, k), sets: make([]*row.RowSet, k, 2*k)}
	// Tie-break lookups resolve against the run's current block: references
	// store absolute run indexes, the cursor knows its block's offset.
	e.tie, _ = s.mergeOrder(p.anyTie, func(runID, idx uint32) (*row.RowSet, int) {
		c := &e.cur[p.index[runID]]
		return c.payload, int(idx) - c.start
	})
	return e
}

// open starts the merge of plan task t: every run's first block holding a
// key of the task's range — or the run itself, when it is in memory —
// trimmed to it, under a fresh loser tree.
func (e *extMerge) open(t int) error {
	s, p := e.s, e.p
	e.lo, e.hi = p.Bound(t)
	e.err = nil
	mruns := make([]mergepath.Run, len(e.cur))
	for i := range e.cur {
		c, r := &e.cur[i], s.runs[p.ids[i]]
		var keys []byte
		if r.spill == nil {
			from, to := keyRange(mergepath.Run{Data: r.keys, Width: s.rowWidth}, e.lo, e.hi, p.cmp)
			*c = extCursor{payload: r.payload, pad: uint32(from)}
			keys = r.keys[from*s.rowWidth : to*s.rowWidth]
		} else {
			*c = extCursor{}
			c.first, c.end = p.Span(i, e.lo, e.hi)
			c.blk = c.first
			var err error
			if keys, err = e.load(i); err != nil {
				return err
			}
		}
		c.slot, e.sets[i] = uint32(i), c.payload
		mruns[i] = mergepath.Run{Data: keys, Width: s.rowWidth}
	}
	e.m = mergepath.NewMerger(mruns, p.safe, e.tie)
	e.m.SetRefill(e.refill)
	return nil
}

// load makes run i's block c.blk — or the first one after it with a key in
// range — the cursor's, and returns its keys in range; nil when the run has
// none left.
func (e *extMerge) load(i int) ([]byte, error) {
	c := &e.cur[i]
	rw := e.s.rowWidth
	for ; c.blk < c.end; c.blk++ {
		ref := spill.BlockRef{Run: int32(i), Blk: int32(c.blk)}
		b, err := e.st.Acquire(e.ctx, ref, e.ow)
		if err != nil {
			if errors.Is(err, context.Canceled) {
				err = errSorterClosed
			}
			return nil, err
		}
		from, to := keyRange(mergepath.Run{Data: b.Keys, Width: rw}, e.lo, e.hi, e.p.cmp)
		if from < to {
			c.payload, c.start, c.pad = b.Payload, b.Start, uint32(from)
			return b.Keys[from*rw : to*rw], nil
		}
		e.st.Release(ref)
	}
	c.payload = nil
	return nil, nil
}

// keyRange returns the rows [from, to) of sorted keys in the range [lo, hi)
// under cmp, a plan's bound order; a nil bound is open. Only a task's first
// and last block of a run can hold a row outside its range.
func keyRange(keys mergepath.Run, lo, hi []byte, cmp mergepath.CompareFunc) (from, to int) {
	to = keys.Len()
	if lo != nil {
		from = mergepath.LowerBound(keys, lo, cmp)
	}
	if hi != nil {
		to = mergepath.LowerBound(keys, hi, cmp)
	}
	return from, to
}

// refill is the loser tree's callback: run r's block has run out. The block
// goes back to the stage — now, or at the next settle when references handed
// out since the last still point into it — and the run's next takes its
// place, in a new slot: the old one is what those references name.
func (e *extMerge) refill(r int) (mergepath.Run, bool) {
	c := &e.cur[r]
	if c.blk >= c.end {
		return mergepath.Run{}, false // a resident run, or one already exhausted
	}
	if ref := (spill.BlockRef{Run: int32(r), Blk: int32(c.blk)}); e.pending == 0 {
		e.st.Release(ref)
	} else {
		e.retired = append(e.retired, ref)
	}
	c.blk++
	keys, err := e.load(r)
	if err != nil {
		e.err = err
	}
	if keys == nil {
		return mergepath.Run{}, false
	}
	c.slot = uint32(len(e.sets))
	e.sets = append(e.sets, c.payload)
	return mergepath.Run{Data: keys, Width: e.s.rowWidth}, true
}

// next emits the next merged row: its key row (valid until the following
// next), and its payload as row idx of sets[which]. ok is false at the end of
// the range and after a failed read: check err then.
func (e *extMerge) next() (keyRow []byte, which, idx uint32, ok bool) {
	run, pos, keyRow, ok := e.m.Next()
	if !ok || e.err != nil {
		return nil, 0, 0, false
	}
	c := &e.cur[run]
	e.pending++
	return keyRow, c.slot, uint32(pos) + c.pad, true
}

// settle tells the merge that every reference handed out so far has been
// gathered: the blocks that ran out since the last settle go back to the
// stage, and sets shrinks back to the runs' current blocks.
func (e *extMerge) settle() {
	for _, ref := range e.retired {
		e.st.Release(ref)
	}
	e.retired = e.retired[:0]
	e.pending = 0
	if k := len(e.cur); len(e.sets) > k {
		for i := range e.cur {
			e.cur[i].slot, e.sets[i] = uint32(i), e.cur[i].payload
		}
		clear(e.sets[k:])
		e.sets = e.sets[:k]
	}
}

// reduceFanIn sheds resident runs, then merges contiguous batches of runs
// to disk, until the remaining budget can stream the survivors at once
// (mergepath.PlanFanIn, for the (1 + ReadAhead) blocks per run the block
// stage holds for one claimant, each as large as the largest block of the
// runs on disk: mergeBlockBytes). The plan is for one claimant whatever
// Options.Threads says: more are the drain's to afford from what is left
// (drainClaimants), so parallelism never forces a shed or a pass.
// Batches are contiguous and each merged run takes its batch's position, so
// the final merge sees runs in original run-id order — ties still resolve to
// the earlier input run, which keeps budgeted output byte-identical to the
// unlimited sort. The executed plan is recorded in SortStats (merge passes,
// final fan-in, pass bytes).
func (s *Sorter) reduceFanIn(ids []uint32, mw *obs.Worker) ([]uint32, error) {
	for {
		fanIn := mergepath.PlanFanIn(len(ids), s.broker.Remaining(), s.mergeBlockBytes(ids)*int64(s.opt.mergeBuffers()))
		if fanIn >= len(ids) {
			return ids, nil
		}
		// Runs still in memory hold the budget the plan is short of, and
		// how many there are is an accident of sink timing. Shedding one
		// writes it once; a pass reads and rewrites every run in it.
		if r := s.largestResident(); r != nil {
			s.ctr.Add(obs.PressureSpills, 1)
			if err := r.spillTo(s, mw); err != nil {
				return nil, err
			}
			s.dropPools()
			continue
		}
		next := make([]uint32, 0, (len(ids)+fanIn-1)/fanIn)
		for _, span := range mergepath.BatchRuns(len(ids), fanIn) {
			batch := ids[span[0]:span[1]]
			if len(batch) == 1 {
				next = append(next, batch[0])
				continue
			}
			id, err := s.mergeRunsToSpill(batch, mw)
			if err != nil {
				return nil, err
			}
			next = append(next, id)
		}
		ids = next
	}
}

// mergeRunsToSpill streams one intermediate merge pass over the given runs
// directly into a new spilled run (refs rewritten to the merged run),
// registers it — Finalize already holds s.mu, so no locking — and releases
// the consumed inputs, whose files the pass's block stage deleted as it
// finished with them. Resident memory is the stage's blocks plus one output
// block. Each pass is one PhaseMergePass span and is counted in SortStats
// (passes, input runs, bytes rewritten).
func (s *Sorter) mergeRunsToSpill(ids []uint32, mw *obs.Worker) (uint32, error) {
	psp := mw.Begin(obs.PhaseMergePass)
	defer psp.End()
	p := s.planSpillTasks(ids, true)
	st, err := s.newBlockStage(p, 1, 0)
	if err != nil {
		return 0, err
	}
	// Once the stage is joined the inputs, if the pass consumed them, are done
	// with: whatever it has not yet deleted of their files goes, and what was
	// still in memory of them is released.
	consumed := false
	ctx, cancel := context.WithCancel(s.ctx)
	defer func() {
		cancel()
		st.Close(consumed)
		if consumed {
			s.releaseMerged(ids)
		}
	}()
	st.Start(ctx, &s.drainWG)
	e := s.newExtMerge(ctx, p, st, mw)
	if err := e.open(0); err != nil {
		return 0, err
	}

	total := 0
	for _, id := range ids {
		total += s.runs[id].rows
	}
	// An intermediate pass moves every input row again; grow the plan so
	// the progress fraction accounts for the extra work instead of jumping
	// past 100%.
	s.ctr.Add(obs.MergeRowsPlanned, int64(total))
	merged := &sortedRun{id: uint32(len(s.runs)), tieBreak: p.anyTie, rows: total}
	s.runs = append(s.runs, merged)
	staging := s.getRowSet()
	defer s.putRowSet(staging)
	w, err := s.spills.NewWriter(merged.id, s.spillFormat(), s.spillBlockRows(), total, staging)
	if err != nil {
		return 0, err
	}
	// flush moves the payload rows merged since the last call into the output
	// block, after which the merge may let their input blocks go.
	flush := func() error {
		n, err := w.Flush(e.sets)
		s.ctr.Add(obs.RowsMerged, int64(n))
		e.settle()
		return err
	}
	for outPos := uint32(0); ; outPos++ {
		keyRow, slot, idx, ok := e.next()
		if !ok {
			break
		}
		s.putRef(w.Add(keyRow, slot, idx), merged.id, outPos)
		if w.Room() == 0 {
			if err := flush(); err != nil {
				return 0, err
			}
		}
	}
	if err := e.err; err != nil {
		return 0, w.Abort(err)
	}
	if err := flush(); err != nil {
		return 0, err
	}
	// A merge that ended short of its inputs' rows fails here.
	if merged.spill, err = w.Finish(); err != nil {
		return 0, err
	}

	consumed = true
	mst := e.m.Stats()
	mst.BytesMoved = uint64(total * s.rowWidth)
	s.mergeStats.Add(mst)
	s.publishMerge(s.mergeStats)
	s.ctr.Add(obs.MergePasses, 1)
	s.ctr.Add(obs.MergePassRuns, int64(len(ids)))
	s.ctr.Add(obs.MergePassBytes, merged.spill.Size())
	return merged.id, nil
}

// mergeBlockBytes is the bytes a merge over runs ids plans a block at: the
// largest block of any of them on disk, string heap and all.
func (s *Sorter) mergeBlockBytes(ids []uint32) int64 {
	var most int64
	for _, id := range ids {
		if f := s.runs[id].spill; f != nil {
			most = max(most, f.MaxBlockBytes())
		}
	}
	return most
}

// drainClaimants returns how many of at most most claimants a budgeted drain
// of p can afford, and the window they hold between them. A claimant holds
// (1 + ReadAhead) blocks of every run on disk and, when there is more than
// one, a window: the output of drainWindowPerThread tasks it has produced
// and the consumer not yet taken. A task's rows are bounded by the blocks its
// key range spans of the runs on disk and counted in those in memory; an
// output row holds what a row on disk does, on average, less its key row,
// with a string's 16-byte header where the row format has an 8-byte
// reference. Every claimant must fit in the budget Finalize left, the first
// of them the one reduceFanIn planned for.
func (s *Sorter) drainClaimants(p *mergePlan, most int) (claimants int, window int64) {
	blockRows := s.spillBlockRows()
	disk, diskRows, taskRows := 0, 0, 0
	var diskBytes int64
	for _, id := range p.ids {
		if r := s.runs[id]; r.spill != nil {
			disk, diskRows, diskBytes = disk+1, diskRows+r.rows, diskBytes+r.spill.Size()
		}
	}
	for t := 0; t < p.Tasks(); t++ {
		lo, hi := p.Bound(t)
		rows := 0
		for i, id := range p.ids {
			if r := s.runs[id]; r.spill != nil {
				first, end := p.Span(i, lo, hi)
				rows += (end - first) * blockRows
			} else {
				from, to := keyRange(mergepath.Run{Data: r.keys, Width: s.rowWidth}, lo, hi, p.cmp)
				rows += to - from
			}
		}
		taskRows = max(taskRows, rows)
	}
	rowBytes := (diskBytes+int64(diskRows)-1)/int64(max(diskRows, 1)) - int64(s.rowWidth)
	for _, t := range s.layout.Types() {
		if t == vector.Varchar {
			rowBytes += 8
		}
	}
	blocks := int64(disk*s.opt.mergeBuffers()) * s.mergeBlockBytes(p.ids)
	window = int64(drainWindowPerThread*taskRows) * rowBytes
	claimants = min(most, int(s.broker.Remaining()/max(blocks+window, 1)))
	if claimants <= 1 {
		return 1, 0
	}
	return claimants, int64(claimants) * window
}

// newBlockStage opens the stage that serves p's blocks to claimants
// concurrent merges, charged to a reservation of its own that starts at
// window bytes: the drain's chunks in flight, where a budget counts them.
func (s *Sorter) newBlockStage(p *mergePlan, claimants int, window int64) (*spill.Stage, error) {
	return s.spills.NewStage(p.Plan, s.broker.Reserve("merge", window), s.opt.readAhead(), claimants)
}

// releaseMerged lets go of runs a merge has consumed: their files are gone
// with the merge's stage, and what was still in memory of them is released.
func (s *Sorter) releaseMerged(ids []uint32) {
	for _, id := range ids {
		s.releaseRun(s.runs[id])
		s.runs[id].spill = nil
	}
}
