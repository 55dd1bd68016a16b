package core

import (
	"context"
	"errors"

	"rowsort/internal/mergepath"
	"rowsort/internal/obs"
	"rowsort/internal/row"
	"rowsort/internal/spill"
)

// Spilling demonstrates the paper's future-work direction: because a run is
// just flat key rows plus a row-format payload, it can be offloaded to
// secondary storage in one unified format with no conversion. The format, the
// files and the stage that reads them back are internal/spill's; this file is
// what the sorter decides — which runs go to disk and when, in blocks of how
// many rows, how many runs a budget can merge at once — and the merge itself:
// every merge over spilled runs — the tasks of the result iterator, an
// intermediate fan-in pass — streams all k runs block by block through one
// offset-value-coded loser tree (extMerge), its blocks served by the block
// stage. Resident memory is bounded by the stage's blocks, not by the output,
// and every spilled byte is read exactly once.

// spillFormat is the shape of this sort's rows, as its spill files hold them.
func (s *Sorter) spillFormat() spill.Format {
	return spill.Format{RowWidth: s.rowWidth, KeyWidth: s.keyWidth, Layout: s.layout}
}

// Close removes any spill files the sorter still has on disk. A result
// drained to its end has removed them as it read, so this is a no-op on the
// happy path; aborted sorts (a sink error, a sorter dropped before Finalize,
// a result iterator abandoned early) must call it to avoid leaking
// rowsort-run-*.bin files.
//
// Result iterators still running (Rows handed out, never closed) have their
// workers stopped and joined first; such an iterator's next Next fails.
//
// Close is safe to call multiple times (including on sorters that never
// spilled): after a clean one it has nothing left to do and returns nil,
// while files whose removal failed stay tracked and are retried. Removal
// errors are not swallowed — every failed removal is joined into the returned
// error and counted as spill_remove_errors.
func (s *Sorter) Close() error {
	s.cancel()
	s.drainWG.Wait()
	s.mu.Lock()
	defer s.mu.Unlock()
	// Hand the budget back: anything still charged to the broker — resident
	// runs, pooled buffers, the buffers of a sink its owner walked away from —
	// is dead once the sorter is closed. Releases are idempotent, so a
	// retried Close is harmless; the broker's peak
	// (Stats().PeakResidentRunBytes) survives.
	if s.unsub != nil {
		s.unsub()
		s.unsub = nil
	}
	s.runRes.Release()
	s.poolRes.Release()
	for _, res := range s.sinkRes {
		res.Release()
	}
	s.sinkRes = nil
	err := s.spills.Close()
	// The run is over; a registry watching it may now let it go.
	s.run.Done()
	return err
}

// approxRowBytes estimates one row's resident footprint (key row plus
// fixed-width payload row; string heaps unknown) for budget planning when
// the exact buffers are not at hand.
func (s *Sorter) approxRowBytes() int64 { return int64(s.rowWidth + s.layout.Width()) }

// spillBlockRowsFor is the block-size decision for a run about to be written.
// A budget sizes the block from what remains of it and the run's average row
// footprint (mergepath.PlanBlockRows): small blocks under pressure,
// default-sized ones when there is headroom. Without one the default stands.
func (s *Sorter) spillBlockRowsFor(r *sortedRun) int {
	switch {
	case s.pinBlockRows > 0:
		return s.pinBlockRows
	case s.opt.limited():
		avg := s.approxRowBytes()
		if r.keys != nil && r.rows > 0 {
			avg = runBytes(r) / int64(r.rows)
		}
		return mergepath.PlanBlockRows(s.broker.Remaining(), avg, DefaultSpillBlockRows)
	}
	return DefaultSpillBlockRows
}

// spillRun spills one specific run if it is still resident, claiming it
// against concurrent pressure spillers so a run is written at most once.
func (s *Sorter) spillRun(r *sortedRun, ow *obs.Worker) error {
	s.mu.Lock()
	if r.spilling || r.spill != nil || r.keys == nil {
		s.mu.Unlock()
		return nil
	}
	r.spilling = true
	s.mu.Unlock()
	err := r.spillTo(s, ow)
	// The lock also publishes spillTo's field writes to the next claimer.
	s.mu.Lock()
	r.spilling = false
	s.mu.Unlock()
	return err
}

// spillUnderPressure sheds resident runs to disk, largest first, until the
// broker is back under budget (or nothing spillable is left). Multiple
// sinks may shed concurrently; each claims runs under s.mu.
func (s *Sorter) spillUnderPressure(ow *obs.Worker) error {
	sp := ow.Begin(obs.PhasePressureSpill)
	defer sp.End()
	s.dropPools()
	for s.broker.OverBudget() {
		run := s.claimSpillableRun()
		if run == nil {
			return nil
		}
		s.ctr.Add(obs.PressureSpills, 1)
		err := run.spillTo(s, ow)
		s.mu.Lock()
		run.spilling = false
		s.mu.Unlock()
		if err != nil {
			return err
		}
	}
	return nil
}

// dropPools releases every idle pooled buffer: the cheapest bytes a sorter
// short of budget can give back, ahead of spilling a run or planning a
// merge from what remains. Nothing else would: the pools are free lists,
// which no GC cycle empties.
func (s *Sorter) dropPools() {
	s.sets.Drop()
	s.keyBufs.Drop()
}

// claimSpillableRun picks the largest resident run and marks it claimed;
// nil when every run is on disk, claimed, or the sort has moved on to its
// merge (which owns the remaining residents).
func (s *Sorter) claimSpillableRun() *sortedRun {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.finalized {
		return nil
	}
	best := s.largestResident()
	if best != nil {
		best.spilling = true
	}
	return best
}

// largestResident returns the largest run that is in memory and unclaimed,
// or nil. The caller holds s.mu.
func (s *Sorter) largestResident() *sortedRun {
	var best *sortedRun
	var bestBytes int64
	for _, r := range s.runs {
		if r.spilling || r.spill != nil || r.keys == nil {
			continue
		}
		if b := runBytes(r); best == nil || b > bestBytes {
			best, bestBytes = r, b
		}
	}
	return best
}

// releaseRun returns a consumed run's buffers to the pools and its bytes to
// the budget; runs already on disk (keys nil) are untouched.
func (s *Sorter) releaseRun(r *sortedRun) {
	if r.keys == nil {
		return
	}
	s.runRes.Shrink(runBytes(r))
	s.putKeyBuf(r.keys)
	s.putRowSet(r.payload)
	r.keys, r.payload = nil, nil
}

// spillTo writes the run to its spill file and releases its in-memory
// buffers. On any error the partial file is removed; nothing is leaked. ow is
// the calling worker's trace lane. Callers on concurrent paths must hold the
// run's claim (see spillRun).
//
// A run a sink cut is written in raw blocks; only a merge pass's output tries
// front-coding (mergeRunsToSpill). Letting every block try codes the cut runs
// of the catalog benchmark workload for 12 % more sort time and 21 % more
// allocation (DESIGN.md, "One spill format").
func (r *sortedRun) spillTo(s *Sorter, ow *obs.Worker) error {
	sp := ow.Begin(obs.PhaseSpillWrite)
	defer sp.End()
	staging := s.getRowSet()
	defer s.putRowSet(staging)
	w, err := s.spills.NewWriter(r.id, s.spillFormat(), s.spillBlockRowsFor(r), r.rows, s.pinFrontCode, staging)
	if err != nil {
		return err
	}
	rw, payload := s.rowWidth, []*row.RowSet{r.payload}
	for i := 0; i < r.rows; {
		n := min(w.Room(), r.rows-i)
		w.AddRows(r.keys[i*rw:(i+n)*rw], 0, uint32(i))
		if _, err := w.Flush(payload); err != nil {
			return err
		}
		i += n
	}
	if r.spill, err = w.Finish(); err != nil {
		return err
	}
	// The in-memory buffers are dead once the run is on disk: give their
	// bytes back to the budget and recycle them for the next pending run.
	s.releaseRun(r)
	return nil
}

// extMerge is one claimant's streaming k-way merge over a key range of runs
// served by a block stage: the offset-value-coded loser tree over each run's
// current block (a resident run is one block, its own buffers), refilled
// from the stage as blocks run out. It emits payload references, not rows —
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

	lo, hi  []byte // the key range being merged, on the safe prefix; nil is open
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
	pad        uint32 // the served keys' first row within payload (a block trimmed at lo)
	slot       uint32 // payload's place in sets
	first, end int    // the run's blocks in the key range
	blk        int    // the current one; end when the run is exhausted
}

// newExtMerge returns a claimant's merge over p's runs, whose blocks st serves,
// not yet on any range.
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
// key of the task's range, trimmed to it, under a fresh loser tree.
func (e *extMerge) open(t int) error {
	s, p := e.s, e.p
	e.lo, e.hi = p.Bound(t)
	e.err = nil
	mruns := make([]mergepath.Run, len(e.cur))
	for i := range e.cur {
		c, r := &e.cur[i], s.runs[p.ids[i]]
		keys := r.keys
		if r.spill == nil {
			*c = extCursor{payload: r.payload}
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
	rw, safe := e.s.rowWidth, e.p.safe
	for ; c.blk < c.end; c.blk++ {
		ref := spill.BlockRef{Run: int32(i), Blk: int32(c.blk)}
		b, err := e.st.Acquire(e.ctx, ref, e.ow)
		if err != nil {
			if errors.Is(err, context.Canceled) {
				err = errSorterClosed
			}
			return nil, err
		}
		keys := mergepath.Run{Data: b.Keys, Width: rw}
		from, to := 0, keys.Len()
		if c.blk == c.first && e.lo != nil {
			from = spill.LowerBound(keys, e.lo, safe)
		}
		if c.blk == c.end-1 && e.hi != nil {
			to = spill.LowerBound(keys, e.hi, safe)
		}
		if from < to {
			c.payload, c.start, c.pad = b.Payload, b.Start, uint32(from)
			return b.Keys[from*rw : to*rw], nil
		}
		e.st.Release(ref)
	}
	c.payload = nil
	return nil, nil
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

// planSpilledMerge is Finalize for a sort with runs on disk. It merges
// nothing and reads nothing: the final merge runs inside the result iterator
// (Sorter.Rows), which is handed the runs to merge. Under a budget their
// number is first reduced to a fan-in the remaining budget can stream.
func (s *Sorter) planSpilledMerge() error {
	ids := make([]uint32, len(s.runs))
	for i := range s.runs {
		ids[i] = uint32(i)
	}
	s.dropPools()
	if s.opt.limited() {
		mw := s.rec.Worker("merge")
		sp := mw.Begin(obs.PhaseMerge)
		defer sp.End()
		var err error
		if ids, err = s.reduceFanIn(ids, mw); err != nil {
			return err
		}
	}
	s.ctr.Store(obs.MergeFanIn, int64(len(ids)))
	for _, id := range ids {
		s.resultRows += s.runs[id].rows
	}
	s.streamMerge = true
	s.streamActive = ids
	return nil
}

// reduceFanIn sheds resident runs, then merges contiguous batches of runs
// to disk, until the remaining budget can stream the survivors at once
// (mergepath.PlanMerge: the plan prefers cascading extra passes over
// healthy-sized blocks to thrashing tiny ones, and sizes each pass for the
// (1 + ReadAhead) resident blocks per run that the block stage holds).
// Batches are contiguous and each merged
// run takes its batch's position, so the final merge sees runs in original
// run-id order — ties still resolve to the earlier input run, which keeps
// budgeted output byte-identical to the unlimited sort. The executed plan is
// recorded in SortStats (merge passes, final fan-in, pass bytes).
func (s *Sorter) reduceFanIn(ids []uint32, mw *obs.Worker) ([]uint32, error) {
	buffers := s.opt.mergeBuffers()
	for {
		avg := s.approxRowBytes()
		plan := mergepath.PlanMerge(len(ids), s.broker.Remaining(), avg, DefaultSpillBlockRows, buffers)
		if plan.FanIn >= len(ids) {
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
		next := make([]uint32, 0, (len(ids)+plan.FanIn-1)/plan.FanIn)
		for _, span := range mergepath.BatchRuns(len(ids), plan.FanIn) {
			batch := ids[span[0]:span[1]]
			if len(batch) == 1 {
				next = append(next, batch[0])
				continue
			}
			id, err := s.mergeRunsToSpill(batch, plan.BlockRows, mw)
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
// block of blockRows rows. Each pass is one PhaseMergePass span and is counted
// in SortStats (passes, input runs, bytes rewritten).
func (s *Sorter) mergeRunsToSpill(ids []uint32, blockRows int, mw *obs.Worker) (uint32, error) {
	psp := mw.Begin(obs.PhaseMergePass)
	defer psp.End()
	p := s.planSpillTasks(ids, true)
	st, err := s.newBlockStage(p, 1)
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
	// A pass's output tries front-coded key sections, block by block: the
	// writer keeps a block raw unless coding shrinks it.
	w, err := s.spills.NewWriter(merged.id, s.spillFormat(), blockRows, total, true, staging)
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

// mergePlan is one merge over runs of which some, usually all, are on disk:
// the runs, and the tasks internal/spill's planner cuts it into.
type mergePlan struct {
	*spill.Plan
	ids    []uint32 // the runs, in merge (tie) order
	index  []int32  // a run id's position in ids
	anyTie bool     // some run needs the tie-break comparator
	safe   int      // width of the byte-decisive key prefix
}

// drainTaskFences is the blocks a task over spilled runs begins: as many as
// make a resident task's rows at the default block size. Fixed by the null
// arms in EXPERIMENTS.md ("Spilled runs stream through Rows").
const drainTaskFences = drainTaskRows / DefaultSpillBlockRows

// planSpillTasks plans the merge of runs ids: one task when single says so,
// else as many as the fences afford (see spill.PlanTasks).
func (s *Sorter) planSpillTasks(ids []uint32, single bool) *mergePlan {
	p := &mergePlan{ids: ids, index: make([]int32, len(s.runs))}
	files := make([]*spill.File, len(ids))
	for i, id := range ids {
		r := s.runs[id]
		p.index[id] = int32(i)
		p.anyTie = p.anyTie || r.tieBreak
		files[i] = r.spill
	}
	p.safe = s.ovcSafeWidth(p.anyTie)
	taskFences := drainTaskFences
	if single {
		taskFences = 0
	}
	p.Plan = spill.PlanTasks(files, p.safe, taskFences)
	return p
}

// newBlockStage opens the stage that serves p's blocks to claimants
// concurrent merges, charged to a reservation of its own.
func (s *Sorter) newBlockStage(p *mergePlan, claimants int) (*spill.Stage, error) {
	return s.spills.NewStage(p.Plan, s.broker.Reserve("merge", 0), s.opt.readAhead(), claimants)
}

// releaseMerged lets go of runs a merge has consumed: their files are gone
// with the merge's stage, and what was still in memory of them is released.
func (s *Sorter) releaseMerged(ids []uint32) {
	for _, id := range ids {
		s.releaseRun(s.runs[id])
		s.runs[id].spill = nil
	}
}
