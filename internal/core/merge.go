package core

import (
	"bytes"
	"context"
	"errors"

	"rowsort/internal/mergepath"
	"rowsort/internal/obs"
	"rowsort/internal/row"
	"rowsort/internal/spill"
)

// The merge. Every merge — the tasks of the result iterator, over runs in
// memory, on disk or both, and an intermediate fan-in pass — streams all k
// runs through one offset-value-coded loser tree (extMerge), the blocks of
// those on disk served by internal/spill's block stage. This file plans it —
// the order over key rows, the tasks and the order their bounds compare in,
// how many runs a budget can merge at once and how many claimants a budgeted
// drain affords — and runs it. Resident memory is bounded by the stage's
// blocks, not by the output, and every spilled byte is read exactly once.

// mergeOrder returns the merge's comparators over key rows, each beside its
// run's place in the merge: tie orders rows equal on the byte-decisive prefix
// (normkey's DecisiveWidth), the one a loser tree is coded on, and is nil
// when no run can tie; cmp is the whole order. A tie is resolved against the
// full strings in the payload — only strings that overflow their prefixes
// tie, and those lie on the heap — which lookup finds by the row's run and
// its reference, the row's index in that run: the RowSet holding it and the
// row's index there (payloadOf). Rows that cannot tie are compared with one
// bytes.Compare over the key, the paper's memcmp.
func (s *Sorter) mergeOrder(anyTieBreak bool, lookup func(run int, idx uint32) (*row.RowSet, int)) (tie, cmp mergepath.RunCompareFunc) {
	if anyTieBreak {
		byKey := s.place.byKey
		tie = s.enc.Comparator(func(keyRow []byte, run, k int) []byte {
			p, i := lookup(run, s.getRef(keyRow))
			if c := byKey[k]; c.where == inSegment {
				return p.OverflowBytes(i, c.pay) // inlined: StringBytes is not
			}
			return p.StringBytes(i, byKey[k].pay)
		})
		return tie, tie
	}
	kw := s.keyWidth
	return nil, func(a []byte, _ int, b []byte, _ int) int { return bytes.Compare(a[:kw], b[:kw]) }
}

// mergePlan is one merge over runs in memory, on disk or both: the runs, and
// the tasks internal/spill's planner cuts it into, whose bounds compare in
// the merge's whole order — the key under cmp, then the run's place in the
// merge, then the row's in its run — so rows of equal keys are split between
// tasks where the stable merge would.
type mergePlan struct {
	*spill.Plan
	ids    []uint32                 // the runs, in merge (tie) order
	anyTie bool                     // some run needs the tie-break comparator
	safe   int                      // width of the byte-decisive key prefix
	cmp    mergepath.RunCompareFunc // the merge's order on keys, for whoever holds no block: fences and runs in memory
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
	p := &mergePlan{ids: ids}
	files, resident := make([]*spill.File, len(ids)), make([]mergepath.Run, len(ids))
	for i, id := range ids {
		r := s.runs[id]
		p.anyTie = p.anyTie || r.tieBreak
		if files[i] = r.spill; r.spill == nil && !single {
			resident[i] = s.residentFences(r)
		}
	}
	p.safe = s.keyWidth
	if p.anyTie {
		p.safe = s.enc.DecisiveWidth()
	}
	taskFences := drainTaskFences
	if single {
		taskFences = 0
	}
	_, p.cmp = s.mergeOrder(p.anyTie, s.payloadOf(p, nil))
	p.Plan = spill.PlanTasks(files, resident, s.spillBlockRows(), p.cmp, taskFences)
	return p
}

// payloadOf returns the tie lookup of a merge of p by a claimant whose
// cursors are cur (nil for the planner, which has none), for row idx of the
// run at place run in the merge: its payload is in the block of the run that
// the claimant holds, when that block contains the row; else in a run in
// memory's own payload; else the row is a fence of a run on disk — a
// claimant's bound, or the planner's — whose payload its file keeps.
func (s *Sorter) payloadOf(p *mergePlan, cur []extCursor) func(run int, idx uint32) (*row.RowSet, int) {
	return func(run int, idx uint32) (*row.RowSet, int) {
		if cur != nil {
			if c := &cur[run]; c.payload != nil && int(idx) >= c.start && int(idx) < c.start+c.payload.Len() {
				return c.payload, int(idx) - c.start
			}
		}
		r := s.runs[p.ids[run]]
		if r.spill == nil {
			return r.payload, int(idx)
		}
		return r.spill.FencePayload(), int(idx) / r.spill.BlockRows()
	}
}

// residentFences returns the fences of a run in memory: its key rows at
// every spillBlockRows, where its blocks would start were it on disk.
func (s *Sorter) residentFences(r *sortedRun) mergepath.Run {
	rw, stride := s.place.rowWidth, s.spillBlockRows()
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
	ow  *obs.Worker              // the claimant's trace lane, for the blocks it decodes itself
	tie mergepath.RunCompareFunc // the loser tree's, nil when no run can tie
	cmp mergepath.RunCompareFunc // the merge's order on keys, which ranks the rows this claimant holds

	lo, hi  spill.Bound // the range being merged; a nil Key is open
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
	e.tie, e.cmp = s.mergeOrder(p.anyTie, s.payloadOf(p, e.cur))
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
			*c = extCursor{payload: r.payload}
			from, to := p.Range(mergepath.Run{Data: r.keys, Width: s.place.rowWidth}, i, 0, e.lo, e.hi, e.cmp)
			c.pad = uint32(from)
			keys = r.keys[from*s.place.rowWidth : to*s.place.rowWidth]
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
		mruns[i] = mergepath.Run{Data: keys, Width: s.place.rowWidth}
	}
	e.m = mergepath.NewMerger(mruns, p.safe, e.tie)
	e.m.SetRefill(e.refill)
	return nil
}

// load makes run i's block c.blk — or the first one after it with a key in
// range — the cursor's, and returns its keys in range; nil when the run has
// none left. A block is the cursor's before it is ranked: the tie lookup
// finds its rows there.
func (e *extMerge) load(i int) ([]byte, error) {
	c := &e.cur[i]
	rw := e.s.place.rowWidth
	for ; c.blk < c.end; c.blk++ {
		ref := spill.BlockRef{Run: int32(i), Blk: int32(c.blk)}
		b, err := e.st.Acquire(e.ctx, ref, e.ow)
		if err != nil {
			if errors.Is(err, context.Canceled) {
				err = errSorterClosed
			}
			return nil, err
		}
		c.payload, c.start = b.Payload, b.Start
		from, to := e.p.Range(mergepath.Run{Data: b.Keys, Width: rw}, i, b.Start, e.lo, e.hi, e.cmp)
		if from < to {
			c.pad = uint32(from)
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
	return mergepath.Run{Data: keys, Width: e.s.place.rowWidth}, true
}

// next emits the next merged row: its key row (in the run's block, valid
// until the next settle), and its payload as row idx of sets[which]. ok is
// false at the end of the range and after a failed read: check err then.
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
// directly into a new spilled run (payload references, where the key rows
// carry them, rewritten to the rows' places in the merged run; an inline
// payload moves with its key row), registers it — Finalize already holds
// s.mu, so no locking — and
// releases the consumed inputs, whose files the pass's block stage deleted as
// it finished with them. Resident memory is the stage's blocks plus one output
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
	defer w.Abort(nil) // a panic's way out closes the file too
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
		if dst := w.Add(keyRow, slot, idx); !s.place.inline {
			s.putRef(dst, outPos)
		}
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
	mst.BytesMoved = uint64(total * s.place.rowWidth)
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
// output row is outputRowBytes. Every claimant must fit in the budget
// Finalize left, the first of them the one reduceFanIn planned for.
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
				from, to := p.Range(mergepath.Run{Data: r.keys, Width: s.place.rowWidth}, i, 0, lo, hi, p.cmp)
				rows += to - from
			}
		}
		taskRows = max(taskRows, rows)
	}
	blocks := int64(disk*s.opt.mergeBuffers()) * s.mergeBlockBytes(p.ids)
	window = int64(drainWindowPerThread*taskRows) * s.outputRowBytes(diskBytes, diskRows)
	claimants = min(most, int(s.broker.Remaining()/max(blocks+window, 1)))
	if claimants <= 1 {
		return 1, 0
	}
	return claimants, int64(claimants) * window
}

// outputRowBytes is what a drain's output chunk holds for one row of runs on
// disk that hold diskRows rows in diskBytes bytes: what a row there holds, on
// average, less its key row, plus what the output holds that the payload on
// disk does not (placement.outputRow).
func (s *Sorter) outputRowBytes(diskBytes int64, diskRows int) int64 {
	return (diskBytes+int64(diskRows)-1)/int64(max(diskRows, 1)) - int64(s.place.rowWidth) + s.place.outputRow
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
