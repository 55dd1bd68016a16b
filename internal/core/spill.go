package core

import (
	"bufio"
	"context"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"os"
	"path/filepath"

	"rowsort/internal/mergepath"
	"rowsort/internal/normkey"
	"rowsort/internal/obs"
	"rowsort/internal/row"
	"rowsort/internal/strategy"
)

// Spilling demonstrates the paper's future-work direction: because a run is
// just flat key rows plus a row-format payload, it can be offloaded to
// secondary storage in one unified format with no conversion. Runs are
// written as fixed-size blocks (the key rows, then their payload rows with a
// block-local string heap) and merged back like any other run: every merge
// over spilled runs — the tasks of the result iterator, an intermediate
// fan-in pass — streams all k runs block by block
// through one offset-value-coded loser tree, its blocks served by the block
// stage (prefetch.go). Resident memory is bounded by the stage's blocks, not
// by the output, and every spilled byte is read exactly once.

// spillMagic heads every spill file ("RSB3": row-sort blocks, format 3).
// Each block's key section starts with a tag byte — 0 for raw key rows, 1
// for a little-endian uint32 encoded length followed by the front-coded rows
// (normkey.AppendFrontCoded) — and its payload section follows. A spill file
// is a temp file read back by the process that wrote it: there is no other
// format to stay compatible with.
const spillMagic = 0x52534233

// spillHeaderLen is the file header: magic, block rows, total rows.
const spillHeaderLen = 16

// fcPlanCutoff is the sampled encoded-to-raw ratio below which a block of a
// run whose plan asked for front-coding attempts it; blocks predicted to
// shrink by less than a fifth skip the encode work entirely. A plan asks
// whenever the key's first byte is constant (any NOT NULL leading column), so
// this is what keeps high-cardinality keys raw: sorted uniform int64 keys
// predict 0.92, and at the former cutoff of 0.95 coding them saved 2.4 % of
// the spill bytes for 15 % more wall time (EXPERIMENTS.md "Every run is
// planned"); duplicate-heavy keys predict 0.5–0.75.
const fcPlanCutoff = 0.8

// spillFile records where a sorted run lives on disk, plus the in-memory
// block index recorded while writing it: the byte offset of every block's
// key section and the block's first key row (the fences, concatenated at
// the key-row stride so they form a mergepath.Run the task planner can
// search directly), and the file's length, which ends the last block.
// The offsets let a merge read any block with one positioned read; the fences
// bound each block's key range without reading it. The index costs one key row
// plus one offset per block (rowWidth+8 bytes per blockRows rows) and is
// part of the documented budget slack.
type spillFile struct {
	path      string
	blockRows int
	offs      []int64
	fences    []byte
	size      int64
}

// numBlocks returns how many blocks the file holds.
func (sf *spillFile) numBlocks() int { return len(sf.offs) }

// blockEnd returns the offset block b ends at.
func (sf *spillFile) blockEnd(b int) int64 {
	if b+1 < len(sf.offs) {
		return sf.offs[b+1]
	}
	return sf.size
}

// fence returns block b's first key row.
//
//rowsort:hotpath
func (sf *spillFile) fence(b, rowWidth int) []byte {
	return sf.fences[b*rowWidth : (b+1)*rowWidth]
}

// trackSpill registers a spill file for cleanup by Close.
func (s *Sorter) trackSpill(path string) {
	s.spillMu.Lock()
	if s.spillPaths == nil {
		s.spillPaths = make(map[string]struct{})
	}
	s.spillPaths[path] = struct{}{}
	s.spillMu.Unlock()
}

// untrackSpill forgets a spill file that no longer exists on disk.
func (s *Sorter) untrackSpill(path string) {
	s.spillMu.Lock()
	delete(s.spillPaths, path)
	s.spillMu.Unlock()
}

// removeSpillFile deletes a tracked spill file, keeping the removal
// counters in SortStats current. On failure the file stays tracked so a
// later Close retries it, and the error is returned (a merge that has read
// the file leaves it to Close rather than fail).
func (s *Sorter) removeSpillFile(path string) error {
	if err := os.Remove(path); err != nil && !os.IsNotExist(err) {
		s.ctr.Add(obs.SpillRemoveErrors, 1)
		return err
	}
	s.untrackSpill(path)
	s.ctr.Add(obs.SpillFilesRemoved, 1)
	return nil
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
// spilled): a second Close after a clean one is a no-op returning the first
// call's result, while files whose removal failed stay tracked and are
// retried. Removal errors are not swallowed — every failed removal is
// joined into the returned error and counted as spill_remove_errors.
func (s *Sorter) Close() error {
	s.cancel()
	s.drainWG.Wait()
	s.spillMu.Lock()
	defer s.spillMu.Unlock()
	if s.closed && len(s.spillPaths) == 0 && s.spillTmpDir == "" {
		return s.closeErr
	}
	s.closed = true
	// Hand the budget back: anything still charged to the broker —
	// resident runs, pooled buffers — is dead once the sorter is closed.
	// Releases are idempotent, so a retried Close is harmless; the
	// broker's peak (Stats().PeakResidentRunBytes) survives.
	if s.unsub != nil {
		s.unsub()
		s.unsub = nil
	}
	s.runRes.Release()
	s.poolRes.Release()
	var errs []error
	for path := range s.spillPaths {
		if err := os.Remove(path); err != nil && !os.IsNotExist(err) {
			s.ctr.Add(obs.SpillRemoveErrors, 1)
			errs = append(errs, fmt.Errorf("core: removing spill file: %w", err))
			continue
		}
		delete(s.spillPaths, path)
		s.ctr.Add(obs.SpillFilesRemoved, 1)
	}
	if s.spillTmpDir != "" && len(s.spillPaths) == 0 {
		if err := os.RemoveAll(s.spillTmpDir); err != nil {
			errs = append(errs, fmt.Errorf("core: removing spill directory: %w", err))
		} else {
			s.spillTmpDir = ""
		}
	}
	s.closeErr = errors.Join(errs...)
	// The run is over; a registry watching it may now let it go.
	s.run.Done()
	return s.closeErr
}

// countingWriter counts the bytes written through it.
type countingWriter struct {
	w io.Writer
	n int64
}

func (c *countingWriter) Write(p []byte) (int, error) {
	n, err := c.w.Write(p)
	c.n += int64(n)
	return n, err
}

// spillPath names run id's spill file: under Options.SpillDir when set,
// else under a private temp directory created on first use (and removed by
// Close once its files are gone).
func (s *Sorter) spillPath(id uint32) (string, error) {
	dir := s.opt.SpillDir
	if dir == "" {
		s.spillMu.Lock()
		if s.spillTmpDir == "" {
			d, err := os.MkdirTemp("", "rowsort-spill-*")
			if err != nil {
				s.spillMu.Unlock()
				return "", fmt.Errorf("core: creating spill directory: %w", err)
			}
			s.spillTmpDir = d
		}
		dir = s.spillTmpDir
		s.spillMu.Unlock()
	}
	return filepath.Join(dir, fmt.Sprintf("rowsort-run-%d.bin", id)), nil
}

// approxRowBytes estimates one row's resident footprint (key row plus
// fixed-width payload row; string heaps unknown) for budget planning when
// the exact buffers are not at hand.
func (s *Sorter) approxRowBytes() int64 { return int64(s.rowWidth + s.layout.Width()) }

// spillBlockRowsFor is the block-size decision for a run about to be written,
// and it has two owners. A budget sizes the block from what remains of it and
// the run's average row footprint (mergepath.PlanBlockRows): small blocks
// under pressure, default-sized ones when there is headroom. Without one the
// run's plan may hint a shape, and otherwise the default stands.
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
	case r.blockHint > 0:
		return r.blockHint
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

// spillTo writes the run to its spill file in the blocked format and
// releases its in-memory buffers. On any error the partial file is
// removed; nothing is leaked. ow is the calling worker's trace lane.
// Callers on concurrent paths must hold the run's claim (see spillRun).
func (r *sortedRun) spillTo(s *Sorter, ow *obs.Worker) error {
	sp := ow.Begin(obs.PhaseSpillWrite)
	defer sp.End()
	n := len(r.keys) / s.rowWidth
	blockRows := s.spillBlockRowsFor(r)
	w, err := s.newSpillWriter(r.id, blockRows, n, r.frontCode)
	if err != nil {
		return err
	}
	blockSet := s.getRowSet()
	defer s.putRowSet(blockSet)
	idxs := make([]uint32, 0, blockRows)
	for start := 0; start < n; start += blockRows {
		rows := min(blockRows, n-start)
		blockSet.Reset()
		idxs = idxs[:0]
		for i := 0; i < rows; i++ {
			idxs = append(idxs, uint32(start+i))
		}
		blockSet.AppendRowsFrom(r.payload, idxs)
		if err := w.writeBlock(r.keys[start*s.rowWidth:(start+rows)*s.rowWidth], blockSet); err != nil {
			return w.abort(err)
		}
	}
	if r.spill, err = w.finish(); err != nil {
		return err
	}
	// The in-memory buffers are dead once the run is on disk: give their
	// bytes back to the budget and recycle them for the next pending run.
	s.releaseRun(r)
	return nil
}

// spillWriter writes one run's spill file: a header, then per block the
// tagged key section (raw rows, or front-coded when the run's plan asked for
// the attempt and the block shrank) followed by the block's payload rows
// (with a block-local string heap, so a reader needs only that block resident
// to resolve tie-break lookups). It records the file's block index (offsets
// and fences) as the blocks stream out.
type spillWriter struct {
	s  *Sorter
	f  *os.File
	bw *bufio.Writer
	cw countingWriter
	sf *spillFile
	fc bool // the run's plan bit: blocks try front-coding (tag 1)
	// fcScratch is the reusable front-coding encode buffer; pre the key
	// section's tag byte and encoded length.
	fcScratch []byte
	pre       [5]byte
}

// newSpillWriter creates run id's spill file, tracked for cleanup from here
// on, and writes its header.
func (s *Sorter) newSpillWriter(id uint32, blockRows, rows int, fc bool) (*spillWriter, error) {
	path, err := s.spillPath(id)
	if err != nil {
		return nil, err
	}
	f, err := os.Create(path)
	if err != nil {
		return nil, fmt.Errorf("core: creating spill file: %w", err)
	}
	s.trackSpill(path)
	numBlocks := (rows + blockRows - 1) / blockRows
	w := &spillWriter{s: s, f: f, bw: bufio.NewWriter(f), fc: fc, sf: &spillFile{path: path, blockRows: blockRows,
		offs: make([]int64, 0, numBlocks), fences: make([]byte, 0, numBlocks*s.rowWidth)}}
	w.cw.w = w.bw
	var hdr [spillHeaderLen]byte
	binary.LittleEndian.PutUint32(hdr[0:], spillMagic)
	binary.LittleEndian.PutUint32(hdr[4:], uint32(blockRows))
	binary.LittleEndian.PutUint64(hdr[8:], uint64(rows))
	if _, err := w.cw.Write(hdr[:]); err != nil {
		return nil, w.abort(err)
	}
	return w, nil
}

// writeBlock appends one block: keys' rows, then their payload.
func (w *spillWriter) writeBlock(keys []byte, payload *row.RowSet) error {
	rw := w.s.rowWidth
	w.sf.offs = append(w.sf.offs, w.cw.n)
	w.sf.fences = append(w.sf.fences, keys[:rw]...)
	if err := w.writeKeySection(keys, len(keys)/rw); err != nil {
		return err
	}
	_, err := payload.WriteTo(&w.cw)
	return err
}

// finish flushes and closes the file and returns its index. On failure the
// partial file is removed.
func (w *spillWriter) finish() (*spillFile, error) {
	if err := w.bw.Flush(); err != nil {
		return nil, w.abort(err)
	}
	if err := w.f.Close(); err != nil {
		w.f = nil
		return nil, w.abort(err)
	}
	w.s.ctr.Add(obs.SpillBytesWritten, w.cw.n)
	w.sf.size = w.cw.n
	return w.sf, nil
}

// abort removes the partial file and returns err, joined with the removal's
// own failure if it has one.
func (w *spillWriter) abort(err error) error {
	if w.f != nil {
		w.f.Close()
	}
	if rerr := w.s.removeSpillFile(w.sf.path); rerr != nil {
		err = errors.Join(err, rerr)
	}
	return err
}

// writeKeySection writes one spill block's key rows: a tag byte, then either
// the raw rows (tag 0) or a length-prefixed front-coded encoding (tag 1). The
// encode is attempted only for a run whose plan asked for it, and then only
// when a fresh sample of the block predicts a saving (re-checked per block,
// so intermediate merge generations re-sample what the merge actually
// produced), and kept only when the block really shrank.
func (w *spillWriter) writeKeySection(keys []byte, rows int) error {
	rw, kw := w.s.rowWidth, w.s.keyWidth
	section := keys
	w.pre[0] = 0
	tagged := w.pre[:1]
	if w.fc && normkey.PlanFrontCoding(keys, rw, kw, rows) < fcPlanCutoff {
		w.fcScratch = normkey.AppendFrontCoded(w.fcScratch[:0], keys, rw, kw, rows)
		if len(w.fcScratch) < len(keys) {
			w.pre[0] = 1
			binary.LittleEndian.PutUint32(w.pre[1:], uint32(len(w.fcScratch)))
			section, tagged = w.fcScratch, w.pre[:]
			w.s.ctr.Add(obs.SpillFCBlocks, 1)
		}
	}
	if _, err := w.cw.Write(tagged); err != nil {
		return err
	}
	_, err := w.cw.Write(section)
	return err
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
	st  *blockStage
	ctx context.Context
	ow  *obs.Worker // the claimant's trace lane, for the blocks it decodes itself
	tie mergepath.CompareFunc

	lo, hi  []byte // the key range being merged, on the safe prefix; nil is open
	cur     []extCursor
	m       *mergepath.Merger
	sets    []*row.RowSet // gather sources; the first len(cur) are the runs' current blocks at the last settle
	retired []blockRef    // blocks run out, still referenced since the last settle
	pending int           // references handed out since the last settle
	err     error         // a refill's failure: the merge ran on without the run
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

// newExtMerge returns a claimant's merge over st's runs, not yet on any range.
func (s *Sorter) newExtMerge(ctx context.Context, st *blockStage, ow *obs.Worker) *extMerge {
	k := len(st.plan.ids)
	e := &extMerge{s: s, st: st, ctx: ctx, ow: ow,
		cur: make([]extCursor, k), sets: make([]*row.RowSet, k, 2*k)}
	// Tie-break lookups resolve against the run's current block: references
	// store absolute run indexes, the cursor knows its block's offset.
	e.tie, _ = s.mergeOrder(st.plan.anyTie, func(runID, idx uint32) (*row.RowSet, int) {
		c := &e.cur[st.plan.index[runID]]
		return c.payload, int(idx) - c.start
	})
	return e
}

// open starts the merge of plan task t: every run's first block holding a
// key of the task's range, trimmed to it, under a fresh loser tree.
func (e *extMerge) open(t int) error {
	s, p := e.s, e.st.plan
	e.lo, e.hi = p.bound(t)
	e.err = nil
	mruns := make([]mergepath.Run, len(e.cur))
	for i := range e.cur {
		c, r := &e.cur[i], s.runs[p.ids[i]]
		keys := r.keys
		if r.spill == nil {
			*c = extCursor{payload: r.payload}
		} else {
			*c = extCursor{}
			c.first, c.end = p.span(s, i, e.lo, e.hi)
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
	rw, safe := e.s.rowWidth, e.st.plan.safe
	for ; c.blk < c.end; c.blk++ {
		ref := blockRef{int32(i), int32(c.blk)}
		b, err := e.st.acquire(e.ctx, ref, e.ow)
		if err != nil {
			return nil, err
		}
		keys := mergepath.Run{Data: b.keys, Width: rw}
		from, to := 0, keys.Len()
		if c.blk == c.first && e.lo != nil {
			from = safeLowerBound(keys, e.lo, safe)
		}
		if c.blk == c.end-1 && e.hi != nil {
			to = safeLowerBound(keys, e.hi, safe)
		}
		if from < to {
			c.payload, c.start, c.pad = b.payload, b.start, uint32(from)
			return b.keys[from*rw : to*rw], nil
		}
		e.st.release(ref)
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
	if ref := (blockRef{int32(r), int32(c.blk)}); e.pending == 0 {
		e.st.release(ref)
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
//
//rowsort:hotpath
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
		e.st.release(ref)
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
// budgeted output byte-identical to the unlimited sort. The strategy
// planner's merge-role hints steer where the contiguous cuts land
// (mergepath.BatchRuns groups like-role neighbors into the same pass, which
// keeps the duplicate-run fast path hot); they never reorder runs, so the
// tie guarantee is untouched. The executed plan is recorded in SortStats
// (merge passes, final fan-in, pass bytes).
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
		role := func(i int) int { return int(s.runs[ids[i]].role) }
		next := make([]uint32, 0, (len(ids)+plan.FanIn-1)/plan.FanIn)
		for _, span := range mergepath.BatchRuns(len(ids), plan.FanIn, role) {
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
// directly into a new spilled run (blocked format, refs rewritten to the
// merged run), registers it — Finalize already holds s.mu, so no locking —
// and releases the consumed inputs, whose files the pass's block stage
// deleted as it finished with them. Resident memory is the stage's blocks
// plus one output block of blockRows rows. Each pass is one PhaseMergePass
// span and is counted in SortStats (passes, input runs, bytes rewritten).
func (s *Sorter) mergeRunsToSpill(ids []uint32, blockRows int, mw *obs.Worker) (uint32, error) {
	psp := mw.Begin(obs.PhaseMergePass)
	defer psp.End()
	st, err := s.newBlockStage(s.planSpillTasks(ids, true), 1)
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
		st.close(consumed)
		if consumed {
			for _, id := range ids {
				s.releaseRun(s.runs[id])
				s.runs[id].spill = nil
			}
		}
	}()
	st.start(ctx)
	e := s.newExtMerge(ctx, st, mw)
	if err := e.open(0); err != nil {
		return 0, err
	}

	// A merged run inherits its inputs' common merge role (mixed batches
	// demote to normal) and attempts front-coded spill blocks whatever its
	// inputs did: writeKeySection re-samples every block of every generation,
	// so the decision tracks what this merge actually produced rather than
	// what the original runs looked like.
	total := 0
	role := s.runs[ids[0]].role
	for _, id := range ids {
		total += s.runs[id].rows
		if s.runs[id].role != role {
			role = strategy.RoleNormal
		}
	}
	// An intermediate pass moves every input row again; grow the plan so
	// the progress fraction accounts for the extra work instead of jumping
	// past 100%.
	s.ctr.Add(obs.MergeRowsPlanned, int64(total))
	merged := &sortedRun{id: uint32(len(s.runs)), tieBreak: st.plan.anyTie, rows: total,
		role: role, frontCode: true}
	s.runs = append(s.runs, merged)
	w, err := s.newSpillWriter(merged.id, blockRows, total, merged.frontCode)
	if err != nil {
		return 0, err
	}

	rw := s.rowWidth
	staging := s.getRowSet()
	defer s.putRowSet(staging)
	keyBlock := make([]byte, 0, blockRows*rw)
	which := make([]uint32, 0, blockRows)
	idxs := make([]uint32, 0, blockRows)
	// gather moves the payload rows merged since the last call into the
	// output block, after which the merge may let their input blocks go.
	gather := func() {
		staging.AppendRowsGather(e.sets, which, idxs)
		s.ctr.Add(obs.RowsMerged, int64(len(idxs)))
		which, idxs = which[:0], idxs[:0]
		e.settle()
	}
	outPos := 0
	for {
		keyRow, slot, idx, ok := e.next()
		if !ok {
			break
		}
		keyBlock = append(keyBlock, keyRow...)
		s.putRef(keyBlock[len(keyBlock)-rw:], merged.id, uint32(outPos))
		which, idxs = append(which, slot), append(idxs, idx)
		outPos++
		if len(keyBlock) == blockRows*rw {
			gather()
			if err := w.writeBlock(keyBlock, staging); err != nil {
				return 0, w.abort(err)
			}
			staging.Reset()
			keyBlock = keyBlock[:0]
		}
	}
	if err := e.err; err != nil {
		return 0, w.abort(err)
	}
	if outPos != total {
		return 0, w.abort(fmt.Errorf("core: fan-in merge produced %d of %d rows", outPos, total))
	}
	gather()
	if len(keyBlock) > 0 {
		if err := w.writeBlock(keyBlock, staging); err != nil {
			return 0, w.abort(err)
		}
	}
	if merged.spill, err = w.finish(); err != nil {
		return 0, err
	}

	consumed = true
	mst := e.m.Stats()
	mst.BytesMoved = uint64(outPos * rw)
	s.mergeStats.Add(mst)
	s.publishMerge(s.mergeStats)
	s.ctr.Add(obs.MergePasses, 1)
	s.ctr.Add(obs.MergePassRuns, int64(len(ids)))
	s.ctr.Add(obs.MergePassBytes, merged.spill.size)
	return merged.id, nil
}
