package core

import (
	"bufio"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"os"
	"path/filepath"

	"rowsort/internal/mem"
	"rowsort/internal/mergepath"
	"rowsort/internal/normkey"
	"rowsort/internal/obs"
	"rowsort/internal/row"
	"rowsort/internal/strategy"
)

// Spilling demonstrates the paper's future-work direction: because a run is
// just flat key rows plus a row-format payload, it can be offloaded to
// secondary storage in one unified format with no conversion. Runs are
// written as fixed-size blocks (SpillBlockRows key rows followed by their
// payload rows with a block-local string heap), and the merge streams all k
// runs back block by block through one offset-value-coded loser tree:
// resident memory is bounded by k blocks plus the materialized output. The
// sequential streaming merge reads every spilled byte exactly once; the
// fence-partitioned parallel final merge (extparallel.go) re-reads the block
// that straddles each partition boundary, once per neighbour — a read
// amplification of 1.064 on the benchmark's ext-catalog-spill, left to
// ROADMAP item 2.

// spillMagic heads every spill file ("RSB2": row-sort blocks, format 2).
const spillMagic = 0x52534232

// spillMagicFC heads spill files whose key sections may be front-coded
// ("RSB3"): each block's key section starts with a tag byte — 0 for raw key
// rows, 1 for a little-endian uint32 encoded length followed by the
// front-coded rows (normkey.AppendFrontCoded). Payload sections and the
// block index are unchanged. Written only by adaptive sorts; format-2 files
// stay byte-for-byte what they always were.
const spillMagicFC = 0x52534233

// spillHeaderLen is the file header: magic, block rows, total rows.
const spillHeaderLen = 16

// fcPlanCutoff is the sampled encoded-to-raw ratio below which a block's
// key section attempts front-coding; blocks predicted to barely shrink
// skip the encode work entirely.
const fcPlanCutoff = 0.95

// spillFile records where a sorted run lives on disk, plus the in-memory
// block index recorded while writing it: the byte offset of every block's
// key section and the block's first key row (the fences, concatenated at
// the key-row stride so they form a mergepath.Run the partition planner
// can KWaySplit directly). The offsets let a partitioned merge worker open
// a run mid-file; the fences bound each block's key range without reading
// it. The index costs one key row plus one offset per block (rowWidth+8
// bytes per SpillBlockRows rows) and is part of the documented budget
// slack.
type spillFile struct {
	path      string
	blockRows int
	offs      []int64
	fences    []byte
}

// numBlocks returns how many blocks the file holds.
func (sf *spillFile) numBlocks() int { return len(sf.offs) }

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
// later Close retries it, and the error is returned (callers on the
// streaming path may defer it to Close rather than fail the merge).
func (s *Sorter) removeSpillFile(path string) error {
	if err := os.Remove(path); err != nil && !os.IsNotExist(err) {
		s.spillRemoveErrs.Add(1)
		return err
	}
	s.untrackSpill(path)
	s.spillRemoved.Add(1)
	return nil
}

// Close removes any spill files the sorter still has on disk. A completed
// Finalize removes them as it streams, so this is a no-op on the happy
// path; aborted sorts (a sink error, a sorter dropped before Finalize) must
// call it to avoid leaking rowsort-run-*.bin files.
//
// Result iterators still running (Rows handed out, never closed) have their
// workers stopped and joined first; such an iterator's next Next fails.
//
// Close is safe to call multiple times (including on sorters that never
// spilled): a second Close after a clean one is a no-op returning the first
// call's result, while files whose removal failed stay tracked and are
// retried. Removal errors are not swallowed — every failed removal is
// joined into the returned error and counted in Stats().SpillRemoveErrors.
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
			s.spillRemoveErrs.Add(1)
			errs = append(errs, fmt.Errorf("core: removing spill file: %w", err))
			continue
		}
		delete(s.spillPaths, path)
		s.spillRemoved.Add(1)
	}
	if s.spillTmpDir != "" && len(s.spillPaths) == 0 {
		if err := os.RemoveAll(s.spillTmpDir); err != nil {
			errs = append(errs, fmt.Errorf("core: removing spill directory: %w", err))
		} else {
			s.spillTmpDir = ""
		}
	}
	s.closeErr = errors.Join(errs...)
	// The run is over: freeze its final stats into the observability
	// registry (idempotent; Stats only takes s.mu, which Close never
	// holds).
	s.obsRun.Done()
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

// countingReader adds the bytes read through it to the sorter's spill-read
// counter (the single-read-pass accounting).
type countingReader struct {
	r io.Reader
	s *Sorter
}

func (c *countingReader) Read(p []byte) (int, error) {
	n, err := c.r.Read(p)
	c.s.spillRead.Add(int64(n))
	c.s.prog.SpillBytesRead.Add(int64(n))
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

// spillBlockRowsFor plans the spill-block size for a run about to be
// written: the configured SpillBlockRows when set, the default when
// unbudgeted, else a block sized from the remaining budget and the run's
// average row footprint (mergepath.PlanBlockRows) — small blocks under
// pressure, default-sized ones when there is headroom.
func (s *Sorter) spillBlockRowsFor(r *sortedRun) int {
	if s.opt.SpillBlockRows > 0 || !s.opt.limited() {
		// The strategy plan's block-shape hint applies only when neither the
		// user (SpillBlockRows) nor a budget (mergepath planning below) owns
		// the block size.
		if s.opt.SpillBlockRows == 0 && r.blockHint > 0 {
			return r.blockHint
		}
		return s.opt.spillBlockRows()
	}
	avg := s.approxRowBytes()
	if r.keys != nil && r.rows > 0 {
		avg = runBytes(r) / int64(r.rows)
	}
	return mergepath.PlanBlockRows(s.broker.Remaining(), avg, DefaultSpillBlockRows)
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
		s.pressureSpills.Add(1)
		s.prog.PressureSpills.Add(1)
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
	path, err := s.spillPath(r.id)
	if err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return fmt.Errorf("core: creating spill file: %w", err)
	}
	s.trackSpill(path)
	cleanup := func() { s.removeSpillFile(path) }
	bw := bufio.NewWriter(f)
	cw := &countingWriter{w: bw}
	blockRows := s.spillBlockRowsFor(r)
	sf, err := r.writeBlocks(s, cw, blockRows)
	if err != nil {
		f.Close()
		cleanup()
		return err
	}
	if err := bw.Flush(); err != nil {
		f.Close()
		cleanup()
		return err
	}
	if err := f.Close(); err != nil {
		cleanup()
		return err
	}
	s.spillWritten.Add(cw.n)
	s.prog.SpillBytesWritten.Add(cw.n)
	sf.path = path
	r.spill = sf
	// The in-memory buffers are dead once the run is on disk: give their
	// bytes back to the budget and recycle them for the next pending run.
	s.runRes.Shrink(runBytes(r))
	s.putKeyBuf(r.keys)
	s.putRowSet(r.payload)
	r.keys = nil
	r.payload = nil
	return nil
}

// writeKeySection writes one spill block's key rows. Raw format: the rows
// as they are. Front-coding format (fc): a tag byte, then either the raw
// rows (tag 0) or a length-prefixed front-coded encoding (tag 1). The
// encode is attempted only when a fresh sample of the block predicts a
// saving (re-checked per block, so intermediate merge generations re-sample
// what the merge actually produced), and kept only when the block really
// shrank. scratch is the caller's reusable encode buffer.
func (s *Sorter) writeKeySection(w io.Writer, scratch *[]byte, keys []byte, rows int, fc bool) error {
	if !fc {
		_, err := w.Write(keys)
		return err
	}
	rw, kw := s.rowWidth, s.keyWidth
	if normkey.PlanFrontCoding(keys, rw, kw, rows) < fcPlanCutoff {
		enc := normkey.AppendFrontCoded((*scratch)[:0], keys, rw, kw, rows)
		*scratch = enc
		if len(enc) < len(keys) {
			var pre [5]byte
			pre[0] = 1
			binary.LittleEndian.PutUint32(pre[1:], uint32(len(enc)))
			if _, err := w.Write(pre[:]); err != nil {
				return err
			}
			if _, err := w.Write(enc); err != nil {
				return err
			}
			s.spillBlocksFC.Add(1)
			return nil
		}
	}
	if _, err := w.Write([]byte{0}); err != nil {
		return err
	}
	_, err := w.Write(keys)
	return err
}

// writeBlocks serializes the run: a header, then per block the key rows
// (raw, or tagged and possibly front-coded when the run's strategy plan
// asked for it) followed by the block's payload rows (with a block-local
// string heap, so a reader needs only that block resident to resolve
// tie-break lookups). It returns the spill file's block index (offsets and
// fences), recorded as the blocks stream out; the caller fills in the path.
func (r *sortedRun) writeBlocks(s *Sorter, w *countingWriter, blockRows int) (*spillFile, error) {
	rw := s.rowWidth
	n := len(r.keys) / rw
	fc := s.opt.Adaptive && r.frontCode
	magic := uint32(spillMagic)
	if fc {
		magic = spillMagicFC
	}
	var hdr [spillHeaderLen]byte
	binary.LittleEndian.PutUint32(hdr[0:], magic)
	binary.LittleEndian.PutUint32(hdr[4:], uint32(blockRows))
	binary.LittleEndian.PutUint64(hdr[8:], uint64(n))
	if _, err := w.Write(hdr[:]); err != nil {
		return nil, err
	}
	numBlocks := (n + blockRows - 1) / blockRows
	sf := &spillFile{
		blockRows: blockRows,
		offs:      make([]int64, 0, numBlocks),
		fences:    make([]byte, 0, numBlocks*rw),
	}
	blockSet := s.getRowSet()
	defer s.putRowSet(blockSet)
	idxs := make([]uint32, 0, blockRows)
	var fcScratch []byte
	for start := 0; start < n; start += blockRows {
		rows := min(blockRows, n-start)
		sf.offs = append(sf.offs, w.n)
		sf.fences = append(sf.fences, r.keys[start*rw:start*rw+rw]...)
		if err := s.writeKeySection(w, &fcScratch, r.keys[start*rw:(start+rows)*rw], rows, fc); err != nil {
			return nil, err
		}
		blockSet.Reset()
		idxs = idxs[:0]
		for i := 0; i < rows; i++ {
			idxs = append(idxs, uint32(start+i))
		}
		blockSet.AppendRowsFrom(r.payload, idxs)
		if _, err := blockSet.WriteTo(w); err != nil {
			return nil, err
		}
	}
	return sf, nil
}

// runReader streams one run back from its spill file, one decoded block
// resident at a time — synchronously through a blockDecoder, or through a
// prefetcher goroutine that keeps Options.ReadAhead blocks decoded ahead of
// the merge (see prefetch.go). For runs that were never spilled it serves
// the in-memory buffers as a single block, so the merge handles mixed
// residency uniformly. A reader may be bounded to a key range (the
// partitioned external merge): keys then start at the first row whose
// byte-decisive safe prefix is >= lo and stop before the first >= hi.
type runReader struct {
	s   *Sorter
	run *sortedRun
	ow  *obs.Worker // trace lane block reads are recorded on

	dec *blockDecoder // synchronous disk mode
	pf  *prefetcher   // read-ahead disk mode
	cur *spillBlock   // current block (reused as the decode target in sync mode)

	numRows int // full-run row count (range readers serve a subset)

	keys       []byte      // current block's served key rows
	payload    *row.RowSet // current block's payload (always the full block)
	blockStart int         // absolute run index of payload's first row
	padOff     uint32      // keys[0]'s offset into payload (head-bounded blocks)

	// res, when set, is charged with the resident decoded blocks' bytes
	// (resBytes tracks the current block's share; the prefetcher charges
	// queued blocks itself). Memory-mode readers leave it nil: their run's
	// buffers are already accounted under runRes.
	res      *mem.Reservation
	resBytes int64

	memory       bool
	memServeRows int
	served       bool
	closed       bool
	err          error
}

// openRunReader opens a full-run reader; see openRunReaderRange.
func (s *Sorter) openRunReader(r *sortedRun, ow *obs.Worker, res *mem.Reservation) (*runReader, error) {
	return s.openRunReaderRange(r, ow, res, nil, nil, 0)
}

// openRunReaderRange opens a reader over r's rows, optionally bounded to
// the key range [lo, hi) on the safeWidth-byte prefix (nil bounds are
// open). ow is the trace lane block reads are recorded on; res is charged
// with the decoded blocks' bytes. When the run is on disk and
// Options.ReadAhead is enabled, a prefetcher goroutine starts decoding
// immediately.
func (s *Sorter) openRunReaderRange(r *sortedRun, ow *obs.Worker,
	res *mem.Reservation, lo, hi []byte, safeWidth int) (*runReader, error) {
	rd := &runReader{s: s, run: r, ow: ow, res: res}
	if r.spill == nil {
		rd.memory = true
		rd.numRows = len(r.keys) / s.rowWidth
		rd.memBounds(lo, hi, safeWidth)
		return rd, nil
	}
	dec, err := s.openBlockDecoder(r, lo, hi, safeWidth)
	if err != nil {
		return nil, err
	}
	rd.numRows = dec.numRows
	if depth := s.opt.readAhead(); depth > 0 {
		dec.ow = s.rec.Worker("prefetch")
		dec.phase = obs.PhasePrefetch
		rd.pf = startPrefetcher(dec, depth, res)
	} else {
		dec.ow = ow
		dec.phase = obs.PhaseSpillRead
		rd.dec = dec
	}
	return rd, nil
}

// memBounds precomputes a memory-mode reader's served slice: the rows of
// [lo, hi) on the safe prefix, found by binary search over the (sorted)
// resident keys.
func (rd *runReader) memBounds(lo, hi []byte, safeWidth int) {
	rd.keys = rd.run.keys
	rd.payload = rd.run.payload
	rw := rd.s.rowWidth
	full := mergepath.Run{Data: rd.run.keys, Width: rw}
	a, b := 0, rd.numRows
	if lo != nil {
		a = safeLowerBound(full, lo, safeWidth)
	}
	if hi != nil {
		b = safeLowerBound(full, hi, safeWidth)
	}
	if a > b {
		b = a
	}
	rd.keys = rd.run.keys[a*rw : b*rw]
	rd.padOff = uint32(a)
	rd.blockStart = 0
	rd.memServeRows = b - a
}

// next loads the run's next block, retiring the previous one. It returns
// false at end of the (range-bounded) run or on error (check rd.err).
func (rd *runReader) next() bool {
	if rd.err != nil {
		return false
	}
	if rd.memory {
		if rd.served || rd.memServeRows == 0 {
			return false
		}
		rd.served = true
		return true
	}

	var b *spillBlock
	if rd.pf != nil {
		b = rd.pf.next(rd.s)
		if b == nil {
			if err := rd.pf.err; err != nil {
				rd.err = err
			}
			return false
		}
	} else {
		sp := rd.ow.Begin(obs.PhaseSpillRead)
		var err error
		b, err = rd.dec.decode(rd.cur)
		sp.End()
		if err != nil {
			rd.err = err
			return false
		}
		if b == nil {
			return false
		}
	}
	// Retire the previous block's charge. The prefetcher charged the new
	// block when it decoded it; in sync mode the buffers are reused, so
	// charging nets out to the capacity delta.
	if rd.pf != nil {
		rd.res.Shrink(rd.resBytes)
	} else {
		rd.res.Grow(b.bytes - rd.resBytes)
	}
	rd.resBytes = b.bytes
	rd.cur = b
	rd.keys = b.keys
	rd.payload = b.payload
	rd.blockStart = b.payloadStart
	rd.padOff = b.padOff
	return true
}

// close releases the reader — stopping and draining its prefetcher, giving
// the decoded blocks' bytes back to the budget, closing the file. With
// remove set the (fully consumed) spill file is deleted; a failed removal
// keeps the file tracked, so Close retries it and reports the error.
func (rd *runReader) close(remove bool) {
	if rd.closed {
		return
	}
	rd.closed = true
	if rd.pf != nil {
		rd.pf.close()
	}
	if rd.dec != nil {
		rd.dec.close()
	}
	rd.res.Shrink(rd.resBytes)
	rd.resBytes = 0
	if rd.run.spill != nil && remove {
		rd.s.removeSpillFile(rd.run.spill.path)
		rd.run.spill = nil
	}
}

// extMerge is one streaming k-way merge over a mix of spilled and resident
// runs: block readers, the offset-value-coded loser tree, and a pending
// gather batch materialized into dst. It is shared by the eager merge
// (externalFinalize), the fan-in-reducing intermediate passes
// (mergeRunsToSpill), and the chunked result iterator (Sorter.Rows), which
// each drain it differently.
type extMerge struct {
	s      *Sorter
	mw     *obs.Worker
	res    *mem.Reservation // block buffers; the readers grow/shrink it
	active []uint32         // the participating run ids, merger order
	// readers is indexed by absolute run id (sparse): key-row references
	// carry the original run id, so tie-break lookups and refills resolve
	// without translation.
	readers []*runReader
	m       *mergepath.Merger
	total   int
	anyTie  bool

	batch     int
	srcs      []*row.RowSet
	pendWhich []uint32
	pendIdxs  []uint32
	dst       *row.RowSet // gather destination, owned by the drainer
}

// openExtMerge opens block readers over the given runs, primes their first
// blocks and builds the loser tree. res is charged with the resident block
// bytes for the merge's lifetime (the caller releases it after close).
func (s *Sorter) openExtMerge(ids []uint32, mw *obs.Worker, res *mem.Reservation) (*extMerge, error) {
	return s.openExtMergeRange(ids, mw, res, nil, nil)
}

// openExtMergeRange is openExtMerge bounded to the key range [lo, hi) on
// the byte-decisive safe prefix (nil bounds are open): each reader starts
// at its run's first row >= lo and stops before the first >= hi, so the
// partitioned external merge's workers each stream a disjoint slice of the
// output. For range-bounded merges e.total still counts the full runs.
func (s *Sorter) openExtMergeRange(ids []uint32, mw *obs.Worker, res *mem.Reservation, lo, hi []byte) (*extMerge, error) {
	anyTie := false
	for _, id := range ids {
		anyTie = anyTie || s.runs[id].tieBreak
	}
	// Byte order is only decisive up to the first tied varchar segment; the
	// codes must cover exactly that prefix so byte-equal rows fall to the
	// segment-wise comparator.
	ovcWidth := s.ovcSafeWidth(anyTie)

	e := &extMerge{s: s, mw: mw, res: res, anyTie: anyTie,
		active:  append([]uint32(nil), ids...),
		readers: make([]*runReader, len(s.runs)),
	}
	for _, id := range ids {
		rd, err := s.openRunReaderRange(s.runs[id], mw, res, lo, hi, ovcWidth)
		if err != nil {
			e.close(false)
			return nil, err
		}
		e.readers[id] = rd
		e.total += rd.numRows
	}

	// Prime every run's first block.
	mruns := make([]mergepath.Run, len(ids))
	for i, id := range ids {
		rd := e.readers[id]
		if rd.next() {
			mruns[i] = mergepath.Run{Data: rd.keys, Width: s.rowWidth}
		} else if rd.err != nil {
			err := rd.err
			e.close(false)
			return nil, err
		} else {
			mruns[i] = mergepath.Run{Width: s.rowWidth}
		}
	}

	// Tie-break lookups resolve against the resident block: references
	// store absolute run indexes, the reader knows its block's offset.
	tie, cmp := s.mergeOrder(anyTie, func(runID, idx uint32) (*row.RowSet, int) {
		rd := e.readers[runID]
		return rd.payload, int(idx) - rd.blockStart
	})
	e.m = s.newMerger(mruns, anyTie, tie, cmp)

	e.batch = s.opt.spillBlockRows()
	e.pendWhich = make([]uint32, 0, e.batch)
	e.pendIdxs = make([]uint32, 0, e.batch)
	e.srcs = make([]*row.RowSet, len(ids))
	e.m.SetRefill(func(r int) (mergepath.Run, bool) {
		// Pending gathers may reference the exhausted block; materialize
		// them before the reader overwrites it. (Only rows already output
		// can be pending, so everything they reference is still resident.)
		e.flushPend()
		rd := e.readers[e.active[r]]
		if !rd.next() {
			return mergepath.Run{}, false
		}
		return mergepath.Run{Data: rd.keys, Width: s.rowWidth}, true
	})
	return e, nil
}

// next emits the next merged key row (valid until the following next call)
// and queues its payload reference for the next flushPend. ok is false at
// end of input; check readerErr then. The winner's position is within its
// served keys, which on a range-bounded partition-edge block sit padOff
// rows into the block's payload.
func (e *extMerge) next() (keyRow []byte, ok bool) {
	run, pos, keyRow, ok := e.m.Next()
	if !ok {
		return nil, false
	}
	e.pendWhich = append(e.pendWhich, uint32(run))
	e.pendIdxs = append(e.pendIdxs, uint32(pos)+e.readers[e.active[run]].padOff)
	return keyRow, true
}

// flushPend gathers the queued payload references into dst with the typed
// batch kernels and clears the queue.
func (e *extMerge) flushPend() {
	if len(e.pendIdxs) == 0 {
		return
	}
	for i, id := range e.active {
		e.srcs[i] = e.readers[id].payload
	}
	e.dst.AppendRowsGather(e.srcs, e.pendWhich, e.pendIdxs)
	// Every merged row drains through here exactly once (eager final merge,
	// intermediate passes, partitioned workers, and the streamed result),
	// making it the single live merge-progress publication point.
	e.s.prog.RowsMerged.Add(int64(len(e.pendIdxs)))
	e.pendWhich = e.pendWhich[:0]
	e.pendIdxs = e.pendIdxs[:0]
}

// readerErr returns the first reader error, if any.
func (e *extMerge) readerErr() error {
	for _, id := range e.active {
		if rd := e.readers[id]; rd != nil && rd.err != nil {
			return rd.err
		}
	}
	return nil
}

// close releases every reader (and its charged block bytes); with remove
// set the fully consumed spill files are deleted. Without remove the files
// stay tracked, so an abandoned merge leaks nothing — Sorter.Close sweeps
// them.
func (e *extMerge) close(remove bool) {
	for _, rd := range e.readers {
		if rd != nil {
			rd.close(remove)
		}
	}
}

// externalFinalize merges all spilled runs in a single streaming pass: each
// run is read through a fixed-size block reader (resident memory = k runs ×
// (1 + ReadAhead) × SpillBlockRows), the offset-value-coded loser tree
// interleaves the key rows, and payload rows are gathered into the final
// run in block-sized batches with the typed AppendRowsGather kernels. When
// the sort is big enough and ExtMergeThreads allows, the merge itself is
// partitioned across workers over disjoint key ranges (see extparallel.go);
// otherwise it runs sequentially, reading every spilled byte exactly once,
// versus O(n log k) for the cascaded pairwise merge.
func (s *Sorter) externalFinalize() error {
	if len(s.runs) == 0 {
		return nil
	}
	mw := s.rec.Worker("merge")
	msp := mw.Begin(obs.PhaseMerge)
	defer msp.End()

	ids := make([]uint32, len(s.runs))
	for i := range s.runs {
		ids[i] = uint32(i)
	}
	s.mergeFanIn.Store(int64(len(ids)))
	if done, err := s.externalFinalizeParallel(ids); done || err != nil {
		return err
	}
	res := s.broker.Reserve("merge", 0)
	defer res.Release()
	e, err := s.openExtMerge(ids, mw, res)
	if err != nil {
		return err
	}
	defer e.close(true)

	total := e.total
	finalID := uint32(len(s.runs))
	out := s.getRowSet()
	out.Reserve(total)
	e.dst = out
	finalKeys := make([]byte, total*s.rowWidth)
	outPos := 0
	rw := s.rowWidth
	for {
		keyRow, ok := e.next()
		if !ok {
			break
		}
		dst := finalKeys[outPos*rw : (outPos+1)*rw]
		copy(dst, keyRow)
		s.putRef(dst, finalID, uint32(outPos))
		outPos++
		if len(e.pendIdxs) >= e.batch {
			e.flushPend()
		}
	}
	if err := e.readerErr(); err != nil {
		return err
	}
	if outPos != total {
		return fmt.Errorf("core: external merge produced %d of %d rows", outPos, total)
	}
	e.flushPend()

	st := e.m.Stats()
	st.BytesMoved = uint64(len(finalKeys))
	s.mergeStats.Add(st)

	// Register the final run; all references now point at it, so Rows
	// gathers sequentially.
	final := &sortedRun{id: finalID, keys: finalKeys, payload: out, tieBreak: e.anyTie, rows: total}
	s.runs = append(s.runs, final)
	s.setMergedResult(finalKeys, e.anyTie)
	s.runRes.Grow(runBytes(final))
	// Inputs that were still memory-resident have been fully consumed.
	for _, id := range ids {
		s.releaseRun(s.runs[id])
	}
	return nil
}

// planStreamingMerge is the budgeted external arm of Finalize: an eager
// merge would hold the entire materialized output resident, so instead it
// only reduces the run count to a fan-in the remaining budget can stream
// and defers the final pass to the chunked result iterator (Sorter.Rows).
func (s *Sorter) planStreamingMerge() error {
	mw := s.rec.Worker("merge")
	sp := mw.Begin(obs.PhaseMerge)
	defer sp.End()
	ids := make([]uint32, len(s.runs))
	for i := range s.runs {
		ids[i] = uint32(i)
	}
	ids, err := s.reduceFanIn(ids, mw)
	if err != nil {
		return err
	}
	total := 0
	for _, id := range ids {
		total += s.runs[id].rows
	}
	s.streamMerge = true
	s.streamActive = ids
	s.resultRows = total
	return nil
}

// reduceFanIn sheds resident runs, then merges contiguous batches of runs
// to disk, until the remaining budget can stream the survivors at once
// (mergepath.PlanMerge: the plan prefers cascading extra passes over
// healthy-sized blocks to thrashing tiny ones, and sizes each pass for the
// (1 + ReadAhead) resident blocks per run that read-ahead holds). Batches are contiguous and each merged
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
	s.dropPools()
	for {
		avg := s.approxRowBytes()
		plan := mergepath.PlanMerge(len(ids), s.broker.Remaining(), avg, s.opt.spillBlockRows(), buffers)
		if plan.FanIn >= len(ids) {
			s.mergeFanIn.Store(int64(len(ids)))
			return ids, nil
		}
		// Runs still in memory hold the budget the plan is short of, and
		// how many there are is an accident of sink timing. Shedding one
		// writes it once; a pass reads and rewrites every run in it.
		if r := s.largestResident(); r != nil {
			s.pressureSpills.Add(1)
			s.prog.PressureSpills.Add(1)
			if err := r.spillTo(s, mw); err != nil {
				return nil, err
			}
			s.dropPools()
			continue
		}
		var role func(i int) int
		if s.opt.Adaptive {
			role = func(i int) int { return int(s.runs[ids[i]].role) }
		}
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
// and releases the consumed inputs. Resident memory is the readers' blocks
// plus one output block. blockRows sizes the output blocks; 0 plans them
// from the remaining budget. Each pass is one PhaseMergePass span and is
// counted in SortStats (passes, input runs, bytes rewritten).
func (s *Sorter) mergeRunsToSpill(ids []uint32, blockRows int, mw *obs.Worker) (uint32, error) {
	psp := mw.Begin(obs.PhaseMergePass)
	defer psp.End()
	res := s.broker.Reserve("fan-in-merge", 0)
	defer res.Release()
	e, err := s.openExtMerge(ids, mw, res)
	if err != nil {
		return 0, err
	}
	// An intermediate pass moves every input row again; grow the plan so
	// the progress fraction accounts for the extra work instead of jumping
	// past 100%.
	s.prog.MergeRowsPlanned.Add(int64(e.total))
	consumed := false
	defer func() { e.close(consumed) }()

	// A merged run inherits its inputs' common merge role (mixed batches
	// demote to normal) and, under Adaptive, keeps attempting front-coded
	// spill blocks: writeKeySection re-samples every block of every
	// generation, so the decision tracks what this merge actually produced
	// rather than what the original runs looked like.
	fc := s.opt.Adaptive
	role := s.runs[ids[0]].role
	for _, id := range ids[1:] {
		if s.runs[id].role != role {
			role = strategy.RoleNormal
			break
		}
	}
	merged := &sortedRun{id: uint32(len(s.runs)), tieBreak: e.anyTie, rows: e.total,
		role: role, frontCode: fc}
	s.runs = append(s.runs, merged)

	path, err := s.spillPath(merged.id)
	if err != nil {
		return 0, err
	}
	f, err := os.Create(path)
	if err != nil {
		return 0, fmt.Errorf("core: creating spill file: %w", err)
	}
	s.trackSpill(path)
	fail := func(err error) (uint32, error) {
		f.Close()
		if rerr := s.removeSpillFile(path); rerr != nil {
			err = errors.Join(err, rerr)
		}
		return 0, err
	}

	rw := s.rowWidth
	if blockRows <= 0 {
		blockRows = s.spillBlockRowsFor(merged)
	}
	bw := bufio.NewWriter(f)
	cw := &countingWriter{w: bw}
	magic := uint32(spillMagic)
	if fc {
		magic = spillMagicFC
	}
	var hdr [spillHeaderLen]byte
	binary.LittleEndian.PutUint32(hdr[0:], magic)
	binary.LittleEndian.PutUint32(hdr[4:], uint32(blockRows))
	binary.LittleEndian.PutUint64(hdr[8:], uint64(e.total))
	if _, err := cw.Write(hdr[:]); err != nil {
		return fail(err)
	}

	sf := &spillFile{path: path, blockRows: blockRows}
	staging := s.getRowSet()
	defer s.putRowSet(staging)
	e.dst = staging
	keyBlock := make([]byte, 0, blockRows*rw)
	var fcScratch []byte
	outPos := 0
	writeBlock := func() error {
		if len(keyBlock) == 0 {
			return nil
		}
		sf.offs = append(sf.offs, cw.n)
		sf.fences = append(sf.fences, keyBlock[:rw]...)
		if err := s.writeKeySection(cw, &fcScratch, keyBlock, len(keyBlock)/rw, fc); err != nil {
			return err
		}
		e.flushPend()
		if _, err := staging.WriteTo(cw); err != nil {
			return err
		}
		staging.Reset()
		keyBlock = keyBlock[:0]
		return nil
	}
	for {
		keyRow, ok := e.next()
		if !ok {
			break
		}
		keyBlock = append(keyBlock, keyRow...)
		s.putRef(keyBlock[len(keyBlock)-rw:], merged.id, uint32(outPos))
		outPos++
		if len(keyBlock) >= blockRows*rw {
			if err := writeBlock(); err != nil {
				return fail(err)
			}
		}
	}
	if err := e.readerErr(); err != nil {
		return fail(err)
	}
	if outPos != e.total {
		return fail(fmt.Errorf("core: fan-in merge produced %d of %d rows", outPos, e.total))
	}
	if err := writeBlock(); err != nil {
		return fail(err)
	}
	if err := bw.Flush(); err != nil {
		return fail(err)
	}
	if err := f.Close(); err != nil {
		if rerr := s.removeSpillFile(path); rerr != nil {
			err = errors.Join(err, rerr)
		}
		return 0, err
	}

	s.spillWritten.Add(cw.n)
	s.prog.SpillBytesWritten.Add(cw.n)
	merged.spill = sf
	consumed = true
	for _, id := range ids {
		s.releaseRun(s.runs[id])
	}
	st := e.m.Stats()
	st.BytesMoved = uint64(outPos * rw)
	s.mergeStats.Add(st)
	s.mergePasses.Add(1)
	s.prog.MergePasses.Add(1)
	s.mergePassRuns.Add(int64(len(ids)))
	s.mergePassBytes.Add(cw.n)
	return merged.id, nil
}

// unspill reads the run back into memory (used by the cascaded ablation
// path) and removes its file. ow is the calling worker's trace lane.
func (r *sortedRun) unspill(s *Sorter, ow *obs.Worker) error {
	if r.spill == nil {
		return nil
	}
	rd, err := s.openRunReader(r, ow, nil)
	if err != nil {
		return err
	}
	keys := make([]byte, 0, rd.numRows*s.rowWidth)
	payload := s.getRowSet()
	payload.Reserve(rd.numRows)
	var idxs []uint32
	for rd.next() {
		keys = append(keys, rd.keys...)
		n := rd.payload.Len()
		if cap(idxs) < n {
			idxs = make([]uint32, n)
		}
		idxs = idxs[:n]
		for i := range idxs {
			idxs[i] = uint32(i)
		}
		payload.AppendRowsFrom(rd.payload, idxs)
	}
	if rd.err != nil {
		rd.close(false)
		s.putRowSet(payload)
		return rd.err
	}
	rd.close(true)
	r.keys = keys
	r.payload = payload
	s.runRes.Grow(runBytes(r))
	return nil
}

// externalFinalizeCascade is the ablation baseline (the previous design):
// spilled runs merged pairwise with full unspill/re-spill of intermediates,
// so each row's spill I/O is multiplied by the cascade depth. Kept for the
// -exp merge ablation and as a reference implementation.
func (s *Sorter) externalFinalizeCascade() error {
	queue := make([]uint32, len(s.runs))
	for i := range s.runs {
		queue[i] = uint32(i)
	}
	if len(queue) == 0 {
		return nil
	}
	mw := s.rec.Worker("merge")
	msp := mw.Begin(obs.PhaseMerge)
	defer msp.End()
	for len(queue) > 1 {
		a, b := s.runs[queue[0]], s.runs[queue[1]]
		queue = queue[2:]
		merged, err := s.mergeRunPair(a, b, mw)
		if err != nil {
			return err
		}
		queue = append(queue, merged.id)
		if len(queue) > 1 {
			// More merging ahead: push the result out of memory again.
			if err := merged.spillTo(s, mw); err != nil {
				return err
			}
		}
	}
	final := s.runs[queue[0]]
	if final.spill != nil {
		if err := final.unspill(s, mw); err != nil {
			return err
		}
	}
	s.setMergedResult(final.keys, final.tieBreak)
	s.mergeStats.BytesMoved = uint64(len(final.keys))
	return nil
}

// mergeRunPair loads two runs, merges their keys and payloads into a new
// run (payload physically reordered, refs rewritten), registers it, and
// releases the inputs. ow is the calling worker's trace lane.
func (s *Sorter) mergeRunPair(a, b *sortedRun, ow *obs.Worker) (*sortedRun, error) {
	for _, r := range []*sortedRun{a, b} {
		if err := r.unspill(s, ow); err != nil {
			return nil, err
		}
	}

	_, cmp := s.mergeOrder(a.tieBreak || b.tieBreak, s.residentPayload)

	mergedKeys := make([]byte, len(a.keys)+len(b.keys))
	mergepath.ParallelMerge(mergedKeys,
		mergepath.Run{Data: a.keys, Width: s.rowWidth},
		mergepath.Run{Data: b.keys, Width: s.rowWidth},
		cmp, s.opt.threads())

	// Finalize already holds s.mu; run generation is over, so registering
	// the merged run needs no further locking.
	merged := &sortedRun{id: uint32(len(s.runs)), tieBreak: a.tieBreak || b.tieBreak}
	s.runs = append(s.runs, merged)

	// Reorder both payloads into the merged run with the batched permute:
	// decode every reference once, rewrite it to the merged run, then move
	// the rows (and compact the string heaps) with the typed kernels.
	n := len(mergedKeys) / s.rowWidth
	payloads := make([]*row.RowSet, len(s.runs))
	for i, r := range s.runs {
		payloads[i] = r.payload
	}
	which := make([]uint32, n)
	idxs := make([]uint32, n)
	for i := 0; i < n; i++ {
		keyRow := mergedKeys[i*s.rowWidth : (i+1)*s.rowWidth]
		which[i], idxs[i] = s.getRef(keyRow)
		s.putRef(keyRow, merged.id, uint32(i))
	}
	payload := s.getRowSet()
	payload.Reserve(n)
	payload.AppendRowsGather(payloads, which, idxs)
	merged.keys = mergedKeys
	merged.payload = payload
	merged.rows = n
	s.prog.RowsMerged.Add(int64(n))
	s.runRes.Grow(runBytes(merged))

	// Release the inputs into the pools.
	s.releaseRun(a)
	s.releaseRun(b)
	return merged, nil
}
