package core

import (
	"bytes"
	"context"
	"encoding/binary"
	"fmt"
	"io"
	"os"
	"sync"
	"time"

	"rowsort/internal/mem"
	"rowsort/internal/mergepath"
	"rowsort/internal/normkey"
	"rowsort/internal/obs"
	"rowsort/internal/row"
)

// The block stage: run reading as its own pipeline stage (Polyntsov et al.).
// Every merge over spilled runs — the tasks of the result iterator, an
// intermediate fan-in pass — takes its blocks from one stage, which reads
// each block of each run exactly once and decodes it where it landed. The
// spill files' fences say in which order the merge will want the blocks
// before a byte is read (Knuth's forecasting): with read-ahead enabled one
// goroutine decodes in that order, ahead of the claimants — whichever tasks
// they are on — until ReadAhead blocks per run and claimant are decoded and
// not yet asked for; all of it is charged to the broker. A claimant that asks
// for a block the forecast has not reached decodes it itself, at once, and is
// never refused — so neither a skewed run nor a slow stage can make a merge
// wait for anything but the read it needs. A block that straddles a task
// boundary is handed, decoded, to every task whose key range overlaps it, and
// freed by the last.
//
// A read is one positioned read of a block — or, where blocks are small (a
// budget under pressure plans them down to 16 rows), of as many consecutive
// blocks of the run as make stageReadRows rows, so that small blocks cost a
// system call per healthy block's worth, as they did behind a buffered reader.

// stageReadRows is the rows a read gathers blocks up to: the block size
// below which mergepath.PlanMerge, too, stops shrinking blocks, because
// per-block overhead then outweighs what a smaller block saves.
const stageReadRows = 512

// spillBlock is one decoded block of a spilled run.
type spillBlock struct {
	keys    []byte      // the block's key rows
	payload *row.RowSet // its payload rows: row i of the run is row i-start
	start   int         // absolute run index of the block's first row
	bytes   int64       // accounted footprint
}

// blockRef names a block: run is the run's index in the plan's merge order.
type blockRef struct{ run, blk int32 }

// A staged block is pending until somebody decodes it, ready until the last
// task that wants it lets go, and freed from then on.
const (
	blockPending uint8 = iota
	blockDecoding
	blockReady
	blockFreed
)

// stageBlock is one block's place in the stage.
type stageBlock struct {
	blk   *spillBlock
	refs  int32 // tasks that have yet to release it
	state uint8
	asked bool // a claimant has asked for it: hits are counted once
	ahead bool // decoded, or being, and not asked for yet
}

// stageRun is one run's open file and blocks; a resident run has neither.
type stageRun struct {
	run    *sortedRun
	f      *os.File
	blocks []stageBlock
	live   int // blocks not freed yet; the file goes with the last
}

// blockStage serves the blocks of one spillPlan. All fields below mu are
// guarded by it; wake is closed, and replaced, whenever a waiter may have
// something to do.
type blockStage struct {
	s     *Sorter
	plan  *spillPlan
	res   *mem.Reservation
	limit int // rows the forecast may hold decoded and not asked for; 0 without read-ahead

	mu    sync.Mutex
	runs  []stageRun
	next  int // the forecast's position in plan.order
	ahead int // rows decoded, or being, and not asked for
	wake  chan struct{}
	err   error
	wg    sync.WaitGroup
}

// newBlockStage opens the plan's spill files for claimants concurrent
// merges. Per run and claimant the stage holds the block a merge is on and
// ReadAhead blocks (or reads, where those are larger) ahead of it — what
// mergepath.PlanMerge reserves under a budget — and, until their rows are
// gathered, the blocks a chunk's rows came from: about a chunk of rows, the
// slack a staging buffer would be.
func (s *Sorter) newBlockStage(plan *spillPlan, claimants int) (*blockStage, error) {
	st := &blockStage{s: s, plan: plan, runs: make([]stageRun, len(plan.ids))}
	for i, id := range plan.ids {
		sr := &st.runs[i]
		sr.run = s.runs[id]
		sf := sr.run.spill
		if sf == nil {
			continue
		}
		if err := sr.open(s); err != nil {
			st.closeFiles(false)
			return nil, err
		}
		sr.live = sf.numBlocks()
		sr.blocks = make([]stageBlock, sr.live)
		for b := range sr.blocks {
			sr.blocks[b].refs = plan.refs[i][b]
		}
		st.limit += claimants * s.opt.readAhead() * max(sf.blockRows, stageReadRows)
	}
	st.res = s.broker.Reserve("merge", 0)
	return st, nil
}

// open opens the run's spill file and checks its header against the block
// index kept in memory.
func (sr *stageRun) open(s *Sorter) error {
	sf := sr.run.spill
	f, err := os.Open(sf.path)
	if err != nil {
		return fmt.Errorf("core: opening spill file: %w", err)
	}
	var hdr [spillHeaderLen]byte
	n, err := f.ReadAt(hdr[:], 0)
	s.ctr.Add(obs.SpillBytesRead, int64(n))
	if err != nil {
		f.Close()
		return fmt.Errorf("core: reading spill header of %s: %w", sf.path, err)
	}
	if binary.LittleEndian.Uint32(hdr[0:]) != spillMagic {
		f.Close()
		return fmt.Errorf("core: bad spill magic in %s", sf.path)
	}
	if rows, total := binary.LittleEndian.Uint32(hdr[4:]), binary.LittleEndian.Uint64(hdr[8:]); int(rows) != sf.blockRows || total != uint64(sr.run.rows) {
		f.Close()
		return fmt.Errorf("core: spill header of %s says %d rows in blocks of %d, the run has %d in blocks of %d",
			sf.path, total, rows, sr.run.rows, sf.blockRows)
	}
	sr.f = f
	return nil
}

// blockRows returns the rows of the run's block b.
func (sr *stageRun) blockRows(b int) int {
	return min(sr.run.spill.blockRows, sr.run.rows-b*sr.run.spill.blockRows)
}

// start launches the forecast goroutine, if read-ahead is on. It is joined by
// close and, should the stage's owner drop it, by Sorter.Close.
//
//rowsort:pipeline
func (st *blockStage) start(ctx context.Context) {
	if st.limit == 0 {
		return
	}
	st.wg.Add(1)
	st.s.drainWG.Add(1)
	go func() {
		defer st.s.drainWG.Done()
		defer st.wg.Done()
		st.s.rec.Do("prefetch", func() { st.forecast(ctx) })
	}()
}

// forecast decodes ahead of the claimants until ctx is done or a read fails.
func (st *blockStage) forecast(ctx context.Context) {
	ow := st.s.rec.Worker("prefetch")
	for {
		st.mu.Lock()
		for st.next < len(st.plan.order) && st.block(st.plan.order[st.next]).state != blockPending {
			st.next++
		}
		if st.err != nil || st.next == len(st.plan.order) || st.ahead >= st.limit {
			// Nothing to do until a block is asked for, or ever.
			wait := st.waitLocked()
			st.mu.Unlock()
			select {
			case <-wait:
				continue
			case <-ctx.Done():
				return
			}
		}
		ref := st.plan.order[st.next]
		n := st.claimLocked(ref, 0)
		st.mu.Unlock()
		if st.read(ref, n, ow, obs.PhasePrefetch) != nil {
			return
		}
	}
}

// claimLocked marks block ref for decoding by the caller, and with it the
// undecoded blocks that follow it in its run, up to stageReadRows rows in all:
// one read's worth. Every block of it past the first asked is decoded ahead of
// being asked for. It returns how many blocks.
func (st *blockStage) claimLocked(ref blockRef, asked int) (n int) {
	sr := &st.runs[ref.run]
	for b, rows := int(ref.blk), 0; b < len(sr.blocks) && sr.blocks[b].state == blockPending; b++ {
		if rows += sr.blockRows(b); n > 0 && rows > stageReadRows {
			break
		}
		sr.blocks[b].state = blockDecoding
		if n >= asked {
			sr.blocks[b].ahead = true
			st.ahead += sr.blockRows(b)
		}
		n++
	}
	return n
}

func (st *blockStage) block(ref blockRef) *stageBlock { return &st.runs[ref.run].blocks[ref.blk] }

// waitLocked returns the channel the next change of state closes.
func (st *blockStage) waitLocked() <-chan struct{} {
	if st.wake == nil {
		st.wake = make(chan struct{})
	}
	return st.wake
}

func (st *blockStage) wakeLocked() {
	if st.wake != nil {
		close(st.wake)
		st.wake = nil
	}
}

// notAheadLocked ends block b of sr's time as read ahead, if it is: somebody
// has asked for it, or its read failed. The forecast is woken when that
// leaves it room again.
func (st *blockStage) notAheadLocked(sr *stageRun, b int) {
	if sb := &sr.blocks[b]; sb.ahead {
		sb.ahead = false
		was := st.ahead
		if st.ahead -= sr.blockRows(b); was >= st.limit && st.ahead < st.limit {
			st.wakeLocked()
		}
	}
}

// read decodes the n blocks from ref on that its caller claimed, and
// publishes them, charged to the broker — or the stage's first error, which
// it returns.
func (st *blockStage) read(ref blockRef, n int, ow *obs.Worker, phase obs.Phase) error {
	blks, err := st.decode(ref, n, ow, phase)
	sr := &st.runs[ref.run]
	st.mu.Lock()
	defer st.mu.Unlock()
	for i := 0; i < n; i++ {
		b := int(ref.blk) + i
		if sb := &sr.blocks[b]; err != nil {
			sb.state = blockPending
			st.notAheadLocked(sr, b)
		} else {
			sb.blk, sb.state = blks[i], blockReady
			st.res.Grow(blks[i].bytes)
		}
	}
	if err != nil && st.err == nil {
		st.err = err
	}
	if err == nil && st.limit > 0 {
		st.s.ctr.Add(obs.PrefetchedBlocks, int64(n))
	}
	st.wakeLocked()
	return err
}

// acquire returns a block of the caller's task, decoded: at once when it was
// read ahead (a read-ahead hit), else after reading it on the spot, or
// waiting for whoever is. ow is the caller's trace lane. The block stays
// valid until the caller releases it.
func (st *blockStage) acquire(ctx context.Context, ref blockRef, ow *obs.Worker) (*spillBlock, error) {
	if ctx.Err() != nil {
		return nil, errSorterClosed
	}
	sr := &st.runs[ref.run]
	sb := &sr.blocks[ref.blk]
	st.mu.Lock()
	first := !sb.asked
	sb.asked = true
	st.notAheadLocked(sr, int(ref.blk))
	if sb.state == blockReady {
		if first && st.limit > 0 {
			st.s.ctr.Add(obs.PrefetchHits, 1)
		}
		blk := sb.blk
		st.mu.Unlock()
		return blk, nil
	}
	t0 := time.Now()
	for sb.state != blockReady {
		if err := st.err; err != nil {
			st.mu.Unlock()
			return nil, err
		}
		switch sb.state {
		case blockPending:
			n := st.claimLocked(ref, 1)
			st.mu.Unlock()
			_ = st.read(ref, n, ow, obs.PhaseSpillRead) // a failure is st.err by now
			st.mu.Lock()
			continue
		case blockFreed:
			panic("core: a task asked for a spill block after the last task due it let go")
		}
		wait := st.waitLocked()
		st.mu.Unlock()
		select {
		case <-wait:
		case <-ctx.Done():
			return nil, errSorterClosed
		}
		st.mu.Lock()
	}
	blk := sb.blk
	st.mu.Unlock()
	if st.limit > 0 {
		st.s.ctr.Add(obs.MergeStall, int64(time.Since(t0)))
	}
	return blk, nil
}

// release ends one task's use of a block. The last release frees the block;
// the last block freed takes its run's file with it. A failed removal leaves
// the file tracked: Sorter.Close tries again and reports it.
func (st *blockStage) release(ref blockRef) {
	sr := &st.runs[ref.run]
	sb := &sr.blocks[ref.blk]
	var f *os.File
	st.mu.Lock()
	if sb.refs--; sb.refs == 0 {
		st.res.Shrink(sb.blk.bytes)
		sb.blk, sb.state = nil, blockFreed
		if sr.live--; sr.live == 0 {
			f, sr.f = sr.f, nil
		}
	}
	st.mu.Unlock()
	if f != nil {
		f.Close()
		st.s.removeSpillFile(sr.run.spill.path)
	}
}

// close ends the stage once its claimants have stopped and its context is
// done: the forecast goroutine is joined, every block still held goes back
// to the budget and the files are closed — and, when the merge consumed
// them (remove), deleted; otherwise they stay tracked for Sorter.Close.
func (st *blockStage) close(remove bool) {
	st.wg.Wait()
	st.res.Release()
	for i := range st.runs {
		st.runs[i].blocks = nil
	}
	st.closeFiles(remove)
}

func (st *blockStage) closeFiles(remove bool) {
	for i := range st.runs {
		if sr := &st.runs[i]; sr.f != nil {
			sr.f.Close()
			sr.f = nil
			if remove {
				st.s.removeSpillFile(sr.run.spill.path)
			}
		}
	}
}

// decode reads the n blocks from ref on with one positioned read and decodes
// them in place: key rows and payloads alias the read buffer (which lives
// until the last of them is freed; each is accounted its share). A key
// section opens with its tag byte — raw rows (0) or a length-prefixed
// front-coded section (1), which decodes into a buffer of its own. Whatever
// does not add up to exactly the blocks the index promised is an error.
func (st *blockStage) decode(ref blockRef, n int, ow *obs.Worker, phase obs.Phase) ([]*spillBlock, error) {
	sp := ow.Begin(phase)
	defer sp.End()
	s, sr := st.s, &st.runs[ref.run]
	sf := sr.run.spill
	first, rw := int(ref.blk), s.rowWidth
	raw := make([]byte, sf.blockEnd(first+n-1)-sf.offs[first])
	got, err := sr.f.ReadAt(raw, sf.offs[first])
	s.ctr.Add(obs.SpillBytesRead, int64(got))
	if got < len(raw) {
		if err == io.EOF {
			err = io.ErrUnexpectedEOF
		}
		return nil, fmt.Errorf("core: reading block %d of %s: %w", first, sf.path, err)
	}
	blks := make([]*spillBlock, n)
	for i := range blks {
		b := first + i
		from, to := sf.offs[b]-sf.offs[first], sf.blockEnd(b)-sf.offs[first]
		rest := raw[from:to:to]
		rows := sr.blockRows(b)
		blk := &spillBlock{start: b * sf.blockRows, bytes: int64(len(rest))}
		if len(rest) == 0 {
			return nil, fmt.Errorf("core: block %d of %s has no key-section tag", b, sf.path)
		}
		tag, rest := rest[0], rest[1:]
		switch tag {
		case 0:
			if len(rest) < rows*rw {
				return nil, fmt.Errorf("core: block %d of %s is shorter than its %d key rows", b, sf.path, rows)
			}
			blk.keys, rest = rest[:rows*rw:rows*rw], rest[rows*rw:]
		case 1:
			if len(rest) < 4 {
				return nil, fmt.Errorf("core: block %d of %s has no front-coded length", b, sf.path)
			}
			encLen := int(binary.LittleEndian.Uint32(rest))
			if rest = rest[4:]; encLen <= 0 || encLen > len(rest) {
				return nil, fmt.Errorf("core: block %d of %s: front-coded key section of %d bytes for %d rows", b, sf.path, encLen, rows)
			}
			blk.keys = make([]byte, rows*rw)
			blk.bytes += int64(len(blk.keys))
			if err := normkey.DecodeFrontCoded(blk.keys, rest[:encLen], rw, s.keyWidth, rows); err != nil {
				return nil, fmt.Errorf("core: decoding keys of block %d of %s: %w", b, sf.path, err)
			}
			rest = rest[encLen:]
		default:
			return nil, fmt.Errorf("core: block %d of %s: unknown key-section tag %d", b, sf.path, tag)
		}
		if blk.payload, err = row.ViewRowSet(rest, s.layout); err != nil {
			return nil, fmt.Errorf("core: payload of block %d of %s: %w", b, sf.path, err)
		}
		if blk.payload.Len() != rows {
			return nil, fmt.Errorf("core: block %d of %s holds %d payload rows for %d key rows", b, sf.path, blk.payload.Len(), rows)
		}
		blks[i] = blk
	}
	return blks, nil
}

// compareSafe compares two key rows on the byte-decisive safe prefix —
// the only region where plain byte order is guaranteed to agree with the
// sort's total order (see Sorter.ovcSafeWidth).
//
//rowsort:hotpath
//rowsort:pure
func compareSafe(a, b []byte, safeWidth int) int {
	return bytes.Compare(a[:safeWidth], b[:safeWidth])
}

// safeLowerBound returns the first index in r whose row's safe prefix is
// not below key's. Rows tying on the safe prefix stay together on one side
// of every bound, which is what keeps range partitioning consistent with
// the tie-broken total order.
//
//rowsort:hotpath
func safeLowerBound(r mergepath.Run, key []byte, safeWidth int) int {
	lo, hi := 0, r.Len()
	for lo < hi {
		m := int(uint(lo+hi) >> 1)
		if compareSafe(r.Row(m), key, safeWidth) < 0 {
			lo = m + 1
		} else {
			hi = m
		}
	}
	return lo
}
