package spill

import (
	"context"
	"fmt"
	"runtime/debug"
	"sync"
	"time"

	"rowsort/internal/mem"
	"rowsort/internal/obs"
	"rowsort/internal/row"
)

// The block stage: run reading as its own pipeline stage (Polyntsov et al.).
// Every merge over spilled runs — the tasks of a result iterator, an
// intermediate fan-in pass — takes its blocks from one stage, which reads
// each block of each run exactly once, into a read buffer of the stage's own,
// and decodes it there. The files' fences say in which order the merge will
// want the blocks before a byte is read (Knuth's forecasting): with
// read-ahead enabled one goroutine decodes in that order, ahead of the
// claimants — whichever tasks they are on — until ReadAhead blocks per run
// and claimant are decoded and not yet asked for, and while the stage holds
// fewer than the 1 + ReadAhead blocks per run and claimant a budget plans a
// merge at (blocks a merge has run past but not let go count too); all of it
// is charged to the broker. A claimant that asks for a block the forecast has not reached
// decodes it itself, at once, and is never refused — so neither a skewed run
// nor a slow stage can make a merge wait for anything but the read it needs.
// A block that straddles a task boundary is handed, decoded, to every task
// whose key range overlaps it, and freed by the last. A read is one
// positioned read of one block.
//
// Every read buffer is as large as the largest block of the stage's files,
// so any buffer holds any block: the last release of a block returns its
// buffer to the stage's pool, and a read takes one from there, allocating only
// when more blocks are live at once than ever before in the stage. A live
// block is charged at its buffer's capacity — the block size the sorter's
// fan-in plan counts — and an idle buffer stays charged while the pool keeps
// it; one that would land the broker over budget is dropped instead.

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
	blk   *Block
	refs  int32 // tasks that have yet to release it
	state uint8
	asked bool // a claimant has asked for it: hits are counted once
	ahead bool // decoded, or being, and not asked for yet
}

// stageRun is one run's open file and blocks; a run in memory has neither.
type stageRun struct {
	file   *File
	r      ReadAtCloser
	blocks []stageBlock
	live   int // blocks not freed yet; the file goes with the last
}

// Stage serves the blocks of one Plan. All fields below mu are guarded by it;
// wake is closed, and replaced, whenever a waiter may have something to do.
type Stage struct {
	d      *Dir
	plan   *Plan
	res    *mem.Reservation
	limit  int          // rows the forecast may hold decoded and not asked for; 0 without read-ahead
	most   int          // blocks held at which the forecast waits: (1 + readAhead) a run and claimant
	bufs   *row.BufPool // idle read buffers, charged to res
	bufLen int          // every read buffer's length: the largest block of plan's files

	mu    sync.Mutex
	runs  []stageRun
	next  int // the forecast's position in plan.forecast
	ahead int // rows decoded, or being, and not asked for
	held  int // blocks decoded, or being, and not freed
	wake  chan struct{}
	err   error
	wg    sync.WaitGroup
}

// NewStage opens the plan's files for claimants concurrent merges. Per run
// and claimant the stage holds the block a merge is on and readAhead blocks
// ahead of it — what the sorter's fan-in plan reserves under a budget — and,
// until their rows are gathered, the blocks a chunk's rows came from, which
// the forecast waits on rather than read past the plan: only a claimant's
// own read can, by a block or so. Decoded blocks and idle
// read buffers are charged to res, which is the stage's from here on: Close
// releases it, as does a NewStage that fails.
func (d *Dir) NewStage(plan *Plan, res *mem.Reservation, readAhead, claimants int) (*Stage, error) {
	st := &Stage{d: d, plan: plan, res: res, bufs: row.NewBufPool(res), runs: make([]stageRun, len(plan.files))}
	for i, f := range plan.files {
		if f == nil {
			continue
		}
		sr := &st.runs[i]
		sr.file = f
		var err error
		if sr.r, err = f.open(d); err != nil {
			st.Close(false)
			return nil, err
		}
		sr.live = f.NumBlocks()
		sr.blocks = make([]stageBlock, sr.live)
		for b := range sr.blocks {
			sr.blocks[b].refs = plan.refs[i][b]
		}
		st.limit += claimants * readAhead * f.blockRows
		st.most += claimants * (1 + readAhead)
		st.bufLen = max(st.bufLen, int(f.MaxBlockBytes()))
	}
	return st, nil
}

// Start launches the forecast goroutine, if read-ahead is on. It stops when
// ctx is done and is joined by Close; join, too, counts it, for the owner of
// ctx to wait on should the stage's owner drop it.
func (st *Stage) Start(ctx context.Context, join *sync.WaitGroup) {
	if st.limit == 0 {
		return
	}
	st.wg.Add(1)
	join.Add(1)
	go func() {
		defer join.Done()
		defer st.wg.Done()
		st.d.rec.Do("prefetch", func() { st.forecast(ctx) })
	}()
}

// forecast decodes ahead of the claimants until ctx is done or a read fails.
func (st *Stage) forecast(ctx context.Context) {
	ow := st.d.rec.Worker("prefetch")
	for {
		st.mu.Lock()
		for st.next < len(st.plan.forecast) && st.block(st.plan.forecast[st.next]).state != blockPending {
			st.next++
		}
		if st.err != nil || st.next == len(st.plan.forecast) || st.ahead >= st.limit || st.held >= st.most {
			// Nothing to do until a block is asked for or freed, or ever.
			wait := st.waitLocked()
			st.mu.Unlock()
			select {
			case <-wait:
				continue
			case <-ctx.Done():
				return
			}
		}
		ref := st.plan.forecast[st.next]
		sb := st.block(ref)
		sb.state, sb.ahead = blockDecoding, true
		st.ahead += st.runs[ref.Run].file.blockLen(int(ref.Blk))
		st.held++
		st.mu.Unlock()
		if st.read(ref, ow, obs.PhasePrefetch) != nil {
			return
		}
	}
}

func (st *Stage) block(ref BlockRef) *stageBlock { return &st.runs[ref.Run].blocks[ref.Blk] }

// waitLocked returns the channel the next change of state closes.
func (st *Stage) waitLocked() <-chan struct{} {
	if st.wake == nil {
		st.wake = make(chan struct{})
	}
	return st.wake
}

func (st *Stage) wakeLocked() {
	if st.wake != nil {
		close(st.wake)
		st.wake = nil
	}
}

// notAheadLocked ends block b of sr's time as read ahead, if it is: somebody
// has asked for it, or its read failed. The forecast is woken when that
// leaves it room again.
func (st *Stage) notAheadLocked(sr *stageRun, b int) {
	if sb := &sr.blocks[b]; sb.ahead {
		sb.ahead = false
		was := st.ahead
		if st.ahead -= sr.file.blockLen(b); was >= st.limit && st.ahead < st.limit {
			st.wakeLocked()
		}
	}
}

// read decodes block ref, which its caller marked decoding, into a pooled read
// buffer and publishes it, charged to the broker — or the stage's first error,
// which it returns. A panic under the read — the filesystem's, a decoder's —
// fails the stage like a read error does, whoever reads: the claimants get it
// from Acquire.
func (st *Stage) read(ref BlockRef, ow *obs.Worker, phase obs.Phase) error {
	sp := ow.Begin(phase)
	sr := &st.runs[ref.Run]
	buf := st.bufs.Get()
	if buf == nil {
		buf = make([]byte, st.bufLen)
	}
	blk, err := func() (blk *Block, err error) {
		defer func() {
			if r := recover(); r != nil {
				err = fmt.Errorf("spill: reading block %d of %s panicked: %v\n%s", ref.Blk, sr.file.name, r, debug.Stack())
			}
		}()
		return sr.file.read(sr.r, int(ref.Blk), buf, st.d.ctr)
	}()
	sp.End()
	if err != nil {
		st.bufs.Put(buf)
	}
	st.mu.Lock()
	defer st.mu.Unlock()
	if sb := &sr.blocks[ref.Blk]; err != nil {
		sb.state = blockPending
		st.held--
		st.notAheadLocked(sr, int(ref.Blk))
		if st.err == nil {
			st.err = err
		}
	} else {
		sb.blk, sb.state = blk, blockReady
		st.res.Grow(int64(cap(blk.buf)))
		if st.limit > 0 {
			st.d.ctr.Add(obs.PrefetchedBlocks, 1)
		}
	}
	st.wakeLocked()
	return err
}

// Acquire returns a block of the caller's task, decoded: at once when it was
// read ahead (a read-ahead hit), else after reading it on the spot, or
// waiting for whoever is. ow is the caller's trace lane. The block stays
// valid until the caller releases it. Once ctx is done Acquire fails with its
// error.
func (st *Stage) Acquire(ctx context.Context, ref BlockRef, ow *obs.Worker) (*Block, error) {
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	sr := &st.runs[ref.Run]
	sb := &sr.blocks[ref.Blk]
	st.mu.Lock()
	first := !sb.asked
	sb.asked = true
	st.notAheadLocked(sr, int(ref.Blk))
	if sb.state == blockReady {
		if first && st.limit > 0 {
			st.d.ctr.Add(obs.PrefetchHits, 1)
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
			sb.state = blockDecoding
			st.held++
			st.mu.Unlock()
			_ = st.read(ref, ow, obs.PhaseSpillRead) // a failure is st.err by now
			st.mu.Lock()
			continue
		case blockFreed:
			panic("spill: a task asked for a block after the last task due it let go")
		}
		wait := st.waitLocked()
		st.mu.Unlock()
		select {
		case <-wait:
		case <-ctx.Done():
			return nil, ctx.Err()
		}
		st.mu.Lock()
	}
	blk := sb.blk
	st.mu.Unlock()
	if st.limit > 0 {
		st.d.ctr.Add(obs.MergeStall, int64(time.Since(t0)))
	}
	return blk, nil
}

// Release ends one task's use of a block. The last release frees the block,
// whose read buffer goes back to the pool; the last block freed takes its
// run's file with it. A failed removal leaves the file tracked: Dir.Close
// tries again and reports it.
func (st *Stage) Release(ref BlockRef) {
	sr := &st.runs[ref.Run]
	sb := &sr.blocks[ref.Blk]
	var buf []byte
	var r ReadAtCloser
	st.mu.Lock()
	if sb.refs--; sb.refs == 0 {
		buf = sb.blk.buf
		st.res.Shrink(int64(cap(buf)))
		sb.blk, sb.state = nil, blockFreed
		if sr.live--; sr.live == 0 {
			r, sr.r = sr.r, nil
		}
		if st.held--; st.held == st.most-1 {
			st.wakeLocked()
		}
	}
	st.mu.Unlock()
	if buf != nil {
		st.bufs.Put(buf)
	}
	if r != nil {
		r.Close()
		_ = st.d.remove(sr.file.name) // counted, and Dir.Close's to report
	}
}

// Close ends the stage once its claimants have stopped and the context it was
// started under is done: the forecast goroutine is joined, every block still
// held and every idle buffer goes back to the budget and the files are closed
// — and, when the merge consumed them (remove), deleted; otherwise they stay
// tracked for Dir.Close.
func (st *Stage) Close(remove bool) {
	st.wg.Wait()
	st.bufs.Drop()
	st.res.Release()
	for i := range st.runs {
		sr := &st.runs[i]
		sr.blocks = nil
		if sr.r != nil {
			sr.r.Close()
			sr.r = nil
			if remove {
				_ = st.d.remove(sr.file.name) // as in Release
			}
		}
	}
}
