package core

import (
	"context"
	"errors"
	"fmt"
	"runtime"
	"sync"

	"rowsort/internal/mem"
	"rowsort/internal/mergepath"
	"rowsort/internal/obs"
	"rowsort/internal/row"
	"rowsort/internal/vector"
)

// The resident drain's shape, fixed by the null arms in EXPERIMENTS.md ("Rows
// is the merge"). A task is the run of output chunks one worker merges and
// gathers back to back: long enough that its Merge Path split is about 2 % of
// its work, short enough that the next task's first chunk is never far off.
// The window is the tasks that may be claimed and not yet consumed, per
// worker: one being produced, one finished and waiting for the consumer.
const (
	drainTaskChunks      = 32
	drainTaskRows        = drainTaskChunks * vector.DefaultVectorSize
	drainWindowPerThread = 2
)

// errSorterClosed fails a Next whose workers Sorter.Close stopped under it.
var errSorterClosed = errors.New("core: result iterator used after Sorter.Close")

// RowIter streams the sorted result as columnar chunks of up to
// vector.DefaultVectorSize rows; the final merge runs inside it. Over
// resident result runs (in-memory sorts; eagerly merged external ones, whose
// one run needs no merging) Options.Threads workers each merge and gather a
// Merge Path task at a time, ahead of the consumer, delivered strictly in
// order (see rowsDrain). For budgeted external sorts (where Finalize deferred
// the final merge) each Next advances the streaming k-way merge itself, so
// the whole output is never resident at once — the consumer's chunk plus one
// block per run is.
//
// A RowIter is not safe for concurrent use. Iterators over a deferred
// streaming merge are single-use: the merge consumes its spill files as it
// reads them; a resident sort may be iterated any number of times. Close
// releases the iterator's resources and joins its workers; it is required
// when the iterator is abandoned before exhaustion and harmless otherwise.
type RowIter struct {
	s   *Sorter
	gw  *obs.Worker
	err error

	// Resident mode: the lazy merge over the sorter's result runs.
	d *rowsDrain

	// Streaming mode: the final merge of spilled runs.
	em      *extMerge
	res     *mem.Reservation // staging + block bytes for the merge's lifetime
	staging *row.RowSet

	pos      int
	n        int
	started  int64 // sinceEpoch at creation, for the gather stage duration
	finished bool
	closed   bool
}

// Rows returns a chunked iterator over the sorted result; valid after
// Finalize. Result is a thin wrapper that drains it into a table —
// operators that consume the sort incrementally (LIMIT, streaming
// exchange) should use Rows directly and Close early.
func (s *Sorter) Rows() (*RowIter, error) {
	if !s.finalized {
		return nil, fmt.Errorf("core: Rows before Finalize")
	}
	s.prog.AdvanceTo(obs.StageGather)
	it := &RowIter{s: s, gw: s.rec.Worker("gather"), started: s.sinceEpoch(), n: s.resultRows}
	if !s.streamMerge {
		it.d = s.newRowsDrain(it.gw)
		return it, nil
	}

	s.mu.Lock()
	if s.streamUsed {
		s.mu.Unlock()
		return nil, fmt.Errorf("core: streaming result already consumed (a budgeted external merge is single-pass; sort again to iterate again)")
	}
	s.streamUsed = true
	s.mu.Unlock()
	it.res = s.broker.Reserve("stream-merge", 0)
	em, err := s.openExtMerge(s.streamActive, it.gw, it.res)
	if err != nil {
		it.res.Release()
		return nil, err
	}
	it.em = em
	it.staging = s.getRowSet()
	em.dst = it.staging
	return it, nil
}

// Next returns the next chunk of sorted rows, or (nil, nil) when the
// result is exhausted. The returned chunk owns its vectors; it stays valid
// after further Next and Close calls.
func (it *RowIter) Next() (*vector.Chunk, error) {
	if it.err != nil || it.closed {
		return nil, it.err
	}
	if it.pos >= it.n {
		it.stop(true)
		return nil, nil
	}
	if it.em == nil {
		chunk, err := it.d.next()
		if err != nil {
			it.fail(err)
			return nil, it.err
		}
		it.pos += chunk.Len()
		if it.pos >= it.n {
			it.stop(true)
		}
		return chunk, nil
	}

	// Streaming: pull count rows through the loser tree into the staging
	// row set, then gather them out as one columnar chunk.
	count := min(vector.DefaultVectorSize, it.n-it.pos)
	sp := it.gw.Begin(obs.PhaseGather)
	defer sp.End()
	it.staging.Reset()
	got := 0
	for got < count {
		if _, ok := it.em.next(); !ok {
			break
		}
		got++
	}
	if got < count {
		err := it.em.readerErr()
		if err == nil {
			err = fmt.Errorf("core: streaming merge produced %d of %d rows", it.pos+got, it.n)
		}
		it.fail(err)
		return nil, it.err
	}
	it.em.flushPend()
	chunk := &vector.Chunk{Vectors: it.staging.GatherChunk(0, got)}
	it.s.countGathered(got)
	it.pos += got
	if it.pos >= it.n {
		it.stop(true)
	}
	return chunk, nil
}

// stop tears the iterator down, once. drained says the result was consumed to
// the end: a streaming merge then folds its counters into the sorter's stats
// and removes the spill files it read; otherwise they stay tracked for
// Sorter.Close. Either way the resident drain's workers are joined, the
// streaming merge's memory goes back to the budget and the gather stage's
// clock stops.
func (it *RowIter) stop(drained bool) {
	if it.finished {
		return
	}
	it.finished = true
	s := it.s
	if it.d != nil {
		it.d.close()
	}
	if em := it.em; em != nil {
		em.close(drained)
		if drained {
			st := em.m.Stats()
			st.BytesMoved = uint64(it.pos * s.rowWidth)
			s.mu.Lock()
			s.mergeStats.Add(st)
			s.mu.Unlock()
			for _, id := range em.active {
				s.releaseRun(s.runs[id])
			}
		}
		it.res.Release()
		s.putRowSet(it.staging)
		it.staging = nil
	}
	end := s.sinceEpoch()
	s.durGather.Add(end - it.started)
	s.tResultEnd.Store(end + 1)
}

// fail records the error and releases resources without consuming files.
func (it *RowIter) fail(err error) {
	it.err = err
	it.stop(false)
}

// Close releases the iterator. Required when abandoning it before
// exhaustion; a no-op (returning the first error, if any) after full
// drain. Closing does not touch chunks already returned.
func (it *RowIter) Close() error {
	it.closed = true
	it.stop(false)
	return it.err
}

// rowsDrain is the resident half of RowIter: the final merge over the
// sorter's result runs, fused into the gather and run lazily.
//
// The output's ranks are cut into tasks of drainTaskRows rows. Claiming a
// task finds its end boundary with mergepath.KWaySplit, continued from the
// previous task's — each boundary is computed once, by a search over one
// task's rows — and hands the claimant the slice of every run between the
// two. The claimant produces the task a chunk at a time: a loser-tree merge
// of the next 2,048 key rows, whose payload references go straight to the
// cross-run gather kernels; no merged key row is written. One result run
// needs no merging: its references are walked.
//
// With one thread (or one task) the consumer does that itself, inside Next.
// Otherwise Options.Threads workers claim tasks in order and push a task's
// chunks into its slot, a channel with room for all of them, from which Next
// takes them in order. A worker takes a ticket before it claims and the
// consumer returns one per task drained, so at most len(slots) tasks are
// claimed and unconsumed: the chunks in flight are bounded, slot t mod
// len(slots) is free when task t is claimed, and — tasks being claimed lowest
// first — the task the consumer waits for is always held by a worker that
// waits for nothing.
type rowsDrain struct {
	s        *Sorter
	runs     []mergepath.Run // result runs, in merge (tie) order
	payloads []*row.RowSet   // by the run id in a key row's reference
	tie, cmp mergepath.CompareFunc

	mu      sync.Mutex
	claimed int             // tasks claimed so far: the next task's index
	cut     []int           // Merge Path split at the start of task claimed
	stats   mergepath.Stats // merge counters of the tasks worked on

	self *drainTask // the consumer's own claimant state; nil with workers

	slots    []chan *vector.Chunk
	tickets  chan struct{}
	ctx      context.Context // done when the iterator, or the sorter, is closed
	cancel   context.CancelFunc
	wg       sync.WaitGroup
	cur, got int // the consumer's position: task, chunks taken from it
}

// drainTask is one claimant's state: its scratch, and the task it is on.
type drainTask struct {
	ow          *obs.Worker
	sub         []mergepath.Run   // the task's slice of every run
	m           *mergepath.Merger // over sub; nil when there is one result run
	which, idxs []uint32          // one chunk's payload references
	index       int               // task index
	left        int               // rows of the task still to produce
}

// newRowsDrain plans a drain of the result runs and starts its workers, if
// it is to have any. gw is the consumer's trace lane, for when it runs the
// tasks itself.
func (s *Sorter) newRowsDrain(gw *obs.Worker) *rowsDrain {
	d := &rowsDrain{s: s, runs: s.resultRuns, cut: make([]int, len(s.resultRuns)),
		payloads: make([]*row.RowSet, len(s.runs))}
	for i, r := range s.runs {
		d.payloads[i] = r.payload
	}
	d.tie, d.cmp = s.mergeOrder(s.resultTie, s.residentPayload)
	d.ctx, d.cancel = context.WithCancel(s.ctx)
	workers := min(s.opt.threads(), (s.resultRows+drainTaskRows-1)/drainTaskRows)
	if workers <= 1 {
		d.self = d.newTask(gw)
		return d
	}
	d.slots = make([]chan *vector.Chunk, drainWindowPerThread*workers)
	for i := range d.slots {
		d.slots[i] = make(chan *vector.Chunk, drainTaskChunks) // a whole task: its worker never waits to send
	}
	d.tickets = make(chan struct{}, len(d.slots))
	d.start(workers)
	return d
}

func (d *rowsDrain) newTask(ow *obs.Worker) *drainTask {
	return &drainTask{ow: ow, sub: make([]mergepath.Run, len(d.runs)),
		which: make([]uint32, vector.DefaultVectorSize), idxs: make([]uint32, vector.DefaultVectorSize)}
}

// start launches the drain's workers. Each is joined by the iterator's
// teardown and, for an iterator its owner dropped, by Sorter.Close.
//
//rowsort:pipeline
func (d *rowsDrain) start(workers int) {
	for w := 0; w < workers; w++ {
		d.wg.Add(1)
		d.s.drainWG.Add(1)
		go func() {
			defer d.s.drainWG.Done()
			defer d.wg.Done()
			d.s.rec.Do("rows", func() {
				t := d.newTask(d.s.rec.Worker("rows"))
				defer d.retire(t)
				for {
					// A ticket kept when no task is left is harmless: nobody
					// is left to want it.
					select {
					case d.tickets <- struct{}{}:
					case <-d.ctx.Done():
						return
					}
					if !d.claim(t) {
						return
					}
					slot := d.slots[t.index%len(d.slots)]
					for t.left > 0 {
						select {
						case slot <- d.nextChunk(t):
							// With every CPU on a worker, a consumer woken by
							// the send would wait out this worker's time
							// slice (~10 ms) for the chunk: let it run now.
							runtime.Gosched()
						case <-d.ctx.Done():
							return
						}
					}
				}
			})
		}()
	}
}

// claim moves t to the next unclaimed task, cutting its slice of the runs;
// false when no task is left.
func (d *rowsDrain) claim(t *drainTask) bool {
	d.retire(t)
	d.mu.Lock()
	start := d.claimed * drainTaskRows
	if start >= d.s.resultRows {
		d.mu.Unlock()
		return false
	}
	t.index = d.claimed
	d.claimed++
	t.left = min(drainTaskRows, d.s.resultRows-start)
	end := mergepath.KWaySplit(d.runs, start+t.left, d.cmp, d.cut)
	w := d.s.rowWidth
	for r, run := range d.runs {
		t.sub[r] = mergepath.Run{Data: run.Data[d.cut[r]*w : end[r]*w], Width: w}
	}
	d.cut = end
	d.mu.Unlock()
	if len(t.sub) > 1 {
		t.m = d.s.newMerger(t.sub, d.s.resultTie, d.tie, d.cmp)
	}
	return true
}

// retire folds the merge counters of the task t was on into the drain's.
func (d *rowsDrain) retire(t *drainTask) {
	if t.m != nil {
		d.mu.Lock()
		d.stats.Add(t.m.Stats())
		d.mu.Unlock()
		t.m = nil
	}
}

// nextChunk produces the next chunk of t's task: merge (or walk) the chunk's
// payload references out of the key rows, then gather them.
func (d *rowsDrain) nextChunk(t *drainTask) *vector.Chunk {
	s := d.s
	count := min(vector.DefaultVectorSize, t.left)
	which, idxs := t.which[:count], t.idxs[:count]
	if t.m != nil {
		sp := t.ow.Begin(obs.PhaseMerge)
		s.mergeRefs(t.m, which, idxs)
		sp.End()
		s.prog.RowsMerged.Add(int64(count))
	} else {
		s.walkRefs(t.sub[0].Data, which, idxs)
		t.sub[0].Data = t.sub[0].Data[count*s.rowWidth:]
	}
	sp := t.ow.Begin(obs.PhaseGather)
	chunk := s.gatherChunk(d.payloads, which, idxs)
	sp.End()
	t.left -= count
	return chunk
}

// next returns the drain's next chunk, in output order; the caller knows
// there is one.
func (d *rowsDrain) next() (*vector.Chunk, error) {
	if t := d.self; t != nil {
		if t.left == 0 {
			d.claim(t)
		}
		return d.nextChunk(t), nil
	}
	select {
	case chunk := <-d.slots[d.cur%len(d.slots)]:
		d.got++
		if d.got == drainTaskChunks || d.cur*drainTaskRows+d.got*vector.DefaultVectorSize >= d.s.resultRows {
			// The task is drained; its worker's ticket is in the channel.
			<-d.tickets
			d.cur, d.got = d.cur+1, 0
		}
		return chunk, nil
	case <-d.ctx.Done():
		return nil, errSorterClosed
	}
}

// close ends the drain: the workers are stopped and joined, and the drain's
// merge counters become the sorter's — this iteration's alone, however many
// came before it.
func (d *rowsDrain) close() {
	d.cancel()
	d.wg.Wait()
	if d.self != nil {
		d.retire(d.self)
	}
	d.s.mu.Lock()
	d.s.drainStats = d.stats
	d.s.mu.Unlock()
}

// mergeRefs advances the merge by len(which) rows and stores their payload
// references. The merger was built over exactly the task's rows, so it
// cannot run dry first.
//
//rowsort:hotpath
func (s *Sorter) mergeRefs(m *mergepath.Merger, which, idxs []uint32) {
	for i := range which {
		_, _, keyRow, ok := m.Next()
		if !ok {
			panic("core: Merge Path task ended before its last row")
		}
		which[i], idxs[i] = s.getRef(keyRow)
	}
}

// walkRefs stores the payload references of the len(which) key rows at the
// head of keys.
//
//rowsort:hotpath
func (s *Sorter) walkRefs(keys []byte, which, idxs []uint32) {
	for i := range which {
		which[i], idxs[i] = s.getRef(keys[i*s.rowWidth:])
	}
}

// gatherChunk materializes the rows named by (which[i], idxs[i]) — row
// idxs[i] of payloads[which[i]] — into a fresh columnar chunk with the typed
// gather kernels.
func (s *Sorter) gatherChunk(payloads []*row.RowSet, which, idxs []uint32) *vector.Chunk {
	chunk := &vector.Chunk{Vectors: make([]*vector.Vector, len(s.schema))}
	for c := range s.schema {
		v := vector.NewDense(s.schema[c].Type, len(idxs))
		row.GatherRefsColumn(payloads, which, idxs, c, v)
		chunk.Vectors[c] = v
	}
	s.countGathered(len(idxs))
	return chunk
}

// countGathered publishes n rows materialized into an output chunk.
func (s *Sorter) countGathered(n int) {
	s.prog.RowsGathered.Add(int64(n))
	s.gatherBytes.Add(int64(n) * int64(s.layout.Width()))
}
