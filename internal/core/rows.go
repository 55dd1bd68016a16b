package core

import (
	"context"
	"errors"
	"fmt"
	"runtime"
	"runtime/debug"
	"sync"

	"rowsort/internal/mergepath"
	"rowsort/internal/obs"
	"rowsort/internal/row"
	"rowsort/internal/spill"
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
// vector.DefaultVectorSize rows; the final merge runs inside it. The output
// is cut into tasks, and Options.Threads workers each merge and gather a
// task at a time, ahead of the consumer, delivered strictly in order (see
// rowsDrain) — over runs in memory and over runs on disk alike, whose blocks
// the workers take from one block stage (internal/spill). Under a memory
// budget a sort that spilled runs as many workers as the budget Finalize left
// affords, each holding its blocks and a window of tasks (drainClaimants), and
// at least Next itself: the whole output is never resident at once.
//
// A RowIter is not safe for concurrent use. A result that reads from disk is
// single-use: the merge consumes its spill files as it reads them, and an
// iterator abandoned before the end leaves the rest for Sorter.Close; a
// resident sort may be iterated any number of times. Close releases the
// iterator's resources and joins its workers; it is required when the
// iterator is abandoned before exhaustion and harmless otherwise.
type RowIter struct {
	s   *Sorter
	gw  *obs.Worker
	err error
	d   *rowsDrain

	pos      int
	n        int
	started  int64 // sinceEpoch at creation, for the gather stage duration
	finished bool
	closed   bool
}

// Rows returns a chunked iterator over the sorted result; valid after
// Finalize, and once only when the sort has runs on disk. Result is a thin
// wrapper that drains it into a table — operators that consume the sort
// incrementally (LIMIT, streaming exchange) should use Rows directly and
// Close early.
func (s *Sorter) Rows() (*RowIter, error) {
	if !s.finalized {
		return nil, fmt.Errorf("core: Rows before Finalize")
	}
	if s.streamMerge {
		s.mu.Lock()
		used := s.streamUsed
		s.streamUsed = true
		s.mu.Unlock()
		if used {
			return nil, fmt.Errorf("core: streaming result already consumed (the merge of spilled runs is single-pass; sort again to iterate again)")
		}
	}
	s.ctr.AdvanceTo(obs.StageGather)
	it := &RowIter{s: s, gw: s.rec.Worker("gather"), started: s.ctr.Now(), n: s.resultRows}
	var err error
	if it.d, err = s.newRowsDrain(it.gw); err != nil {
		return nil, err
	}
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
	chunk, err := it.d.next()
	if err != nil {
		it.err = err
		it.stop(false)
		return nil, it.err
	}
	it.pos += chunk.Len()
	if it.pos >= it.n {
		it.stop(true)
	}
	return chunk, nil
}

// stop tears the iterator down, once: the drain's workers and block stage are
// joined, its memory goes back to the budget and the gather stage's clock
// stops. drained says the result was consumed to the end, so that whatever a
// merge of spilled runs has not yet removed of them goes now; otherwise their
// files stay tracked for Sorter.Close.
func (it *RowIter) stop(drained bool) {
	if it.finished {
		return
	}
	it.finished = true
	it.d.close(drained)
	it.s.ctr.Add(obs.DurGather, it.s.ctr.Now()-it.started)
	it.s.ctr.StopClock(obs.DurTotal)
}

// Close releases the iterator. Required when abandoning it before
// exhaustion; a no-op (returning the first error, if any) after full
// drain. Closing does not touch chunks already returned.
func (it *RowIter) Close() error {
	it.closed = true
	it.stop(false)
	return it.err
}

// rowsDrain is the final merge, fused into the gather and run lazily.
//
// The output is cut into tasks. Over resident runs a task is drainTaskRows
// ranks: claiming one finds its end boundary with mergepath.KWaySplit,
// continued from the previous task's — each boundary is computed once, by a
// search over one task's rows — and hands the claimant the slice of every
// run between the two. Over spilled runs a task is a key range between two
// fence keys (see spill.PlanTasks), about as many rows, and the claimant streams
// the blocks that hold it from the block stage. Either way the claimant
// produces the task a chunk at a time: a loser-tree merge of the next 2,048
// key rows, whose payload references go straight to the cross-run gather
// kernels; no merged key row is written, and no payload row moves but into
// the chunk. One resident result run needs no merging: its references are
// walked.
//
// With one claimant — one thread, one task, or a budget that affords no more
// — the consumer does that itself, inside Next. Otherwise that many workers
// (Options.Threads, or under a budget what drainClaimants affords) claim
// tasks in order and push a task's chunks, then a nil, into its slot, a
// channel with room for all of a resident task's, from which Next takes them
// in order. A worker takes a ticket before it claims and the consumer returns
// one per task drained, so at most len(slots) tasks are claimed and
// unconsumed: the chunks in flight are bounded (under a budget, by the
// window it was charged), slot t mod len(slots) is free when task t is
// claimed, and —
// tasks being claimed lowest first — the task the consumer waits for is
// always held by a worker that waits for nothing but the consumer and the
// reads it needs.
type rowsDrain struct {
	s     *Sorter
	tasks int // tasks the output is cut into

	// Resident form.
	runs     []mergepath.Run // result runs, in merge (tie) order
	payloads []*row.RowSet   // by the run id in a key row's reference
	tie, cmp mergepath.CompareFunc

	// Spilled form.
	plan  *mergePlan
	stage *spill.Stage

	mu      sync.Mutex
	claimed int             // tasks claimed so far: the next task's index
	cut     []int           // Merge Path split at the start of task claimed
	stats   mergepath.Stats // merge counters of the tasks worked on
	err     error           // the first failure of a worker

	self *drainTask // the consumer's own claimant state; nil with workers

	slots   []chan *vector.Chunk
	tickets chan struct{}
	ctx     context.Context // done when the iterator, or the sorter, is closed
	cancel  context.CancelFunc
	wg      sync.WaitGroup
	cur     int // the task the consumer is on
}

// drainTask is one claimant's state: its scratch, and the task it is on.
type drainTask struct {
	ow          *obs.Worker
	sub         []mergepath.Run   // the task's slice of every resident run
	m           *mergepath.Merger // the task's loser tree; nil when there is one result run
	em          *extMerge         // the task's merge over spilled runs, whose tree m is
	which, idxs []uint32          // one chunk's payload references
	g           *row.Gather       // the gather of its rows
	index       int               // task index
	left        int               // rows of a resident task still to produce
	open        bool              // on a task that has not ended
}

// newRowsDrain plans a drain of the result and starts its workers, if it is
// to have any: under a budget as many as drainClaimants affords, their window
// charged with the stage's blocks. gw is the consumer's trace lane, for when
// it runs the tasks itself.
func (s *Sorter) newRowsDrain(gw *obs.Worker) (*rowsDrain, error) {
	d := &rowsDrain{s: s}
	if s.streamMerge {
		d.plan = s.planSpillTasks(s.streamActive, false)
		d.tasks = d.plan.Tasks()
	} else {
		d.runs, d.cut = s.resultRuns, make([]int, len(s.resultRuns))
		d.payloads = make([]*row.RowSet, len(s.runs))
		for i, r := range s.runs {
			d.payloads[i] = r.payload
		}
		d.tie, d.cmp = s.mergeOrder(s.resultTie, s.residentPayload)
		d.tasks = (s.resultRows + drainTaskRows - 1) / drainTaskRows
	}
	workers := min(s.opt.threads(), d.tasks)
	var window int64
	if d.plan != nil && s.opt.limited() && workers > 1 {
		workers, window = s.drainClaimants(d.plan, workers)
	}
	d.ctx, d.cancel = context.WithCancel(s.ctx)
	if d.plan != nil {
		var err error
		if d.stage, err = s.newBlockStage(d.plan, max(workers, 1), window); err != nil {
			d.cancel()
			return nil, err
		}
		d.stage.Start(d.ctx, &s.drainWG)
	}
	if workers <= 1 {
		d.self = d.newTask(gw)
		return d, nil
	}
	d.slots = make([]chan *vector.Chunk, drainWindowPerThread*workers)
	for i := range d.slots {
		// A whole resident task and its end mark: its worker never waits to send.
		d.slots[i] = make(chan *vector.Chunk, drainTaskChunks+1)
	}
	d.tickets = make(chan struct{}, len(d.slots))
	d.start(workers)
	return d, nil
}

func (d *rowsDrain) newTask(ow *obs.Worker) *drainTask {
	t := &drainTask{ow: ow, g: row.NewGather(d.s.layout),
		which: make([]uint32, vector.DefaultVectorSize), idxs: make([]uint32, vector.DefaultVectorSize)}
	if d.stage != nil {
		t.em = d.s.newExtMerge(d.ctx, d.plan, d.stage, ow)
	} else {
		t.sub = make([]mergepath.Run, len(d.runs))
	}
	return t
}

// start launches the drain's workers. Each is joined by the iterator's
// teardown and, for an iterator its owner dropped, by Sorter.Close.
func (d *rowsDrain) start(workers int) {
	for w := 0; w < workers; w++ {
		d.wg.Add(1)
		d.s.drainWG.Add(1)
		go func() {
			defer d.s.drainWG.Done()
			defer d.wg.Done()
			// A worker's panic — a merge's broken invariant, a filesystem's —
			// is the drain's failure, not the process's: Next returns it.
			defer func() {
				if r := recover(); r != nil {
					d.fail(fmt.Errorf("core: a result worker panicked: %v\n%s", r, debug.Stack()))
				}
			}()
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
					if ok, err := d.claim(t); !ok {
						d.fail(err)
						return
					}
					slot := d.slots[t.index%len(d.slots)]
					for t.open {
						chunk, err := d.nextChunk(t)
						if err != nil {
							d.fail(err)
							return
						}
						select {
						case slot <- chunk:
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

// fail records a worker's failure, if err is one, and stops the drain: the
// consumer's next Next returns it.
func (d *rowsDrain) fail(err error) {
	if err == nil {
		return
	}
	d.mu.Lock()
	if d.err == nil {
		d.err = err
	}
	d.mu.Unlock()
	d.cancel()
}

// claim moves t to the next unclaimed task — cutting its slice of the
// resident runs, or opening its key range of the spilled ones — and reports
// whether there was one.
func (d *rowsDrain) claim(t *drainTask) (bool, error) {
	d.retire(t)
	if !d.take(t) {
		return false, nil
	}
	t.open = true
	if t.em != nil {
		if err := t.em.open(t.index); err != nil {
			return false, err
		}
		t.m = t.em.m
	} else if len(t.sub) > 1 {
		t.m = mergepath.NewMerger(t.sub, d.s.ovcSafeWidth(d.s.resultTie), d.tie)
	}
	return true, nil
}

// take gives t the next unclaimed task's index and, of resident runs, its
// slices; false when no task is left.
func (d *rowsDrain) take(t *drainTask) bool {
	d.mu.Lock()
	defer d.mu.Unlock() // deferred: a comparator that panics must not keep the lock from fail
	if d.claimed >= d.tasks {
		return false
	}
	t.index = d.claimed
	d.claimed++
	if d.stage == nil {
		start := t.index * drainTaskRows
		t.left = min(drainTaskRows, d.s.resultRows-start)
		end := mergepath.KWaySplit(d.runs, start+t.left, d.cmp, d.cut)
		w := d.s.rowWidth
		for r, run := range d.runs {
			t.sub[r] = mergepath.Run{Data: run.Data[d.cut[r]*w : end[r]*w], Width: w}
		}
		d.cut = end
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
// payload references out of the key rows, then gather them. A nil chunk is
// the task's end; the chunk before it may be short.
func (d *rowsDrain) nextChunk(t *drainTask) (*vector.Chunk, error) {
	s := d.s
	count := min(vector.DefaultVectorSize, t.left)
	payloads := d.payloads
	switch {
	case t.em != nil:
		sp := t.ow.Begin(obs.PhaseMerge)
		count = t.em.refs(t.which, t.idxs)
		sp.End()
		if err := t.em.err; err != nil {
			return nil, err
		}
		payloads = t.em.sets
		s.ctr.Add(obs.RowsMerged, int64(count))
	case t.m != nil:
		sp := t.ow.Begin(obs.PhaseMerge)
		s.mergeRefs(t.m, t.which[:count], t.idxs[:count])
		sp.End()
		s.ctr.Add(obs.RowsMerged, int64(count))
		t.left -= count
	default:
		s.walkRefs(t.sub[0].Data, t.which[:count], t.idxs[:count])
		t.sub[0].Data = t.sub[0].Data[count*s.rowWidth:]
		t.left -= count
	}
	if count == 0 {
		t.open = false
		return nil, nil
	}
	sp := t.ow.Begin(obs.PhaseGather)
	t.g.Refs(payloads, t.which[:count], t.idxs[:count])
	chunk := &vector.Chunk{Vectors: t.g.Vectors()}
	s.countGathered(count)
	sp.End()
	if t.em != nil {
		t.em.settle()
	}
	return chunk, nil
}

// next returns the drain's next chunk, in output order; the caller knows
// there is one.
func (d *rowsDrain) next() (*vector.Chunk, error) {
	if t := d.self; t != nil {
		for {
			if !t.open {
				if ok, err := d.claim(t); err != nil {
					return nil, err
				} else if !ok {
					return nil, d.short()
				}
			}
			if chunk, err := d.nextChunk(t); chunk != nil || err != nil {
				return chunk, err
			}
		}
	}
	for d.cur < d.tasks {
		select {
		case chunk := <-d.slots[d.cur%len(d.slots)]:
			if chunk != nil {
				return chunk, nil
			}
			// The task is drained; its worker's ticket is in the channel.
			<-d.tickets
			d.cur++
		case <-d.ctx.Done():
			d.mu.Lock()
			defer d.mu.Unlock()
			if d.err != nil {
				return nil, d.err
			}
			return nil, errSorterClosed
		}
	}
	return nil, d.short()
}

// short is the failure of a drain whose tasks ended before its rows did.
func (d *rowsDrain) short() error {
	return fmt.Errorf("core: the final merge's %d tasks ended short of the result's %d rows", d.tasks, d.s.resultRows)
}

// close ends the drain: the workers and the block stage are stopped and
// joined, and the drain's merge counters become the sorter's — this
// iteration's alone, however many came before it. drained says the consumer
// got every row: the runs a merge of spilled runs read are then done with,
// their files deleted and what was still in memory of them released.
func (d *rowsDrain) close(drained bool) {
	d.cancel()
	d.wg.Wait()
	if d.self != nil {
		d.retire(d.self)
	}
	s := d.s
	if d.stage != nil {
		d.stage.Close(drained)
		s.ctr.Store(obs.ExtMergeParts, int64(d.claimed))
		if drained {
			s.releaseMerged(d.plan.ids)
		}
	}
	s.mu.Lock()
	total := s.mergeStats
	s.mu.Unlock()
	total.Add(d.stats)
	s.publishMerge(total)
}

// refs advances the merge by up to len(which) rows and stores their payload
// references, returning how many: fewer at the end of the range and after a
// failed read.
func (e *extMerge) refs(which, idxs []uint32) int {
	for i := range which {
		_, slot, idx, ok := e.next()
		if !ok {
			return i
		}
		which[i], idxs[i] = slot, idx
	}
	return len(which)
}

// mergeRefs advances the merge by len(which) rows and stores their payload
// references. The merger was built over exactly the task's rows, so it
// cannot run dry first.
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
func (s *Sorter) walkRefs(keys []byte, which, idxs []uint32) {
	for i := range which {
		which[i], idxs[i] = s.getRef(keys[i*s.rowWidth:])
	}
}

// countGathered publishes n rows materialized into an output chunk.
func (s *Sorter) countGathered(n int) {
	s.ctr.Add(obs.RowsGathered, int64(n))
	s.ctr.Add(obs.GatherBytes, int64(n)*int64(s.layout.Width()))
}
