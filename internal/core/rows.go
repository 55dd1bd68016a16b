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

// The drain's shape, fixed by the null arms in EXPERIMENTS.md ("Rows is the
// merge"). A task is the run of output chunks one worker merges and gathers
// back to back, about drainTaskRows of them (drainTaskFences): long enough
// that opening it is a small part of its work, short enough that the next
// task's first chunk is never far off. The window is the tasks that may be
// claimed and not yet consumed, per worker: one being produced, one finished
// and waiting for the consumer.
const (
	drainTaskChunks      = 32
	drainTaskRows        = drainTaskChunks * vector.DefaultVectorSize
	drainWindowPerThread = 2
)

// errSorterClosed fails a Next whose workers Sorter.Close stopped under it.
var errSorterClosed = errors.New("core: result iterator used after Sorter.Close")

// RowIter streams the sorted result as columnar chunks of up to
// vector.DefaultVectorSize rows; the final merge runs inside it. The output
// is cut into tasks at fences of the runs by Merge Path's stable rule, and
// Options.Threads workers each merge and gather a task at a time, ahead of
// the consumer, delivered strictly in order (see rowsDrain) — over runs in
// memory and over runs on disk alike, whose blocks the workers take from one
// block stage (internal/spill). Under a memory budget a sort that spilled
// runs as many workers as the budget Finalize left affords, each holding its
// blocks and a window of tasks (drainClaimants), and at least Next itself:
// the whole output is never resident at once.
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
	if s.onDisk {
		s.mu.Lock()
		taken := s.diskTaken
		s.diskTaken = true
		s.mu.Unlock()
		if taken {
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
// The output is cut into tasks at fences of the runs (see planSpillTasks and
// spill.PlanTasks): a task is the range of rows between two bound rows, about
// drainTaskRows of them, and a bound's LowerBound in every run under the
// merge's whole order is where the stable merge would cut it — Merge Path's
// rule. A run in memory and a run on disk are cut alike; the claimant streams
// the blocks of those on disk from the block stage. It produces the task a
// chunk at a time: a loser-tree merge (extMerge) of the next 2,048 key rows,
// whose payload references go straight to the cross-run gather kernels; no
// merged key row is written, and no payload row moves but into the chunk. A
// task's last chunk may be short.
//
// With one claimant — one thread, one task, or a budget that affords no more
// — the consumer does that itself, inside Next. Otherwise that many workers
// (Options.Threads, or under a budget what drainClaimants affords) claim
// tasks in order and push a task's chunks, then a nil, into its slot, a
// channel with room for about a task's chunks, from which Next takes them in
// order. A worker takes a ticket before it claims and the consumer returns
// one per task drained, so at most len(slots) tasks are claimed and
// unconsumed: the chunks in flight are bounded (under a budget, by the
// window it was charged), slot t mod len(slots) is free when task t is
// claimed, and — tasks being claimed lowest first — the task the consumer
// waits for is always held by a worker that waits for nothing but the
// consumer and the reads it needs.
type rowsDrain struct {
	s     *Sorter
	tasks int          // tasks the output is cut into
	plan  *mergePlan   // the tasks
	stage *spill.Stage // serves the blocks of the runs on disk; nil with none

	mu      sync.Mutex
	claimed int             // tasks claimed so far: the next task's index
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
	em          *extMerge         // the claimant's merge
	m           *mergepath.Merger // em's loser tree on the task, until its counters are folded in
	which, idxs []uint32          // one chunk's payload references; nil for an inline payload
	keys        [][]byte          // and its key rows, where they hold values the payload set does not; else nil
	g           *row.Gather       // the gather of its rows
	index       int               // task index
	open        bool              // on a task that has not ended
}

// newRowsDrain plans a drain of the result and starts its workers, if it is
// to have any: under a budget, when a run is on disk, as many as
// drainClaimants affords, their window charged with the stage's blocks. gw is
// the consumer's trace lane, for when it runs the tasks itself.
func (s *Sorter) newRowsDrain(gw *obs.Worker) (*rowsDrain, error) {
	d := &rowsDrain{s: s, plan: s.planSpillTasks(s.resultIDs, false)}
	d.tasks = d.plan.Tasks()
	workers := min(s.opt.threads(), d.tasks)
	var window int64
	if s.onDisk && s.opt.limited() && workers > 1 {
		workers, window = s.drainClaimants(d.plan, workers)
	}
	d.ctx, d.cancel = context.WithCancel(s.ctx)
	if s.onDisk {
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
		// About a task's chunks and its end mark: its worker seldom waits to send.
		d.slots[i] = make(chan *vector.Chunk, drainTaskChunks+1)
	}
	d.tickets = make(chan struct{}, len(d.slots))
	d.start(workers)
	return d, nil
}

func (d *rowsDrain) newTask(ow *obs.Worker) *drainTask {
	p := &d.s.place
	t := &drainTask{ow: ow, g: row.NewGather(p.layout), em: d.s.newExtMerge(d.ctx, d.plan, d.stage, ow)}
	if !p.inline {
		t.which, t.idxs = make([]uint32, vector.DefaultVectorSize), make([]uint32, vector.DefaultVectorSize)
	}
	if p.readsKeys {
		t.keys = make([][]byte, vector.DefaultVectorSize)
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

// claim moves t to the next unclaimed task, opening its range of the runs,
// and reports whether there was one.
func (d *rowsDrain) claim(t *drainTask) (bool, error) {
	d.retire(t)
	if !d.take(t) {
		return false, nil
	}
	t.open = true
	if err := t.em.open(t.index); err != nil {
		return false, err
	}
	t.m = t.em.m
	return true, nil
}

// take gives t the next unclaimed task's index; false when no task is left.
func (d *rowsDrain) take(t *drainTask) bool {
	d.mu.Lock()
	defer d.mu.Unlock()
	if d.claimed >= d.tasks {
		return false
	}
	t.index = d.claimed
	d.claimed++
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

// nextChunk produces the next chunk of t's task: merge the chunk's payload
// references out of the key rows, then gather them — or the inline payload
// behind each key — and decode the columns the keys hold from the key rows. A
// nil chunk is the task's end; the chunk before it may be short.
func (d *rowsDrain) nextChunk(t *drainTask) (*vector.Chunk, error) {
	s := d.s
	sp := t.ow.Begin(obs.PhaseMerge)
	count := t.em.refs(t.which, t.idxs, t.keys)
	sp.End()
	if err := t.em.err; err != nil {
		return nil, err
	}
	if count == 0 {
		t.open = false
		return nil, nil
	}
	s.ctr.Add(obs.RowsMerged, int64(count))
	sp = t.ow.Begin(obs.PhaseGather)
	keys := t.keys
	if keys != nil {
		keys = keys[:count]
	}
	if s.place.inline {
		t.g.Inline(keys, s.keyWidth)
	} else {
		t.g.Refs(t.em.sets, t.which[:count], t.idxs[:count], keys)
	}
	chunk := &vector.Chunk{Vectors: s.place.outputVectors(s.enc, t.g.Vectors(), keys)}
	s.countGathered(count)
	sp.End()
	t.em.settle()
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

// refs advances the merge by up to a chunk's rows and stores their payload
// references, unless which is nil (an inline payload has none), and their key
// rows, unless keys is, which stay valid until the next settle — returning how
// many: fewer at the end of the range and after a failed read.
func (e *extMerge) refs(which, idxs []uint32, keys [][]byte) int {
	for i := range vector.DefaultVectorSize {
		keyRow, slot, idx, ok := e.next()
		if !ok {
			return i
		}
		if which != nil {
			which[i], idxs[i] = slot, idx
		}
		if keys != nil {
			keys[i] = keyRow
		}
	}
	return vector.DefaultVectorSize
}

// countGathered publishes n rows materialized into an output chunk: the
// payload's bytes — an inline payload's unaligned width — which the decoded
// columns do not add to.
func (s *Sorter) countGathered(n int) {
	s.ctr.Add(obs.RowsGathered, int64(n))
	s.ctr.Add(obs.GatherBytes, int64(n)*int64(s.place.layout.Width()))
}
