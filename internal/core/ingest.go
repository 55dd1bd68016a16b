package core

import (
	"encoding/binary"
	"fmt"
	"runtime/debug"
	"slices"
	"sync"
	"sync/atomic"

	"rowsort/internal/mem"
	"rowsort/internal/normkey"
	"rowsort/internal/obs"
	"rowsort/internal/row"
	"rowsort/internal/vector"
)

// Sink is a per-thread ingestion point. It accumulates converted rows and
// cuts a sorted run where the sorter's ingest plan says (planIngest). Sinks
// are not safe for concurrent use; create one per producing goroutine.
//
// A row is copied where Figure 11 copies it and nowhere else: scattered
// into payload once at ingest, reordered into the run's own set once after
// the keys are sorted — or, for an inline payload, scattered into its key row
// and moved with it by the sort. To keep it that way the sink owns, for its
// whole life, the buffers a run only passes through — the pending payload
// set, the radix scatter buffer, the reorder permutation (an inline payload
// has neither set nor permutation) — sized once (see pendingCap) and emptied,
// not replaced, at each cut; only the key buffer and the reordered payload,
// which stay resident as the run, leave with each run. The next key buffer is
// taken from the pools once the run is placed (place): a run that placement
// spilled hands its own straight back. All of it is charged to res (see
// account).
type Sink struct {
	s        *Sorter
	ow       *obs.Worker      // this sink's trace lane (nil without telemetry)
	res      *mem.Reservation // everything the sink retains, charged to the sorter's broker
	keys     []byte           // pending key rows; leaves with each cut run
	placing  *sortedRun       // the run cut last, until it is placed (place)
	payload  *row.RowSet      // pending payload rows; emptied at each cut; nil for an inline payload
	scratch  []byte           // radix scatter buffer, key-buffer sized
	idxs     []uint32         // payload reorder permutation
	keyCols  []*vector.Vector // the current chunk's key columns
	payVecs  []*vector.Vector // and its payload columns
	n        int
	runs     int   // runs this sink has cut
	heapRow  int64 // string-heap bytes a pending row carried, last seen
	tieBreak bool
	closed   bool
}

// NewSink registers and returns a new ingestion sink.
func (s *Sorter) NewSink() *Sink {
	k := &Sink{s: s, ow: s.rec.Worker("sink"), res: s.broker.Reserve("sink", 0), keys: s.getKeyBuf(),
		keyCols: make([]*vector.Vector, len(s.keys)), payVecs: make([]*vector.Vector, s.place.layout.NumColumns())}
	if !s.place.inline {
		k.payload = s.getRowSet()
	}
	// A sink its owner abandons — an Append failed, a producer gave up —
	// still holds its buffers' bytes: Sorter.Close gives them back.
	s.mu.Lock()
	s.sinkRes = append(s.sinkRes, k.res)
	s.openSinks = append(s.openSinks, k.res)
	s.mu.Unlock()
	k.account()
	return k
}

// planIngest fixes the run size, one rule for every sort. A sink's share is
// what its pending run may hold: sinkCacheShare, or less under a budget — a
// limit somewhere in the broker chain, judged by the headroom it has now —
// whose sinks' pending buffers get half of it, split evenly over Threads
// sinks; resident runs, the run being flushed and the drain get the other
// half. A run is then as many whole vectors as the share holds at
// placement.pendingRow, capped at RunSize and never under one vector; only a string
// heap can end it sooner. Whole vectors, because a sink cuts between chunks: a
// run planned a few rows past a chunk would take in the next one whole, and
// its sink twice its share.
func (s *Sorter) planIngest() {
	s.headroom = s.broker.Remaining()
	s.sinkShare = min(s.headroom/int64(2*s.opt.threads()), sinkCacheShare)
	v := vector.DefaultVectorSize
	s.runRows = min(s.opt.runSize(), max(int(s.sinkShare/s.place.pendingRow)/v*v, v))
}

// sinkCacheShare bounds a sink's share with no budget or a large one: a run
// sorts and reorders its payload by random gather while it is in cache, and a
// run of 2^17 wide rows (about 19 MB) is not. 8 MiB won a sweep of 4 to 16 MiB
// on wide and customer rows (EXPERIMENTS.md, "A run is what a sink's byte
// share holds"); it leaves runs of rows up to 64 bytes at DefaultRunSize.
const sinkCacheShare = 8 << 20

// account syncs the sink's reservation with the capacity of every buffer
// it holds: pending keys and payload, radix scratch, reorder permutation.
func (k *Sink) account() {
	k.res.SetTo(int64(cap(k.keys)) + k.payload.CapBytes() +
		int64(cap(k.scratch)) + 4*int64(cap(k.idxs)))
}

// liveBytes is what the pending run holds, by length: its rows' fixed bytes
// and the payload's string heap. A recycled buffer's spare capacity cannot
// move a cut.
func (k *Sink) liveBytes() int64 {
	return int64(k.n)*k.s.place.pendingRow + int64(k.payload.HeapLen())
}

// pendingCap returns the row capacity a pending buffer should grow to so
// that it holds need rows.
//
// The answer is the planned run size (planIngest) — every later chunk of
// every later run then lands in place, with no growth copy — except for the
// sink's very first chunk, which gets exactly its own size so that a sort
// of one chunk per sink does not pay for a run. A declared input size
// (SetExpectedRows) below the run size bounds the run instead, for as long
// as the declaration holds. The run size is what the sink's share holds, so
// reserving it ahead stays within the share; where the string heap the sink
// has seen fills the share first, the run is sized for the whole vectors the
// cut will end it at: the first past the rows the share holds with it.
func (k *Sink) pendingCap(need int) int {
	s, v := k.s, int64(vector.DefaultVectorSize)
	c := int(min(int64(s.runRows), (s.sinkShare/(s.place.pendingRow+k.heapRow)/v+1)*v))
	if k.n == 0 && k.runs == 0 {
		c = need
	} else if exp := s.ctr.Value(obs.RowsExpected); int64(need) <= exp && exp < int64(c) {
		c = int(exp)
	}
	return max(c, need)
}

// reservePayload makes room in the pending payload set for n more rows,
// following pendingCap; an inline payload has no set, and its rows are the
// key rows'. The string heap is sized with the row buffer, by
// extrapolating the bytes per row seen so far plus an eighth; a heap that
// outgrows the guess doubles inside RowSet like any other.
func (k *Sink) reservePayload(n int) {
	need := k.n + n
	if k.payload == nil || k.payload.Cap() >= need {
		return
	}
	c := k.pendingCap(need)
	k.payload.Reserve(c)
	if k.n > 0 {
		perRow := (k.payload.HeapLen() + k.n - 1) / k.n
		k.payload.ReserveHeap(c * (perRow + perRow/8))
	}
}

// growKeys extends the sink's key buffer by n rows and returns the byte
// offset of the new region, growing capacity as pendingCap says.
func (k *Sink) growKeys(n int) int {
	rw := k.s.place.rowWidth
	need := len(k.keys) + n*rw
	if cap(k.keys) < need {
		nb := make([]byte, len(k.keys), k.pendingCap(need/rw)*rw)
		copy(nb, k.keys)
		k.keys = nb
	}
	start := len(k.keys)
	k.keys = k.keys[:need]
	return start
}

// Append converts one chunk into the sink's pending run: key columns are
// normalized, then payload columns scattered to the row format — into the
// payload set, or behind each key in its key row when the payload is inline —
// both one vector at a time. A column a key holds exactly is not scattered at
// all (see place). The keys go first because what they hold decides what the
// payload does not: a string its key's segment holds whole, as the segment's
// residence byte says, stays there, and its payload slot is empty. A chunk
// that fails either step leaves the sink as it was.
func (k *Sink) Append(c *vector.Chunk) error {
	if k.closed {
		return fmt.Errorf("core: append to closed sink")
	}
	s := k.s
	if len(c.Vectors) != len(s.schema) {
		return fmt.Errorf("core: chunk has %d columns, schema has %d", len(c.Vectors), len(s.schema))
	}
	n := c.Len()
	if n == 0 {
		return nil
	}
	s.ctr.AdvanceTo(obs.StageRunGen)
	if err := k.place(); err != nil {
		return err
	}
	sp := k.ow.Begin(obs.PhaseIngest)
	// The payload checks its columns' lengths, the encoder its own against
	// each other; a key column must also agree with the payload's.
	var err error
	for i, kc := range s.keys {
		if k.keyCols[i] = c.Vectors[kc.Column]; k.keyCols[i].Len() != n {
			err = fmt.Errorf("core: key column %d has %d rows, the chunk %d", kc.Column, k.keyCols[i].Len(), n)
		}
	}
	s.place.payloadVectors(k.payVecs, c.Vectors)
	start := k.growKeys(n)
	kw, rw := s.keyWidth, s.place.rowWidth
	if s.place.padded {
		// A recycled buffer carries stale bytes in the alignment padding past
		// a key row's reference or inline payload: its last word is zeroed
		// before they and the key are written.
		for o := start + rw - 8; o < len(k.keys); o += rw {
			binary.LittleEndian.PutUint64(k.keys[o:], 0)
		}
	}
	var st normkey.EncodeStats
	if err == nil {
		st, err = s.enc.EncodeChunk(k.keyCols, k.keys[start:], rw, 0)
	}
	if err == nil && s.place.inline {
		err = s.place.layout.ScatterRows(k.keys[start+kw:], rw, n, k.payVecs)
	} else if err == nil {
		k.reservePayload(n)
		err = k.payload.AppendChunkKeyed(n, k.payVecs, k.keys[start:], rw)
		// Behind each key goes its payload reference: the row's index in the
		// pending set.
		for o, ref := start+kw, uint32(k.n); o < len(k.keys); o, ref = o+rw, ref+1 {
			binary.LittleEndian.PutUint32(k.keys[o:], ref)
		}
	}
	clear(k.keyCols) // the sink must not pin the caller's chunk
	clear(k.payVecs)
	if err != nil {
		k.keys = k.keys[:start]
		sp.End()
		return err
	}
	k.n += n
	k.heapRow = int64(k.payload.HeapLen() / k.n)
	s.ctr.Add(obs.RowsIngested, int64(n))

	// The encoder reports per-chunk whether any encoded key could byte-tie
	// with a different value's encoding (an overlong or NUL-bearing string
	// prefix) — runs built only from lossless chunks keep the comparison-free
	// radix path.
	if st.Ties {
		k.tieBreak = true
	}
	k.account()
	sp.End()

	// Cut the run at the planned size, or when the pending rows outgrow the
	// sink's share, which only a string heap makes them do.
	if k.n >= s.runRows || k.liveBytes() > s.sinkShare {
		k.placing, err = k.flush()
	}
	return err
}

// Close flushes the sink's remaining rows as a final (possibly short) run,
// returns the sink's buffers to the sorter's pools and places its last runs.
func (k *Sink) Close() error {
	if k.closed {
		return nil
	}
	k.closed = true
	// From here the plan counts the sink at what it holds, not its share:
	// once its buffers are back, nothing.
	s := k.s
	s.mu.Lock()
	s.openSinks = slices.DeleteFunc(s.openSinks, func(r *mem.Reservation) bool { return r == k.res })
	s.mu.Unlock()
	runs := []*sortedRun{k.placing, nil}
	var err error
	if k.n > 0 {
		runs[1], err = k.flush()
	}
	// The reservation goes first: a buffer the pools take must not be
	// charged twice, to the sink and to them.
	k.res.Release()
	s.putKeyBuf(k.keys)
	s.putRowSet(k.payload)
	k.keys, k.payload, k.scratch, k.idxs, k.placing = nil, nil, nil, nil, nil
	for _, r := range runs {
		if r != nil && err == nil {
			err = s.placeRun(r, k.ow)
		}
	}
	return err
}

// ParallelSink parallelizes run generation behind a single producer: a
// pipelined one (an operator tree, a CSV reader) hands over one chunk at a
// time from one goroutine, and SortTable hands over a materialized table's
// chunks the same way. ParallelSink round-robins those chunks to
// Options.Threads workers over bounded channels, each worker feeding a
// private Sink, so key normalization, run sorting and pressure spilling run
// concurrently off the caller's goroutine. Each private Sink carries its own
// broker reservation, so the memory budget governs every sink's ingest alike.
//
// Like Sink, a ParallelSink is not safe for concurrent use: it multiplies
// the workers behind one producer rather than accepting many producers
// (producers that are already parallel should create one Sink each).
type ParallelSink struct {
	s      *Sorter
	in     []chan *vector.Chunk
	next   int
	wg     sync.WaitGroup
	mu     sync.Mutex
	err    error
	failed atomic.Bool
	closed bool
}

// ingestQueueDepth bounds each worker's chunk queue. One chunk in flight
// plus one queued keeps a worker busy across the producer's round-robin
// cycle without buffering an unbounded (and unaccounted) backlog.
const ingestQueueDepth = 2

// NewParallelSink starts Options.Threads ingestion workers and returns
// the dispatching sink. Close must be called to join them.
func (s *Sorter) NewParallelSink() *ParallelSink {
	p := &ParallelSink{s: s, in: make([]chan *vector.Chunk, s.opt.threads())}
	for w := range p.in {
		p.in[w] = make(chan *vector.Chunk, ingestQueueDepth)
		p.wg.Add(1)
		go p.worker(p.in[w])
	}
	return p
}

// worker drains one chunk queue into a private Sink, made at its first
// chunk, so a worker that gets none holds nothing. After a failure anywhere
// in the group it keeps draining (so the producer never blocks on a full
// queue) but stops converting. Its panic — a filesystem's, a broken
// invariant — is the group's failure, not the process's: Close returns it,
// and what the sink held goes back with Sorter.Close.
func (p *ParallelSink) worker(ch chan *vector.Chunk) {
	defer p.wg.Done()
	defer func() {
		if r := recover(); r != nil {
			p.fail(fmt.Errorf("core: an ingest worker panicked: %v\n%s", r, debug.Stack()))
			for range ch {
			}
		}
	}()
	p.s.rec.Do("run-generation", func() {
		var sink *Sink
		for c := range ch {
			if p.failed.Load() {
				continue
			}
			if sink == nil {
				sink = p.s.NewSink()
			}
			if err := sink.Append(c); err != nil {
				p.fail(err)
			}
		}
		if sink != nil {
			if err := sink.Close(); err != nil {
				p.fail(err)
			}
		}
	})
}

// fail records the group's first error and flips the sticky failure flag.
func (p *ParallelSink) fail(err error) {
	p.mu.Lock()
	if p.err == nil {
		p.err = err
	}
	p.mu.Unlock()
	p.failed.Store(true)
}

// firstErr returns the group's first recorded error.
func (p *ParallelSink) firstErr() error {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.err
}

// Append hands one chunk to the next worker, blocking only when that
// worker's bounded queue is full — which is the backpressure that keeps a
// fast producer from outrunning the budgeted sinks.
func (p *ParallelSink) Append(c *vector.Chunk) error {
	if p.closed {
		return fmt.Errorf("core: append to closed sink")
	}
	if p.failed.Load() {
		return p.firstErr()
	}
	p.in[p.next] <- c
	p.next = (p.next + 1) % len(p.in)
	return nil
}

// Close joins the workers, flushing every pending run, and returns the
// group's first error. It is idempotent.
func (p *ParallelSink) Close() error {
	if p.closed {
		return p.firstErr()
	}
	p.closed = true
	for _, ch := range p.in {
		close(ch)
	}
	p.wg.Wait()
	return p.firstErr()
}
