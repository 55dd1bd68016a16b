package core

import (
	"fmt"
	"sync"
	"sync/atomic"

	"rowsort/internal/vector"
)

// ParallelSink parallelizes run generation behind a single streaming
// producer. SortTable distributes a materialized table's chunks across
// sinks morsel-style, but a pipelined producer (an operator tree, a CSV
// reader) hands over one chunk at a time from one goroutine; ParallelSink
// round-robins those chunks to Options.Threads workers over bounded
// channels, each worker feeding a private Sink, so key normalization, run
// sorting and pressure spilling run concurrently off the caller's
// goroutine. Each private Sink carries its own broker reservation, so the
// memory budget governs the pipelined ingest exactly as it does the
// materialized one.
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

// worker drains one chunk queue into a private Sink. After a failure
// anywhere in the group it keeps draining (so the producer never blocks on
// a full queue) but stops converting.
func (p *ParallelSink) worker(ch chan *vector.Chunk) {
	defer p.wg.Done()
	p.s.rec.Do("run-generation", func() {
		sink := p.s.NewSink()
		for c := range ch {
			if p.failed.Load() {
				continue
			}
			if err := sink.Append(c); err != nil {
				p.fail(err)
			}
		}
		if err := sink.Close(); err != nil {
			p.fail(err)
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
