// Package fixture exercises the atomicfield analyzer.
package fixture

import "sync/atomic"

type counters struct {
	hits  int64
	reads int64
}

func (c *counters) bump() {
	atomic.AddInt64(&c.hits, 1)
}

func (c *counters) report() int64 {
	return c.hits // want "plain access to hits races"
}

var ops int64

func addOp() {
	atomic.AddInt64(&ops, 1)
}

func readOps() int64 {
	return ops // want "plain access to ops races"
}

// readsAtomic touches reads atomically at every site: clean.
func (c *counters) readsAtomic() int64 {
	atomic.AddInt64(&c.reads, 1)
	return atomic.LoadInt64(&c.reads)
}

// plainOnly is never touched atomically, so plain access is fine.
type plainOnly struct{ n int64 }

func (p *plainOnly) inc() { p.n++ }

func (p *plainOnly) get() int64 { return p.n }

// block uses the typed sync/atomic API, like obs.Block: an array of counters
// indexed by an enum, a stage word, a flag.
type block struct {
	stage atomic.Int32
	done  atomic.Bool
	vals  [3]atomic.Int64
}

// methods and explicit addresses are the legitimate uses: clean.
func (b *block) advance(n int64) {
	b.stage.Add(1)
	b.vals[0].Add(n)
	b.done.Store(true)
	sink(&b.vals[1])
}

func sink(*atomic.Int64) {}

func (b *block) snapshot() int64 {
	_ = b.stage   // want "sync/atomic value of type sync/atomic.Int32 copied"
	_ = b.vals[1] // want "sync/atomic value of type sync/atomic.Int64 copied"
	return b.vals[1].Load()
}

func swap(b *block) {
	var scratch atomic.Int64 // a declaration is not a copy: clean
	scratch.Store(b.vals[2].Load())
	// Assigning copies both sides: the write tears, the read races.
	scratch = b.vals[2] // want "sync/atomic value" "sync/atomic value"
	_ = scratch.Load()
}
