// Package mem is the sort pipeline's memory governor: a concurrency-safe
// budget broker with hierarchical reservations. An engine creates one root
// Broker with a global budget, hands it to every operator, and each sorter
// carves a child broker from it; within a sorter, each phase (sink
// ingestion, resident runs, merge blocks, result gather) holds its own
// Reservation and grows or shrinks it as buffers are acquired and released.
//
// The broker never refuses memory — by the time a caller asks, the bytes
// are already allocated — it answers whether the budget still holds. A
// Grow that lands over any limit in the chain returns false and counts a
// pressure event, and the caller degrades: the sorter spills resident runs
// until the balance recovers. A caller plans ahead from Remaining (the
// sorter sizes its runs from it) and reacts to OverBudget; the broker calls
// nobody back. Accounting therefore stays truthful under pressure, and the
// atomic high-water mark (Peak) reports what was really held, not what was
// wished for.
//
// A nil *Broker is a valid unlimited no-op (the same convention as a nil
// obs.Recorder): every method is safe, Reserve returns a nil *Reservation
// whose methods are also no-ops, so library code threads brokers through
// unconditionally and pays nothing when memory governance is off.
package mem

import (
	"math"
	"sync/atomic"
)

// Broker tracks a memory budget. Brokers form a tree: charging a child
// charges every ancestor, so a shared root observes the sum of all its
// sorters while each child enforces (and reports) its own slice.
type Broker struct {
	name   string
	parent *Broker
	limit  int64 // 0 = unlimited

	used atomic.Int64
	peak atomic.Int64

	pressureEvents atomic.Int64
}

// NewBroker returns a root broker. limit is the budget in bytes; 0 means
// unlimited (the broker still tracks usage and peak).
func NewBroker(name string, limit int64) *Broker {
	if limit < 0 {
		limit = 0
	}
	return &Broker{name: name, limit: limit}
}

// Child returns a broker whose charges propagate to b. limit bounds the
// child independently (0 = bounded only by the ancestors). Child on a nil
// broker returns a root broker, so optional parents compose without
// branching.
func (b *Broker) Child(name string, limit int64) *Broker {
	if b == nil {
		return NewBroker(name, limit)
	}
	if limit < 0 {
		limit = 0
	}
	return &Broker{name: name, parent: b, limit: limit}
}

// Name returns the broker's diagnostic name. Nil-safe.
func (b *Broker) Name() string {
	if b == nil {
		return ""
	}
	return b.name
}

// Limit returns the broker's own budget in bytes (0 = unlimited). Nil-safe.
func (b *Broker) Limit() int64 {
	if b == nil {
		return 0
	}
	return b.limit
}

// Used returns the bytes currently reserved at this level. Nil-safe.
func (b *Broker) Used() int64 {
	if b == nil {
		return 0
	}
	return b.used.Load()
}

// Peak returns the high-water mark of Used. Nil-safe.
func (b *Broker) Peak() int64 {
	if b == nil {
		return 0
	}
	return b.peak.Load()
}

// PressureEvents counts Grow calls through this broker that ended over
// budget (here or at an ancestor). Nil-safe.
func (b *Broker) PressureEvents() int64 {
	if b == nil {
		return 0
	}
	return b.pressureEvents.Load()
}

// Remaining returns the tightest headroom along the ancestor chain:
// min(limit - used) over every limited level. It is negative when some
// level is over budget and math.MaxInt64 when no level has a limit.
// Nil-safe.
func (b *Broker) Remaining() int64 {
	rem := int64(math.MaxInt64)
	for p := b; p != nil; p = p.parent {
		if p.limit > 0 {
			if r := p.limit - p.used.Load(); r < rem {
				rem = r
			}
		}
	}
	return rem
}

// OverBudget reports whether this broker or any ancestor is over its
// limit. Nil-safe.
func (b *Broker) OverBudget() bool {
	for p := b; p != nil; p = p.parent {
		if p.limit > 0 && p.used.Load() > p.limit {
			return true
		}
	}
	return false
}

// charge adds n bytes at this level and every ancestor, updating peaks,
// and reports whether the whole chain is still within budget. An
// over-budget grow counts a pressure event at the leaf.
func (b *Broker) charge(n int64) bool {
	ok := true
	for p := b; p != nil; p = p.parent {
		cur := p.used.Add(n)
		for {
			peak := p.peak.Load()
			if cur <= peak || p.peak.CompareAndSwap(peak, cur) {
				break
			}
		}
		if p.limit > 0 && cur > p.limit {
			ok = false
		}
	}
	if !ok && n > 0 {
		b.pressureEvents.Add(1)
	}
	return ok
}

// discharge subtracts n bytes at this level and every ancestor.
func (b *Broker) discharge(n int64) {
	for p := b; p != nil; p = p.parent {
		p.used.Add(-n)
	}
}

// Reserve opens a named reservation of n bytes against the broker. The
// bytes are charged immediately (see Grow for the over-budget contract).
// Every Reserve must be balanced by Release: the sorter keeps each
// reservation in the struct that owns the bytes and releases them all in its
// Close. On a nil broker it returns a nil *Reservation, whose methods are all
// no-ops. Nil-safe.
func (b *Broker) Reserve(name string, n int64) *Reservation {
	if b == nil {
		return nil
	}
	r := &Reservation{b: b, name: name}
	if n > 0 {
		r.Grow(n)
	}
	return r
}

// Reservation is one accounted slice of a broker's budget. Grow and
// Shrink adjust it as the owning phase allocates and frees; Release
// returns the whole balance. Reservations are safe for concurrent use.
type Reservation struct {
	b    *Broker
	name string
	n    atomic.Int64
}

// Bytes returns the reservation's current size. Nil-safe.
func (r *Reservation) Bytes() int64 {
	if r == nil {
		return 0
	}
	return r.n.Load()
}

// Grow charges n more bytes and reports whether every level of the broker
// chain is still within budget. The charge is recorded even when the
// answer is false — the caller has already allocated the memory, so the
// accounting must reflect reality; false is the signal to shed load
// (spill, flush early, shrink buffers) until the balance recovers.
// Negative n is treated as Shrink(-n). Nil-safe (returns true).
func (r *Reservation) Grow(n int64) bool {
	if r == nil || n == 0 {
		return true
	}
	if n < 0 {
		r.Shrink(-n)
		return true
	}
	r.n.Add(n)
	return r.b.charge(n)
}

// Shrink returns n bytes to the broker. Nil-safe.
func (r *Reservation) Shrink(n int64) {
	if r == nil || n <= 0 {
		return
	}
	r.n.Add(-n)
	r.b.discharge(n)
}

// SetTo grows or shrinks the reservation to exactly target bytes and
// reports whether the chain is within budget after the adjustment (always
// true when the adjustment only shrank). Nil-safe (returns true).
func (r *Reservation) SetTo(target int64) bool {
	if r == nil {
		return true
	}
	if target < 0 {
		target = 0
	}
	for {
		cur := r.n.Load()
		if cur == target {
			return !r.b.OverBudget()
		}
		if r.n.CompareAndSwap(cur, target) {
			if delta := target - cur; delta > 0 {
				return r.b.charge(delta)
			} else {
				r.b.discharge(-delta)
				return true
			}
		}
	}
}

// Release returns the reservation's whole balance to the broker. It is
// idempotent and nil-safe; a released reservation can keep being used
// (its balance simply restarts from zero), though conventionally Release
// ends the reservation's life.
func (r *Reservation) Release() {
	if r == nil {
		return
	}
	n := r.n.Swap(0)
	if n > 0 {
		r.b.discharge(n)
	} else if n < 0 {
		r.b.charge(-n)
	}
}
