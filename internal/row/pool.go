package row

import (
	"sync"

	"rowsort/internal/mem"
)

// Pooled allocation routed through the memory broker: the sorter's hot
// buffers (key rows and payload RowSets released by flushed, spilled and
// merged runs) are recycled through these pools, and the capacity a pool
// holds on to is charged against a mem.Reservation. That keeps idle pool
// memory visible to the budget — and gives the pool its degradation
// policy for free: when retaining a buffer would push the broker over
// budget, the pool drops it for the garbage collector instead of keeping
// it warm.
//
// The pools are plain free lists, not sync.Pools: the runtime empties a
// sync.Pool on every GC cycle, and a sort that allocates hundreds of
// megabytes runs many cycles, so a spilled run's buffers would rarely
// survive until the next run asks for them. What bounds a free list is the
// reservation (under a budget) and the life of the sorter that owns it.

// PoisonByte is what a released buffer holds when PoisonReleased is set.
const PoisonByte = 0xA5

// poison overwrites b's whole capacity with PoisonByte when PoisonReleased
// is set.
func poison(b []byte) {
	if PoisonReleased {
		b = b[:cap(b)]
		for i := range b {
			b[i] = PoisonByte
		}
	}
}

// freeList is the accounted LIFO both pools share. size reports the
// capacity an item holds on to.
type freeList[T any] struct {
	res  *mem.Reservation
	size func(T) int64

	mu    sync.Mutex
	idle  []T
	bytes int64 // the capacity idle holds
}

// get pops the most recently parked item and takes its bytes off the
// reservation.
func (f *freeList[T]) get() (v T, ok bool) {
	f.mu.Lock()
	if n := len(f.idle); n > 0 {
		var zero T
		v, ok = f.idle[n-1], true
		f.idle[n-1] = zero
		f.idle = f.idle[:n-1]
		f.bytes -= f.size(v)
	}
	f.mu.Unlock()
	if ok {
		f.res.Shrink(f.size(v))
	}
	return v, ok
}

// put parks v, charging its capacity to the reservation — unless that
// lands over budget, in which case v is left to the garbage collector.
func (f *freeList[T]) put(v T) {
	c := f.size(v)
	if !f.res.Grow(c) {
		f.res.Shrink(c)
		return
	}
	f.mu.Lock()
	f.idle = append(f.idle, v)
	f.bytes += c
	f.mu.Unlock()
}

// trim leaves the oldest parked items to the garbage collector, taking them
// off the reservation, until what the list holds is at most keep bytes, and
// returns the bytes it let go.
func (f *freeList[T]) trim(keep int64) int64 {
	f.mu.Lock()
	var gone int64
	n := 0
	for ; n < len(f.idle) && f.bytes-gone > keep; n++ {
		gone += f.size(f.idle[n])
	}
	f.idle = f.idle[:copy(f.idle, f.idle[n:])]
	clear(f.idle[len(f.idle):cap(f.idle)])
	f.bytes -= gone
	f.mu.Unlock()
	f.res.Shrink(gone)
	return gone
}

// SetPool recycles RowSets of one layout. The zero value is unusable;
// construct with NewSetPool. A nil *SetPool is a valid no-op source: Get
// returns nil (the caller allocates) and Put discards.
type SetPool struct {
	layout *Layout
	list   freeList[*RowSet]
}

// NewSetPool returns a pool producing RowSets with the given layout. res
// (which may be nil for unaccounted pooling) is charged with the capacity
// of every idle set the pool holds.
func NewSetPool(layout *Layout, res *mem.Reservation) *SetPool {
	return &SetPool{layout: layout, list: freeList[*RowSet]{res: res, size: (*RowSet).CapBytes}}
}

// Get returns an empty RowSet, recycled when one is pooled.
func (p *SetPool) Get() *RowSet {
	if p == nil {
		return nil
	}
	if rs, ok := p.list.get(); ok {
		return rs
	}
	return NewRowSet(p.layout)
}

// Put recycles a set whose contents are dead — its rows and string heap
// poisoned first under the race detector. Under budget pressure the set is
// dropped instead of pooled, returning its capacity to the GC.
func (p *SetPool) Put(rs *RowSet) {
	if p == nil || rs == nil {
		return
	}
	poison(rs.data)
	poison(rs.heap)
	rs.Reset()
	p.list.put(rs)
}

// Drop releases every idle set — the cheapest memory a sorter over its
// budget can give back — and returns the bytes they held.
func (p *SetPool) Drop() int64 {
	if p == nil {
		return 0
	}
	return p.list.trim(0)
}

// BufPool recycles byte buffers (the sorter's key-row buffers) with the
// same accounting and pressure policy as SetPool. A nil *BufPool always
// allocates and never retains.
type BufPool struct {
	list freeList[[]byte]
}

// NewBufPool returns a buffer pool charging res (may be nil) with the
// capacity of every idle buffer it holds.
func NewBufPool(res *mem.Reservation) *BufPool {
	return &BufPool{list: freeList[[]byte]{res: res, size: func(b []byte) int64 { return int64(cap(b)) }}}
}

// Get returns an empty (length-0) buffer, recycled when one is pooled.
func (p *BufPool) Get() []byte {
	if p == nil {
		return nil
	}
	b, _ := p.list.get()
	return b
}

// Put recycles a buffer whose contents are dead — poisoned first under the
// race detector; under budget pressure it is dropped instead.
func (p *BufPool) Put(b []byte) {
	if p == nil || cap(b) == 0 {
		return
	}
	poison(b)
	p.list.put(b[:0])
}

// Drop releases every idle buffer, as SetPool.Drop does.
func (p *BufPool) Drop() int64 { return p.Trim(0) }

// Trim releases the oldest idle buffers until the pool holds at most keep
// bytes — a sorter keeps what its sinks will take and gives back the rest —
// and returns the bytes it released.
func (p *BufPool) Trim(keep int64) int64 {
	if p == nil {
		return 0
	}
	return p.list.trim(keep)
}
