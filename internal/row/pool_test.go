package row

import (
	"runtime"
	"testing"

	"rowsort/internal/mem"
	"rowsort/internal/vector"
)

func TestSetPoolAccountsCapacity(t *testing.T) {
	b := mem.NewBroker("test", 1<<20)
	res := b.Reserve("pool", 0)
	defer res.Release()
	layout := NewLayout([]vector.Type{vector.Int64, vector.Varchar})
	p := NewSetPool(layout, res)

	rs := p.Get()
	if rs == nil {
		t.Fatal("Get returned nil from a non-nil pool")
	}
	v := vector.NewDense(vector.Int64, 8)
	sv := vector.NewDense(vector.Varchar, 8)
	for i := 0; i < 8; i++ {
		v.Int64s()[i] = int64(i)
		sv.Strings()[i] = "some string payload"
	}
	if err := rs.AppendChunk([]*vector.Vector{v, sv}); err != nil {
		t.Fatal(err)
	}
	capBytes := rs.CapBytes()
	if capBytes <= 0 {
		t.Fatal("CapBytes of a filled set is zero")
	}

	p.Put(rs)
	if got := res.Bytes(); got != capBytes {
		t.Fatalf("pooled capacity accounted %d bytes, want %d", got, capBytes)
	}
	got := p.Get()
	if got != rs {
		t.Fatal("pool did not recycle the set")
	}
	if got.Len() != 0 {
		t.Fatal("recycled set not reset")
	}
	if res.Bytes() != 0 {
		t.Fatalf("reservation holds %d bytes after Get, want 0", res.Bytes())
	}
}

func TestSetPoolDropsUnderPressure(t *testing.T) {
	b := mem.NewBroker("test", 64) // tiny: retaining any real buffer overflows
	res := b.Reserve("pool", 0)
	defer res.Release()
	other := b.Reserve("hog", 60)
	defer other.Release()
	layout := NewLayout([]vector.Type{vector.Int64})
	p := NewSetPool(layout, res)

	rs := NewRowSet(layout)
	v := vector.NewDense(vector.Int64, 64)
	for i := 0; i < 64; i++ {
		v.Int64s()[i] = int64(i)
	}
	if err := rs.AppendChunk([]*vector.Vector{v}); err != nil {
		t.Fatal(err)
	}
	p.Put(rs)
	if got := res.Bytes(); got != 0 {
		t.Fatalf("pressure-dropped set left %d bytes accounted", got)
	}
	if got := p.Get(); got == rs {
		t.Fatal("pool retained a set it should have dropped under pressure")
	}
}

func TestBufPoolAccounting(t *testing.T) {
	b := mem.NewBroker("test", 1<<20)
	res := b.Reserve("pool", 0)
	defer res.Release()
	p := NewBufPool(res)
	buf := append(p.Get(), make([]byte, 1024)...)
	p.Put(buf)
	if got := res.Bytes(); got != int64(cap(buf)) {
		t.Fatalf("pooled buffer accounted %d bytes, want %d", got, cap(buf))
	}
	got := p.Get()
	if cap(got) != cap(buf) || len(got) != 0 {
		t.Fatalf("recycled buffer cap=%d len=%d, want cap=%d len=0", cap(got), len(got), cap(buf))
	}
	if res.Bytes() != 0 {
		t.Fatalf("reservation holds %d bytes after Get, want 0", res.Bytes())
	}
}

// TestPoolsSurviveGC is why the pools are free lists and not sync.Pools,
// which the runtime empties on every collection: what was parked comes
// back after two GC cycles, what the budget cannot hold is dropped, and the
// reservation is zero once everything is taken out again.
func TestPoolsSurviveGC(t *testing.T) {
	const bufCap = 4096
	layout := NewLayout([]vector.Type{vector.Int64})
	v := vector.NewDense(vector.Int64, 64)
	filled := func() *RowSet {
		rs := NewRowSet(layout)
		if err := rs.AppendChunk([]*vector.Vector{v}); err != nil {
			t.Fatal(err)
		}
		return rs
	}
	rs := filled()
	b := mem.NewBroker("test", rs.CapBytes()+bufCap)
	res := b.Reserve("pool", 0)
	defer res.Release()
	sets, bufs := NewSetPool(layout, res), NewBufPool(res)

	buf := make([]byte, 100, bufCap)
	sets.Put(rs)
	bufs.Put(buf)
	if got, want := res.Bytes(), rs.CapBytes()+bufCap; got != want {
		t.Fatalf("parked capacity accounted %d bytes, want %d", got, want)
	}
	// The budget is full: one more of either must be dropped, not parked.
	extra := filled()
	sets.Put(extra)
	bufs.Put(make([]byte, bufCap))
	if got, want := res.Bytes(), rs.CapBytes()+bufCap; got != want {
		t.Fatalf("after over-budget puts the reservation holds %d bytes, want %d", got, want)
	}

	runtime.GC()
	runtime.GC()

	if got := sets.Get(); got != rs {
		t.Error("the parked set did not survive two GC cycles")
	}
	if got := bufs.Get(); cap(got) != bufCap || len(got) != 0 || &got[:1][0] != &buf[0] {
		t.Error("the parked buffer did not survive two GC cycles")
	}
	if got := sets.Get(); got == extra || got.CapBytes() != 0 {
		t.Error("the pool retained a set it had no budget for")
	}
	if got := bufs.Get(); got != nil {
		t.Error("the pool retained a buffer it had no budget for")
	}
	if got := res.Bytes(); got != 0 {
		t.Errorf("reservation holds %d bytes with both pools empty, want 0", got)
	}

	// Drop is the explicit form of what the GC did to a sync.Pool, with
	// the books kept: everything idle goes, and so does its charge.
	sets.Put(rs)
	bufs.Put(buf)
	sets.Drop()
	bufs.Drop()
	if got := res.Bytes(); got != 0 {
		t.Errorf("reservation holds %d bytes after Drop, want 0", got)
	}
	if sets.Get() == rs || bufs.Get() != nil {
		t.Error("Drop left something in a pool")
	}
}

func TestNilPools(t *testing.T) {
	var sp *SetPool
	var bp *BufPool
	if sp.Get() != nil {
		t.Fatal("nil SetPool.Get returned a set")
	}
	sp.Put(NewRowSet(NewLayout([]vector.Type{vector.Int32})))
	if bp.Get() != nil {
		t.Fatal("nil BufPool.Get returned a buffer")
	}
	bp.Put(make([]byte, 4))
	sp.Drop()
	bp.Drop()
}

// TestBufPoolTrimKeepsTheNewest pins Trim: the oldest idle buffers go, with
// their charge, until the pool holds at most what it was told to keep, and
// the buffer parked last — the one the next Get returns — stays.
func TestBufPoolTrimKeepsTheNewest(t *testing.T) {
	b := mem.NewBroker("test", 1<<20)
	res := b.Reserve("pool", 0)
	defer res.Release()
	p := NewBufPool(res)
	bufs := [][]byte{make([]byte, 0, 100), make([]byte, 0, 200), make([]byte, 0, 300)}
	for _, buf := range bufs {
		p.Put(buf)
	}
	if gone, got := p.Trim(500), res.Bytes(); gone != 100 || got != 500 {
		t.Fatalf("Trim(500) let %d bytes go and left %d, want 100 and 500", gone, got)
	}
	if gone, got := p.Trim(499), res.Bytes(); gone != 200 || got != 300 {
		t.Fatalf("Trim(499) let %d bytes go and left %d, want 200 and 300", gone, got)
	}
	if got := p.Get(); cap(got) != 300 || &got[:1][0] != &bufs[2][:1][0] {
		t.Fatalf("Trim kept a buffer of %d bytes, want the last one parked", cap(got))
	}
	if got := p.Get(); got != nil || res.Bytes() != 0 {
		t.Fatalf("the pool still holds %d bytes after its last buffer was taken", res.Bytes())
	}
}

// TestPoolsPoisonWhatComesBack pins that under the race detector a key
// buffer put back is overwritten with PoisonByte over its whole capacity,
// and a set's rows and string heap too, so a reader that kept one past its
// release reads poison, not its rows.
func TestPoolsPoisonWhatComesBack(t *testing.T) {
	if !PoisonReleased {
		t.Skip("the pools poison only under the race detector")
	}
	buf := append(make([]byte, 0, 64), "key rows"...)
	NewBufPool(nil).Put(buf)
	for i, c := range buf[:cap(buf)] {
		if c != PoisonByte {
			t.Fatalf("a released key buffer holds %#x at %d, want %#x", c, i, PoisonByte)
		}
	}
	layout := NewLayout([]vector.Type{vector.Int64, vector.Varchar})
	rs := NewRowSet(layout)
	v, sv := vector.NewDense(vector.Int64, 4), vector.NewDense(vector.Varchar, 4)
	for i := range 4 {
		v.Int64s()[i] = int64(i)
		sv.Strings()[i] = "a string longer than its slot"
	}
	if err := rs.AppendChunk([]*vector.Vector{v, sv}); err != nil {
		t.Fatal(err)
	}
	data, heap := rs.data[:cap(rs.data)], rs.heap[:cap(rs.heap)]
	if len(heap) == 0 {
		t.Fatal("the set's strings left its heap empty")
	}
	NewSetPool(layout, nil).Put(rs)
	for _, b := range [][]byte{data, heap} {
		for i, c := range b {
			if c != PoisonByte {
				t.Fatalf("a released set holds %#x at %d, want %#x", c, i, PoisonByte)
			}
		}
	}
}
