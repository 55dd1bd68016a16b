package row

import (
	"bytes"
	"encoding/binary"
	"math"
	"math/rand"
	"testing"
	"testing/quick"

	"rowsort/internal/vector"
)

var allTypes = []vector.Type{
	vector.Bool, vector.Int8, vector.Int16, vector.Int32, vector.Int64,
	vector.Uint8, vector.Uint16, vector.Uint32, vector.Uint64,
	vector.Float32, vector.Float64, vector.Varchar,
}

func TestLayoutWidthsAndAlignment(t *testing.T) {
	l := NewLayout([]vector.Type{vector.Int32, vector.Int8})
	// 1 mask byte + 4 + 1 = 6, aligned to 8.
	if l.Width() != 8 {
		t.Fatalf("Width = %d, want 8", l.Width())
	}
	if l.Offset(0) != 1 || l.Offset(1) != 5 {
		t.Fatalf("offsets: %d %d", l.Offset(0), l.Offset(1))
	}
	unaligned := NewLayoutAligned([]vector.Type{vector.Int32, vector.Int8}, 1)
	if unaligned.Width() != 6 {
		t.Fatalf("unaligned Width = %d, want 6", unaligned.Width())
	}
	if l.NumColumns() != 2 || len(l.Types()) != 2 {
		t.Fatal("column accessors broken")
	}
}

func TestLayoutManyColumnsMask(t *testing.T) {
	types := make([]vector.Type, 17) // needs 3 mask bytes
	for i := range types {
		types[i] = vector.Int8
	}
	l := NewLayoutAligned(types, 1)
	if l.maskBytes != 3 {
		t.Fatalf("maskBytes = %d, want 3", l.maskBytes)
	}
	if l.Width() != 3+17 {
		t.Fatalf("Width = %d", l.Width())
	}
}

func TestLayoutPanics(t *testing.T) {
	mustPanic := func(f func()) {
		t.Helper()
		defer func() {
			if recover() == nil {
				t.Fatal("expected panic")
			}
		}()
		f()
	}
	mustPanic(func() { NewLayoutAligned([]vector.Type{vector.Int32}, 3) })
	mustPanic(func() { NewLayoutAligned([]vector.Type{vector.Int32}, 0) })
	mustPanic(func() { NewLayout([]vector.Type{vector.Invalid}) })
}

// buildRandomChunk builds one vector per type in types with n rows.
func buildRandomChunk(types []vector.Type, n int, nullRate float64, rng *rand.Rand) []*vector.Vector {
	vecs := make([]*vector.Vector, len(types))
	for c, typ := range types {
		v := vector.New(typ, n)
		for r := 0; r < n; r++ {
			if rng.Float64() < nullRate {
				v.AppendNull()
				continue
			}
			switch typ {
			case vector.Bool:
				v.AppendBool(rng.Intn(2) == 1)
			case vector.Int8:
				v.AppendInt8(int8(rng.Uint32()))
			case vector.Int16:
				v.AppendInt16(int16(rng.Uint32()))
			case vector.Int32:
				v.AppendInt32(int32(rng.Uint32()))
			case vector.Int64:
				v.AppendInt64(int64(rng.Uint64()))
			case vector.Uint8:
				v.AppendUint8(uint8(rng.Uint32()))
			case vector.Uint16:
				v.AppendUint16(uint16(rng.Uint32()))
			case vector.Uint32:
				v.AppendUint32(rng.Uint32())
			case vector.Uint64:
				v.AppendUint64(rng.Uint64())
			case vector.Float32:
				v.AppendFloat32(rng.Float32() * 100)
			case vector.Float64:
				v.AppendFloat64(rng.Float64() * 100)
			case vector.Varchar:
				b := make([]byte, rng.Intn(20))
				for i := range b {
					b[i] = byte('a' + rng.Intn(26))
				}
				v.AppendString(string(b))
			}
		}
		vecs[c] = v
	}
	return vecs
}

func TestScatterGatherRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(31))
	layout := NewLayout(allTypes)
	rs := NewRowSet(layout)

	var chunks [][]*vector.Vector
	total := 0
	for _, n := range []int{7, 100, 1} {
		c := buildRandomChunk(allTypes, n, 0.2, rng)
		chunks = append(chunks, c)
		if err := rs.AppendChunk(c); err != nil {
			t.Fatal(err)
		}
		total += n
	}
	if rs.Len() != total {
		t.Fatalf("Len = %d, want %d", rs.Len(), total)
	}

	got := rs.GatherChunk(0, total)
	r := 0
	for _, chunk := range chunks {
		for i := 0; i < chunk[0].Len(); i++ {
			for c := range allTypes {
				want := chunk[c].Value(i)
				have := got[c].Value(r)
				if want != have {
					t.Fatalf("row %d col %d (%v): got %v, want %v", r, c, allTypes[c], have, want)
				}
			}
			r++
		}
	}
}

// TestViewRowSetRoundTrip serializes a set and views it back in place: the
// same rows, values and strings, aliasing the buffer; and anything that is
// not exactly one serialized set — cut short, padded, a row count that does
// not match its bytes — is an error, not a set.
func TestViewRowSetRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(32))
	layout := NewLayout(allTypes)
	rs := NewRowSet(layout)
	if err := rs.AppendChunk(buildRandomChunk(allTypes, 200, 0.2, rng)); err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if _, err := rs.WriteTo(&buf); err != nil {
		t.Fatal(err)
	}
	raw := buf.Bytes()
	view, err := ViewRowSet(raw, layout)
	if err != nil {
		t.Fatal(err)
	}
	if view.Len() != rs.Len() || !bytes.Equal(view.Bytes(), rs.Bytes()) {
		t.Fatalf("viewed %d rows, want %d with the same bytes", view.Len(), rs.Len())
	}
	want, got := rs.GatherChunk(0, rs.Len()), view.GatherChunk(0, view.Len())
	for c := range allTypes {
		for i := 0; i < rs.Len(); i++ {
			if want[c].Value(i) != got[c].Value(i) {
				t.Fatalf("row %d col %d: got %v, want %v", i, c, got[c].Value(i), want[c].Value(i))
			}
		}
	}
	if &view.Bytes()[0] != &raw[20] {
		t.Error("the view copied its rows")
	}

	short := bytes.Clone(raw)
	binary.LittleEndian.PutUint32(short[4:], uint32(rs.Len()-1))
	for name, bad := range map[string][]byte{
		"no header":       raw[:10],
		"cut short":       raw[:len(raw)-1],
		"padded":          append(bytes.Clone(raw), 0),
		"bad magic":       append([]byte{0}, raw[1:]...),
		"row count short": short,
	} {
		if _, err := ViewRowSet(bad, layout); err == nil {
			t.Errorf("%s: viewed without an error", name)
		}
	}
}

func TestGatherIndexedPermutation(t *testing.T) {
	rng := rand.New(rand.NewSource(32))
	types := []vector.Type{vector.Int32, vector.Varchar}
	layout := NewLayout(types)
	rs := NewRowSet(layout)
	chunk := buildRandomChunk(types, 50, 0.1, rng)
	if err := rs.AppendChunk(chunk); err != nil {
		t.Fatal(err)
	}
	perm := rng.Perm(50)
	idxs := make([]uint32, len(perm))
	for i, p := range perm {
		idxs[i] = uint32(p)
	}
	got := gatherIndex(rs, idxs)
	for out, in := range perm {
		for c := range types {
			if chunk[c].Value(in) != got[c].Value(out) {
				t.Fatalf("perm gather wrong at out=%d in=%d col=%d", out, in, c)
			}
		}
	}
}

func TestValueAndStringAccessors(t *testing.T) {
	types := []vector.Type{vector.Varchar, vector.Float64}
	rs := NewRowSet(NewLayout(types))
	s := vector.New(vector.Varchar, 2)
	s.AppendString("hello world")
	s.AppendNull()
	f := vector.New(vector.Float64, 2)
	f.AppendFloat64(math.Pi)
	f.AppendFloat64(-1)
	if err := rs.AppendChunk([]*vector.Vector{s, f}); err != nil {
		t.Fatal(err)
	}
	if rs.String(0, 0) != "hello world" {
		t.Fatalf("String = %q", rs.String(0, 0))
	}
	if rs.Value(0, 1) != math.Pi {
		t.Fatalf("Value = %v", rs.Value(0, 1))
	}
	if rs.Value(1, 0) != nil || rs.Valid(1, 0) {
		t.Fatal("NULL string should report nil/invalid")
	}
	if rs.Value(1, 1) != float64(-1) {
		t.Fatal("float -1 wrong")
	}
}

func TestAppendChunkErrors(t *testing.T) {
	rs := NewRowSet(NewLayout([]vector.Type{vector.Int32}))
	if err := rs.AppendChunk(nil); err == nil {
		t.Fatal("wrong arity should error")
	}
	wrong := vector.New(vector.Varchar, 1)
	wrong.AppendString("x")
	if err := rs.AppendChunk([]*vector.Vector{wrong}); err == nil {
		t.Fatal("type mismatch should error")
	}
	a := vector.New(vector.Int32, 1)
	a.AppendInt32(1)
	rs2 := NewRowSet(NewLayout([]vector.Type{vector.Int32, vector.Int32}))
	b := vector.New(vector.Int32, 2)
	b.AppendInt32(1)
	b.AppendInt32(2)
	if err := rs2.AppendChunk([]*vector.Vector{a, b}); err == nil {
		t.Fatal("ragged chunk should error")
	}
	// Empty chunk is fine.
	empty := vector.New(vector.Int32, 0)
	if err := rs.AppendChunk([]*vector.Vector{empty}); err != nil {
		t.Fatal(err)
	}
	if rs.Len() != 0 {
		t.Fatal("empty append should not add rows")
	}
}

// TestRowsOfNoColumns pins a layout of no columns — a sort whose keys hold
// every column — as rows of no bytes that are still counted: the scatter
// appends as many as it is told, the two reorders as many as they are named —
// out of sets that need not exist, as an inline payload's spill blocks name
// theirs — a gather resolves them into no vectors, and a set of them
// serializes and views back with its count.
func TestRowsOfNoColumns(t *testing.T) {
	l := NewLayout(nil)
	if l.Width() != 0 || l.NumColumns() != 0 {
		t.Fatalf("a layout of no columns is %d bytes and %d columns", l.Width(), l.NumColumns())
	}
	rs := NewRowSet(l)
	rs.Reserve(100)
	if err := rs.AppendChunkKeyed(5, nil, nil, 0); err != nil {
		t.Fatal(err)
	}
	if err := rs.AppendChunk(nil); err != nil {
		t.Fatal(err)
	}
	if rs.Len() != 5 || rs.MemSize() != 0 || rs.Cap() < rs.Len() {
		t.Fatalf("%d rows in %d bytes, room for %d; want 5 in none", rs.Len(), rs.MemSize(), rs.Cap())
	}
	idxs, which := []uint32{4, 0, 3, 1, 2}, []uint32{1, 0, 1, 0, 0}
	permuted, gathered := NewRowSet(l), NewRowSet(l)
	permuted.AppendPermuted(rs, idxs)
	gathered.AppendRowsGather([]*RowSet{rs, permuted}, which, idxs)
	gathered.AppendRowsGather([]*RowSet{rs}, nil, idxs[:2])
	if permuted.Len() != 5 || gathered.Len() != 7 {
		t.Fatalf("reorders of 5 and 7 rows made %d and %d", permuted.Len(), gathered.Len())
	}
	absent := NewRowSet(l)
	absent.AppendRowsGather([]*RowSet{nil, nil}, which, idxs)
	if absent.Len() != 5 {
		t.Fatalf("a reorder of 5 rows out of no set made %d", absent.Len())
	}
	g := NewGather(l)
	g.Refs([]*RowSet{rs, permuted}, which, idxs, nil)
	if vecs := g.Vectors(); len(vecs) != 0 {
		t.Fatalf("a gather of no columns made %d vectors", len(vecs))
	}
	if vecs := gathered.GatherChunk(2, 3); len(vecs) != 0 {
		t.Fatalf("a gather of no columns made %d vectors", len(vecs))
	}
	var b bytes.Buffer
	if _, err := gathered.WriteTo(&b); err != nil {
		t.Fatal(err)
	}
	back, err := ViewRowSet(b.Bytes(), l)
	if err != nil {
		t.Fatal(err)
	}
	if back.Len() != 7 {
		t.Fatalf("viewed back %d rows, wrote 7", back.Len())
	}
}

func TestRowBytesLayout(t *testing.T) {
	// A single Uint32 column: row = [mask][u32][pad...]; check raw bytes.
	l := NewLayout([]vector.Type{vector.Uint32})
	rs := NewRowSet(l)
	v := vector.New(vector.Uint32, 1)
	v.AppendUint32(0x01020304)
	if err := rs.AppendChunk([]*vector.Vector{v}); err != nil {
		t.Fatal(err)
	}
	r := rs.Row(0)
	if len(r) != 8 {
		t.Fatalf("row len = %d", len(r))
	}
	if r[0] != 0x01 { // mask: col 0 valid
		t.Fatalf("mask byte = %x", r[0])
	}
	if r[1] != 0x04 || r[4] != 0x01 { // little-endian value
		t.Fatalf("value bytes = %x", r[1:5])
	}
}

func TestReserve(t *testing.T) {
	rs := NewRowSet(NewLayout([]vector.Type{vector.Int64}))
	rs.Reserve(1000)
	if cap(rs.data) < 1000*rs.layout.Width() {
		t.Fatal("Reserve did not grow capacity")
	}
	v := vector.New(vector.Int64, 1)
	v.AppendInt64(7)
	if err := rs.AppendChunk([]*vector.Vector{v}); err != nil {
		t.Fatal(err)
	}
	if rs.Value(0, 0) != int64(7) {
		t.Fatal("append after Reserve broken")
	}
}

func TestQuickRoundTripInt64(t *testing.T) {
	layout := NewLayout([]vector.Type{vector.Int64})
	f := func(vals []int64) bool {
		rs := NewRowSet(layout)
		v := vector.New(vector.Int64, len(vals))
		for _, x := range vals {
			v.AppendInt64(x)
		}
		if err := rs.AppendChunk([]*vector.Vector{v}); err != nil {
			return false
		}
		out := rs.GatherChunk(0, len(vals))
		for i, x := range vals {
			if out[0].Value(i) != x {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}
