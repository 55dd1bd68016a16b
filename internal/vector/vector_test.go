package vector

import (
	"testing"
	"testing/quick"
)

func TestTypeWidths(t *testing.T) {
	cases := []struct {
		typ   Type
		width int
	}{
		{Bool, 1}, {Int8, 1}, {Uint8, 1},
		{Int16, 2}, {Uint16, 2},
		{Int32, 4}, {Uint32, 4}, {Float32, 4},
		{Int64, 8}, {Uint64, 8}, {Float64, 8},
		{Varchar, 8},
	}
	for _, c := range cases {
		if got := c.typ.Width(); got != c.width {
			t.Errorf("%v.Width() = %d, want %d", c.typ, got, c.width)
		}
	}
	if Invalid.Width() != 0 {
		t.Errorf("Invalid.Width() = %d, want 0", Invalid.Width())
	}
}

func TestTypePredicates(t *testing.T) {
	if !Int32.IsNumeric() || !Float64.IsNumeric() {
		t.Error("Int32/Float64 should be numeric")
	}
	if Varchar.IsNumeric() || Bool.IsNumeric() {
		t.Error("Varchar/Bool should not be numeric")
	}
	if Varchar.IsFixedWidth() {
		t.Error("Varchar should not be fixed width")
	}
	if !Int64.IsFixedWidth() {
		t.Error("Int64 should be fixed width")
	}
	if Invalid.IsValid() || Type(200).IsValid() {
		t.Error("Invalid/out-of-range should not be valid")
	}
	if !Uint32.IsValid() {
		t.Error("Uint32 should be valid")
	}
}

func TestTypeString(t *testing.T) {
	if Int32.String() != "INTEGER" {
		t.Errorf("Int32.String() = %q", Int32.String())
	}
	if Varchar.String() != "VARCHAR" {
		t.Errorf("Varchar.String() = %q", Varchar.String())
	}
	if Type(99).String() == "" {
		t.Error("out-of-range type should still stringify")
	}
}

func TestBitmapBasics(t *testing.T) {
	bm := NewBitmap(130)
	if bm.Len() != 130 {
		t.Fatalf("Len = %d", bm.Len())
	}
	if !bm.AllValid() {
		t.Fatal("new bitmap should be all valid")
	}
	bm.SetNull(0)
	bm.SetNull(64)
	bm.SetNull(129)
	if bm.Valid(0) || bm.Valid(64) || bm.Valid(129) {
		t.Fatal("SetNull did not take effect")
	}
	if bm.Valid(1) == false {
		t.Fatal("row 1 should still be valid")
	}
	if got := bm.CountNull(); got != 3 {
		t.Fatalf("CountNull = %d, want 3", got)
	}
	bm.SetValid(64)
	if !bm.Valid(64) {
		t.Fatal("SetValid did not take effect")
	}
	if got := bm.CountNull(); got != 2 {
		t.Fatalf("CountNull = %d, want 2", got)
	}
}

func TestBitmapNextNullStopsAtLen(t *testing.T) {
	bm := NewBitmap(130)
	bm.SetNull(129)
	bm.Resize(129) // the NULL bit is past the end now
	if got := bm.NextNull(0); got != -1 {
		t.Fatalf("NextNull = %d past a bitmap of %d rows", got, bm.Len())
	}
	var none *Bitmap
	if none.NextNull(0) != -1 || new(Bitmap).NextNull(0) != -1 {
		t.Fatal("nil and zero bitmaps have no NULL rows")
	}
}

func TestBitmapNilTreatsAllValid(t *testing.T) {
	var bm *Bitmap
	if !bm.Valid(12345) {
		t.Fatal("nil bitmap should report valid")
	}
	if !bm.AllValid() {
		t.Fatal("nil bitmap should be all valid")
	}
	if bm.CountNull() != 0 {
		t.Fatal("nil bitmap should count 0 nulls")
	}
	if bm.Clone() != nil {
		t.Fatal("clone of nil bitmap should be nil")
	}
}

func TestBitmapResizePreservesAndDefaultsValid(t *testing.T) {
	bm := NewBitmap(10)
	bm.SetNull(3)
	bm.Resize(100)
	if bm.Valid(3) {
		t.Fatal("resize lost null at 3")
	}
	for i := 10; i < 100; i++ {
		if !bm.Valid(i) {
			t.Fatalf("new row %d should default valid", i)
		}
	}
}

func TestBitmapClone(t *testing.T) {
	bm := NewBitmap(70)
	bm.SetNull(5)
	cp := bm.Clone()
	cp.SetNull(6)
	if bm.Valid(5) || !bm.Valid(6) {
		t.Fatal("clone should not alias original")
	}
	if cp.Valid(5) || cp.Valid(6) {
		t.Fatal("clone should carry nulls and accept new ones")
	}
}

func TestBitmapQuickCountNull(t *testing.T) {
	f := func(nulls []uint16) bool {
		const n = 1 << 12
		bm := NewBitmap(n)
		seen := map[int]bool{}
		for _, x := range nulls {
			i := int(x) % n
			bm.SetNull(i)
			seen[i] = true
		}
		// NextNull visits exactly the NULL rows, in order.
		visited, last := 0, -1
		for i := bm.NextNull(0); i >= 0; i = bm.NextNull(i + 1) {
			if !seen[i] || i <= last {
				return false
			}
			visited, last = visited+1, i
		}
		return bm.CountNull() == len(seen) && visited == len(seen)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestVectorAppendAndAccessors(t *testing.T) {
	v := New(Int32, 4)
	v.AppendInt32(3)
	v.AppendInt32(-7)
	v.AppendNull()
	if v.Len() != 3 {
		t.Fatalf("Len = %d", v.Len())
	}
	if got := v.Int32s(); got[0] != 3 || got[1] != -7 {
		t.Fatalf("Int32s = %v", got)
	}
	if v.Valid(2) {
		t.Fatal("row 2 should be NULL")
	}
	if v.Value(2) != nil {
		t.Fatal("Value of NULL row should be nil")
	}
	if v.Value(1).(int32) != -7 {
		t.Fatalf("Value(1) = %v", v.Value(1))
	}
}

func TestVectorAllTypesRoundTrip(t *testing.T) {
	type appendGet struct {
		typ Type
		add func(v *Vector)
		val any
	}
	cases := []appendGet{
		{Bool, func(v *Vector) { v.AppendBool(true) }, true},
		{Int8, func(v *Vector) { v.AppendInt8(-8) }, int8(-8)},
		{Int16, func(v *Vector) { v.AppendInt16(-16) }, int16(-16)},
		{Int32, func(v *Vector) { v.AppendInt32(-32) }, int32(-32)},
		{Int64, func(v *Vector) { v.AppendInt64(-64) }, int64(-64)},
		{Uint8, func(v *Vector) { v.AppendUint8(8) }, uint8(8)},
		{Uint16, func(v *Vector) { v.AppendUint16(16) }, uint16(16)},
		{Uint32, func(v *Vector) { v.AppendUint32(32) }, uint32(32)},
		{Uint64, func(v *Vector) { v.AppendUint64(64) }, uint64(64)},
		{Float32, func(v *Vector) { v.AppendFloat32(1.5) }, float32(1.5)},
		{Float64, func(v *Vector) { v.AppendFloat64(2.5) }, 2.5},
		{Varchar, func(v *Vector) { v.AppendString("hi") }, "hi"},
	}
	for _, c := range cases {
		v := New(c.typ, 2)
		c.add(v)
		v.AppendNull()
		if got := v.Value(0); got != c.val {
			t.Errorf("%v: Value(0) = %v, want %v", c.typ, got, c.val)
		}
		if v.Value(1) != nil {
			t.Errorf("%v: Value(1) should be nil", c.typ)
		}
	}
}

func TestVectorTypeMismatchPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic on type mismatch")
		}
	}()
	v := New(Int32, 1)
	v.Uint32s()
}

func TestVectorWrappers(t *testing.T) {
	u := FromUint32([]uint32{1, 2, 3})
	if u.Type() != Uint32 || u.Len() != 3 || u.Uint32s()[2] != 3 {
		t.Fatal("FromUint32 wrap broken")
	}
	i := FromInt32([]int32{-1})
	if i.Type() != Int32 || i.Len() != 1 {
		t.Fatal("FromInt32 wrap broken")
	}
	f := FromFloat32([]float32{0.5})
	if f.Type() != Float32 || f.Len() != 1 {
		t.Fatal("FromFloat32 wrap broken")
	}
	s := FromStrings([]string{"a", "b"})
	if s.Type() != Varchar || s.Len() != 2 {
		t.Fatal("FromStrings wrap broken")
	}
}

func TestChunkAndTable(t *testing.T) {
	schema := Schema{{"a", Int32}, {"b", Varchar}}
	c := NewChunk(schema, 4)
	c.Vectors[0].AppendInt32(1)
	c.Vectors[0].AppendInt32(2)
	c.Vectors[1].AppendString("x")
	c.Vectors[1].AppendString("y")
	if err := c.Verify(); err != nil {
		t.Fatal(err)
	}
	if c.Len() != 2 || c.NumColumns() != 2 {
		t.Fatalf("Len=%d cols=%d", c.Len(), c.NumColumns())
	}

	tbl := NewTable(schema)
	if err := tbl.AppendChunk(c); err != nil {
		t.Fatal(err)
	}
	c2 := NewChunk(schema, 4)
	c2.Vectors[0].AppendInt32(3)
	c2.Vectors[1].AppendNull()
	if err := tbl.AppendChunk(c2); err != nil {
		t.Fatal(err)
	}
	if tbl.NumRows() != 3 {
		t.Fatalf("NumRows = %d", tbl.NumRows())
	}
	col := tbl.Column(1)
	if col.Len() != 3 || col.Value(0) != "x" || col.Value(2) != nil {
		t.Fatalf("Column gather wrong: %v %v %v", col.Value(0), col.Value(1), col.Value(2))
	}
}

func TestChunkVerifyMismatch(t *testing.T) {
	schema := Schema{{"a", Int32}, {"b", Int32}}
	c := NewChunk(schema, 2)
	c.Vectors[0].AppendInt32(1)
	if err := c.Verify(); err == nil {
		t.Fatal("expected ragged chunk to fail Verify")
	}
}

func TestTableAppendChunkErrors(t *testing.T) {
	schema := Schema{{"a", Int32}}
	tbl := NewTable(schema)
	wrongCols := &Chunk{Vectors: []*Vector{New(Int32, 1), New(Int32, 1)}}
	if err := tbl.AppendChunk(wrongCols); err == nil {
		t.Fatal("expected column-count error")
	}
	wrongType := &Chunk{Vectors: []*Vector{New(Varchar, 1)}}
	if err := tbl.AppendChunk(wrongType); err == nil {
		t.Fatal("expected type error")
	}
}

func TestTableFromColumns(t *testing.T) {
	schema := Schema{{"k", Uint32}}
	tbl, err := TableFromColumns(schema, FromUint32([]uint32{5, 6}))
	if err != nil {
		t.Fatal(err)
	}
	if tbl.NumRows() != 2 {
		t.Fatalf("NumRows = %d", tbl.NumRows())
	}
	if _, err := TableFromColumns(schema); err == nil {
		t.Fatal("expected arity error")
	}
}

func TestSchemaHelpers(t *testing.T) {
	s := Schema{{"a", Int32}, {"b", Varchar}}
	if s.IndexOf("b") != 1 || s.IndexOf("zzz") != -1 {
		t.Fatal("IndexOf broken")
	}
	ts := s.Types()
	if len(ts) != 2 || ts[0] != Int32 || ts[1] != Varchar {
		t.Fatal("Types broken")
	}
}
