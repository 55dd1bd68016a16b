package normkey

import (
	"bytes"
	"math"
	"math/rand"
	"testing"

	"rowsort/internal/vector"
)

// encodeTuples encodes all rows of cols under keys, one key row per tuple.
func encodeTuples(t *testing.T, keys []SortKey, cols []*vector.Vector) (*Encoder, []byte) {
	t.Helper()
	e, err := NewEncoder(keys)
	if err != nil {
		t.Fatal(err)
	}
	n := cols[0].Len()
	out := make([]byte, n*e.Width())
	if err := e.Encode(cols, out, e.Width(), 0); err != nil {
		t.Fatal(err)
	}
	return e, out
}

func keyRow(out []byte, width, i int) []byte { return out[i*width : (i+1)*width] }

// randomVector builds a vector of n random values of type t, with nulls at
// the given rate. Strings are short, NUL-free and within the prefix unless
// longStrings is set.
func randomVector(t vector.Type, n int, nullRate float64, longStrings bool, rng *rand.Rand) *vector.Vector {
	v := vector.New(t, n)
	letters := "abcdefghijklmnopqrstuvwxyz"
	for i := 0; i < n; i++ {
		if rng.Float64() < nullRate {
			v.AppendNull()
			continue
		}
		switch t {
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
			v.AppendFloat32(pickFloat32(rng))
		case vector.Float64:
			v.AppendFloat64(pickFloat64(rng))
		case vector.Varchar:
			maxLen := 8
			if longStrings {
				maxLen = 30
			}
			l := rng.Intn(maxLen + 1)
			b := make([]byte, l)
			for j := range b {
				b[j] = letters[rng.Intn(3)] // few letters => many shared prefixes
			}
			v.AppendString(string(b))
		}
	}
	return v
}

func pickFloat32(rng *rand.Rand) float32 {
	switch rng.Intn(8) {
	case 0:
		return 0
	case 1:
		return float32(math.Copysign(0, -1))
	case 2:
		return float32(math.Inf(1))
	case 3:
		return float32(math.Inf(-1))
	case 4:
		return float32(math.NaN())
	default:
		return (rng.Float32() - 0.5) * 1e9
	}
}

func pickFloat64(rng *rand.Rand) float64 {
	switch rng.Intn(8) {
	case 0:
		return 0
	case 1:
		return math.Copysign(0, -1)
	case 2:
		return math.Inf(1)
	case 3:
		return math.Inf(-1)
	case 4:
		return math.NaN()
	default:
		return (rng.Float64() - 0.5) * 1e18
	}
}

func sign(x int) int {
	switch {
	case x < 0:
		return -1
	case x > 0:
		return 1
	}
	return 0
}

var fixedTypes = []vector.Type{
	vector.Bool, vector.Int8, vector.Int16, vector.Int32, vector.Int64,
	vector.Uint8, vector.Uint16, vector.Uint32, vector.Uint64,
	vector.Float32, vector.Float64,
}

func TestEncoderWidth(t *testing.T) {
	e, err := NewEncoder([]SortKey{
		{Type: vector.Int32},
		{Type: vector.Varchar},
		{Type: vector.Varchar, PrefixLen: 4},
		{Type: vector.Uint8},
	})
	if err != nil {
		t.Fatal(err)
	}
	// A varchar's segment is its validity byte, its prefix and its residence byte.
	want := (1 + 4) + (1 + DefaultStringPrefixLen + 1) + (1 + 4 + 1) + (1 + 1)
	if e.Width() != want {
		t.Fatalf("Width = %d, want %d", e.Width(), want)
	}
	if e.Offset(0) != 0 || e.Offset(1) != 5 || e.Offset(2) != 5+14 {
		t.Fatalf("offsets wrong: %d %d %d", e.Offset(0), e.Offset(1), e.Offset(2))
	}
	if !e.TiesPossible() {
		t.Fatal("varchar keys should make ties possible")
	}
	if len(e.Keys()) != 4 {
		t.Fatal("Keys() should return the spec")
	}
}

func TestNewEncoderErrors(t *testing.T) {
	if _, err := NewEncoder(nil); err == nil {
		t.Fatal("empty keys should error")
	}
	if _, err := NewEncoder([]SortKey{{Type: vector.Invalid}}); err == nil {
		t.Fatal("invalid type should error")
	}
}

func TestOrderPreservationPerType(t *testing.T) {
	rng := rand.New(rand.NewSource(21))
	for _, typ := range fixedTypes {
		for _, order := range []Order{Ascending, Descending} {
			for _, nulls := range []NullOrder{NullsFirst, NullsLast} {
				keys := []SortKey{{Type: typ, Order: order, Nulls: nulls}}
				col := randomVector(typ, 200, 0.15, false, rng)
				cols := []*vector.Vector{col}
				e, out := encodeTuples(t, keys, cols)
				for trial := 0; trial < 500; trial++ {
					i, j := rng.Intn(200), rng.Intn(200)
					want := sign(CompareRows(keys, cols, i, j))
					got := sign(bytes.Compare(keyRow(out, e.Width(), i), keyRow(out, e.Width(), j)))
					if got != want {
						t.Fatalf("%v %v %v: rows %d(%v) vs %d(%v): key cmp %d, oracle %d",
							typ, order, nulls, i, col.Value(i), j, col.Value(j), got, want)
					}
				}
			}
		}
	}
}

func TestOrderPreservationMultiKey(t *testing.T) {
	rng := rand.New(rand.NewSource(22))
	keys := []SortKey{
		{Type: vector.Int16, Order: Descending, Nulls: NullsLast},
		{Type: vector.Float64, Order: Ascending, Nulls: NullsFirst},
		{Type: vector.Uint8, Order: Ascending, Nulls: NullsLast},
		{Type: vector.Varchar, Order: Descending, Nulls: NullsFirst, PrefixLen: 9},
	}
	const n = 300
	cols := []*vector.Vector{
		randomVector(vector.Int16, n, 0.2, false, rng),
		randomVector(vector.Float64, n, 0.2, false, rng),
		randomVector(vector.Uint8, n, 0.2, false, rng),
		randomVector(vector.Varchar, n, 0.2, false, rng), // short strings: exact
	}
	e, out := encodeTuples(t, keys, cols)
	for trial := 0; trial < 3000; trial++ {
		i, j := rng.Intn(n), rng.Intn(n)
		want := sign(CompareRows(keys, cols, i, j))
		got := sign(bytes.Compare(keyRow(out, e.Width(), i), keyRow(out, e.Width(), j)))
		if got != want {
			t.Fatalf("rows %d vs %d: key cmp %d, oracle %d", i, j, got, want)
		}
	}
}

func TestFixedWidthRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(23))
	for _, typ := range fixedTypes {
		for _, order := range []Order{Ascending, Descending} {
			keys := []SortKey{{Type: typ, Order: order, Nulls: NullsLast}}
			col := randomVector(typ, 100, 0.2, false, rng)
			e, out := encodeTuples(t, keys, []*vector.Vector{col})
			for i := 0; i < col.Len(); i++ {
				got, err := e.DecodeValue(0, keyRow(out, e.Width(), i))
				if err != nil {
					t.Fatal(err)
				}
				want := col.Value(i)
				if want == nil {
					if got != nil {
						t.Fatalf("%v %v row %d: decoded %v, want NULL", typ, order, i, got)
					}
					continue
				}
				if !valuesEqual(typ, got, want) {
					t.Fatalf("%v %v row %d: decoded %v, want %v", typ, order, i, got, want)
				}
			}
		}
	}
}

// TestDecodeColumnMatchesDecodeValue runs the decode kernel over a chunk of
// key rows laid out as the sorter lays them out — the exact key behind a
// varchar key, a payload reference and padding after it — for every exact
// type, order and NULL placement, with NULLs: each row is its input value, a
// NULL is NULL with a zero slot, and each agrees with DecodeValue.
func TestDecodeColumnMatchesDecodeValue(t *testing.T) {
	rng := rand.New(rand.NewSource(44))
	const n = vector.DefaultVectorSize
	strs := randomVector(vector.Varchar, n, 0.1, true, rng)
	for _, typ := range fixedTypes {
		key := SortKey{Column: 1, Type: typ}
		if !key.Exact() {
			continue
		}
		col := randomVector(typ, n, 0.1, false, rng)
		for _, order := range []Order{Ascending, Descending} {
			for _, nulls := range []NullOrder{NullsFirst, NullsLast} {
				key.Order, key.Nulls = order, nulls
				enc, err := NewEncoder([]SortKey{{Type: vector.Varchar, PrefixLen: 5}, key})
				if err != nil {
					t.Fatal(err)
				}
				stride := (enc.Width() + 8 + 7) &^ 7
				out := bytes.Repeat([]byte{0xEE}, n*stride)
				if _, err := enc.EncodeChunk([]*vector.Vector{strs, col}, out, stride, 0); err != nil {
					t.Fatal(err)
				}
				rows := make([][]byte, n)
				for i := range rows {
					rows[i] = out[i*stride : (i+1)*stride]
				}
				got := enc.DecodeColumn(1, rows)
				zero := slotValue(vector.NewDense(typ, 1), 0)
				for i, r := range rows {
					want, err := enc.DecodeValue(1, r)
					if err != nil {
						t.Fatal(err)
					}
					if g := got.Value(i); g != want || g != col.Value(i) || g == nil && slotValue(got, i) != zero {
						t.Fatalf("%v %v %v row %d: DecodeColumn %v (slot %v), DecodeValue %v, input %v",
							typ, order, nulls, i, g, slotValue(got, i), want, col.Value(i))
					}
				}
			}
		}
	}
}

// TestLossyKeysAreNotExact pins which keys hold their values exactly: a Bool
// or integer key, whose encoding DecodeColumn inverts, and no other — not a
// float, whose encoding folds -0 into +0 and every NaN into one, nor a
// string's prefix — and DecodeColumn refuses those.
func TestLossyKeysAreNotExact(t *testing.T) {
	for _, typ := range allTypes {
		lossy := typ == vector.Float32 || typ == vector.Float64 || typ == vector.Varchar
		for _, key := range []SortKey{{Type: typ}, {Type: typ, Order: Descending, Nulls: NullsLast}} {
			if key.Exact() == lossy {
				t.Errorf("%v %v %v: Exact %v", typ, key.Order, key.Nulls, key.Exact())
			}
		}
		if !lossy {
			continue
		}
		enc, err := NewEncoder([]SortKey{{Type: typ}})
		if err != nil {
			t.Fatal(err)
		}
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%v: DecodeColumn decoded a key that does not hold its values exactly", typ)
				}
			}()
			enc.DecodeColumn(0, [][]byte{make([]byte, enc.Width())})
		}()
	}
}

// valuesEqual compares decoded values, treating NaN==NaN and -0==+0 (the
// encoder canonicalizes both).
func valuesEqual(typ vector.Type, got, want any) bool {
	switch typ {
	case vector.Float32:
		g, w := got.(float32), want.(float32)
		if g != g && w != w {
			return true
		}
		return g == w
	case vector.Float64:
		g, w := got.(float64), want.(float64)
		if g != g && w != w {
			return true
		}
		return g == w
	default:
		return got == want
	}
}

func TestIntegerBoundaries(t *testing.T) {
	v := vector.New(vector.Int32, 5)
	for _, x := range []int32{math.MinInt32, -1, 0, 1, math.MaxInt32} {
		v.AppendInt32(x)
	}
	keys := []SortKey{{Type: vector.Int32}}
	e, out := encodeTuples(t, keys, []*vector.Vector{v})
	for i := 1; i < 5; i++ {
		if bytes.Compare(keyRow(out, e.Width(), i-1), keyRow(out, e.Width(), i)) >= 0 {
			t.Fatalf("int32 boundary order broken at %d", i)
		}
	}
}

func TestFloatSpecialOrder(t *testing.T) {
	// -Inf < -1 < -0 == +0 < 1 < +Inf < NaN
	v := vector.New(vector.Float64, 7)
	v.AppendFloat64(math.Inf(-1))
	v.AppendFloat64(-1)
	v.AppendFloat64(math.Copysign(0, -1))
	v.AppendFloat64(0)
	v.AppendFloat64(1)
	v.AppendFloat64(math.Inf(1))
	v.AppendFloat64(math.NaN())
	keys := []SortKey{{Type: vector.Float64}}
	e, out := encodeTuples(t, keys, []*vector.Vector{v})
	for i := 1; i < 7; i++ {
		c := bytes.Compare(keyRow(out, e.Width(), i-1), keyRow(out, e.Width(), i))
		if i == 3 { // -0 vs +0 must encode equal
			if c != 0 {
				t.Fatal("-0 and +0 should encode identically")
			}
			continue
		}
		if c >= 0 {
			t.Fatalf("float special order broken at %d", i)
		}
	}
}

func TestNullPlacementAllCombinations(t *testing.T) {
	for _, order := range []Order{Ascending, Descending} {
		for _, nulls := range []NullOrder{NullsFirst, NullsLast} {
			v := vector.New(vector.Int32, 3)
			v.AppendInt32(1)
			v.AppendNull()
			v.AppendInt32(-5)
			keys := []SortKey{{Type: vector.Int32, Order: order, Nulls: nulls}}
			e, out := encodeTuples(t, keys, []*vector.Vector{v})
			nullKey := keyRow(out, e.Width(), 1)
			for _, i := range []int{0, 2} {
				c := bytes.Compare(nullKey, keyRow(out, e.Width(), i))
				if nulls == NullsFirst && c >= 0 {
					t.Fatalf("%v NULLS FIRST: null should sort before row %d", order, i)
				}
				if nulls == NullsLast && c <= 0 {
					t.Fatalf("%v NULLS LAST: null should sort after row %d", order, i)
				}
			}
		}
	}
}

func TestStringPrefixTruncationTies(t *testing.T) {
	v := vector.New(vector.Varchar, 3)
	v.AppendString("ABCDEFGHIJKLMNOP")  // same 12-byte prefix
	v.AppendString("ABCDEFGHIJKLZZZZ")  // same 12-byte prefix
	v.AppendString("ABCDEFGHIJKLMNOPQ") // same 12-byte prefix
	keys := []SortKey{{Type: vector.Varchar}}
	cols := []*vector.Vector{v}
	e, out := encodeTuples(t, keys, cols)
	if bytes.Compare(keyRow(out, e.Width(), 0), keyRow(out, e.Width(), 1)) != 0 {
		t.Fatal("truncated prefixes should encode equal")
	}
	if CompareRows(keys, cols, 0, 1) >= 0 {
		t.Fatal("oracle must break the tie: MNOP < ZZZZ")
	}
	if CompareRows(keys, cols, 0, 2) >= 0 {
		t.Fatal("oracle must break the tie: shorter prefix-equal string first")
	}
}

// TestResidenceBytePerRow pins the byte that ends every varchar segment,
// which a sink reads to leave a string in its key: 0 for a string its prefix
// holds whole, 1 for one that overflows it or holds a NUL, inverted under
// DESC, and a NULL's that of a string that fits. One string key whose values
// fit, one that overflows its prefix and one whose values hold a NUL, keyed
// ASC, DESC, NOCASE and at a 2-byte prefix; Ties is the OR of the rows', and
// a fixed-width key never ties.
func TestResidenceBytePerRow(t *testing.T) {
	str := func(vals ...string) *vector.Vector {
		v := vector.New(vector.Varchar, 4)
		for _, s := range vals {
			v.AppendString(s)
		}
		for v.Len() < 4 {
			v.AppendNull()
		}
		return v
	}
	fits := str("", "abc", "exactly12byt")
	for _, tc := range []struct {
		key  SortKey
		col  *vector.Vector
		over []byte // per row, NULL last
	}{
		{SortKey{Type: vector.Varchar}, fits, []byte{0, 0, 0, 0}},
		{SortKey{Type: vector.Varchar}, str("abc", "exactly13byte"), []byte{0, 1, 0, 0}},
		{SortKey{Type: vector.Varchar, Order: Descending}, str("a\x00b", "c"), []byte{1, 0, 0, 0}},
		{SortKey{Type: vector.Varchar, Collation: CollationNoCase}, fits, []byte{0, 0, 0, 0}},
		{SortKey{Type: vector.Varchar, Order: Descending, Collation: CollationNoCase}, str("ABC", "ABCDEFGHIJKLM"), []byte{0, 1, 0, 0}},
		{SortKey{Type: vector.Varchar, PrefixLen: 2}, fits, []byte{0, 1, 1, 0}},
	} {
		e, out := encodeTuples(t, []SortKey{tc.key}, []*vector.Vector{tc.col})
		inv := byte(0)
		if tc.key.Order == Descending {
			inv = 0xFF
		}
		var ties bool
		for r, want := range tc.over {
			if got := keyRow(out, e.Width(), r)[e.Width()-1] ^ inv; got != want {
				t.Errorf("%+v row %d: residence byte %d, want %d", tc.key, r, got, want)
			}
			ties = ties || want != 0
		}
		st, err := e.EncodeChunk([]*vector.Vector{tc.col}, out, e.Width(), 0)
		if err != nil {
			t.Fatal(err)
		}
		if st.Ties != ties {
			t.Errorf("%+v: Ties %v, want %v", tc.key, st.Ties, ties)
		}
	}
	ints := vector.New(vector.Int64, 3)
	for i := 0; i < 3; i++ {
		ints.AppendInt64(int64(i))
	}
	e, err := NewEncoder([]SortKey{{Type: vector.Int64}})
	if err != nil {
		t.Fatal(err)
	}
	if st, err := e.EncodeChunk([]*vector.Vector{ints}, make([]byte, 3*e.Width()), e.Width(), 0); err != nil || st.Ties {
		t.Errorf("an Int64 key: Ties %v, %v", st.Ties, err)
	}
}

// TestStringNULByteTie pins what a NUL does to a string's segment: "a" and
// "a\x00" share a padded prefix, and the residence byte — "a" fits, "a\x00"
// does not — orders them; "a\x00" and "a\x00\x00" share the whole segment,
// residence byte included, and only the oracle orders them.
func TestStringNULByteTie(t *testing.T) {
	v := vector.New(vector.Varchar, 3)
	v.AppendString("a")
	v.AppendString("a\x00")
	v.AppendString("a\x00\x00")
	keys := []SortKey{{Type: vector.Varchar}}
	cols := []*vector.Vector{v}
	e, out := encodeTuples(t, keys, cols)
	if bytes.Compare(keyRow(out, e.Width(), 0), keyRow(out, e.Width(), 1)) >= 0 {
		t.Fatal(`"a" must encode before "a\x00"`)
	}
	if bytes.Compare(keyRow(out, e.Width(), 1), keyRow(out, e.Width(), 2)) != 0 {
		t.Fatal("NUL-padded prefixes that both overflow should encode equal")
	}
	if CompareRows(keys, cols, 1, 2) >= 0 {
		t.Fatal(`"a\x00" must order before "a\x00\x00"`)
	}
}

func TestStringDescending(t *testing.T) {
	v := vector.New(vector.Varchar, 2)
	v.AppendString("APPLE")
	v.AppendString("BANANA")
	keys := []SortKey{{Type: vector.Varchar, Order: Descending}}
	e, out := encodeTuples(t, keys, []*vector.Vector{v})
	if bytes.Compare(keyRow(out, e.Width(), 0), keyRow(out, e.Width(), 1)) <= 0 {
		t.Fatal("DESC: BANANA should encode before APPLE")
	}
}

// TestFigure7 reproduces the paper's worked example: the customer table
// ordered by c_birth_country DESC, c_birth_year ASC.
func TestFigure7(t *testing.T) {
	country := vector.New(vector.Varchar, 2)
	country.AppendString("NETHERLANDS")
	country.AppendString("GERMANY")
	year := vector.New(vector.Int32, 2)
	year.AppendInt32(1992)
	year.AppendInt32(1924)
	keys := []SortKey{
		{Type: vector.Varchar, Order: Descending, PrefixLen: 11},
		{Column: 1, Type: vector.Int32, Order: Ascending},
	}
	cols := []*vector.Vector{country, year}
	e, out := encodeTuples(t, keys, cols)
	// DESC on country: NETHERLANDS > GERMANY, so the NETHERLANDS row
	// (row 0) must get the smaller key.
	if bytes.Compare(keyRow(out, e.Width(), 0), keyRow(out, e.Width(), 1)) >= 0 {
		t.Fatal("Figure 7: NETHERLANDS row should encode first under DESC")
	}
	// Round-trip the year through the encoding.
	got, err := e.DecodeValue(1, keyRow(out, e.Width(), 0))
	if err != nil || got.(int32) != 1992 {
		t.Fatalf("year round trip: %v %v", got, err)
	}
	// The country prefix decodes to the padded prefix (11 bytes).
	c, _ := e.DecodeValue(0, keyRow(out, e.Width(), 1))
	if c.(string) != "GERMANY" {
		t.Fatalf("country prefix = %q", c)
	}
}

func TestEncodeErrors(t *testing.T) {
	e, err := NewEncoder([]SortKey{{Type: vector.Int32}})
	if err != nil {
		t.Fatal(err)
	}
	i32 := vector.New(vector.Int32, 2)
	i32.AppendInt32(1)
	out := make([]byte, 64)

	if err := e.Encode(nil, out, e.Width(), 0); err == nil {
		t.Fatal("wrong column count should error")
	}
	u32 := vector.New(vector.Uint32, 1)
	u32.AppendUint32(1)
	if err := e.Encode([]*vector.Vector{u32}, out, e.Width(), 0); err == nil {
		t.Fatal("type mismatch should error")
	}
	if err := e.Encode([]*vector.Vector{i32}, out, 2, 0); err == nil {
		t.Fatal("stride too small should error")
	}
	if err := e.Encode([]*vector.Vector{i32}, make([]byte, 1), e.Width(), 0); err == nil {
		t.Fatal("short out should error")
	}
	two := vector.New(vector.Int32, 2)
	two.AppendInt32(1)
	two.AppendInt32(2)
	e2, _ := NewEncoder([]SortKey{{Type: vector.Int32}, {Type: vector.Int32}})
	if err := e2.Encode([]*vector.Vector{i32, two}, make([]byte, 128), e2.Width(), 0); err == nil {
		t.Fatal("ragged columns should error")
	}
}

func TestEncodeWithOffsetAndStride(t *testing.T) {
	// Keys embedded in wider rows at a nonzero offset must not clobber
	// surrounding bytes.
	v := vector.New(vector.Uint16, 2)
	v.AppendUint16(0x0102)
	v.AppendUint16(0x0304)
	e, err := NewEncoder([]SortKey{{Type: vector.Uint16}})
	if err != nil {
		t.Fatal(err)
	}
	const stride, offset = 8, 2
	out := bytes.Repeat([]byte{0xEE}, 2*stride)
	if err := e.Encode([]*vector.Vector{v}, out, stride, offset); err != nil {
		t.Fatal(err)
	}
	for r := 0; r < 2; r++ {
		row := out[r*stride : (r+1)*stride]
		if row[0] != 0xEE || row[1] != 0xEE || row[5] != 0xEE {
			t.Fatalf("row %d: surrounding bytes clobbered: %x", r, row)
		}
		if row[offset] != 0x01 {
			t.Fatalf("row %d: missing validity byte: %x", r, row)
		}
	}
	if !(out[offset+1] == 0x01 && out[offset+2] == 0x02) {
		t.Fatalf("value bytes wrong: %x", out[:stride])
	}
}

func TestDecodeValueErrors(t *testing.T) {
	e, _ := NewEncoder([]SortKey{{Type: vector.Int32}})
	if _, err := e.DecodeValue(5, make([]byte, e.Width())); err == nil {
		t.Fatal("out-of-range key index should error")
	}
}

func TestOrderAndNullOrderStrings(t *testing.T) {
	if Ascending.String() != "ASC" || Descending.String() != "DESC" {
		t.Fatal("Order.String broken")
	}
	if NullsFirst.String() != "NULLS FIRST" || NullsLast.String() != "NULLS LAST" {
		t.Fatal("NullOrder.String broken")
	}
}

func TestTiesImpossibleWithoutVarchar(t *testing.T) {
	e, _ := NewEncoder([]SortKey{{Type: vector.Int32}, {Type: vector.Float64}})
	if e.TiesPossible() {
		t.Fatal("no varchar keys: ties should be impossible")
	}
}
