package normkey

import (
	"bytes"
	"fmt"
	"math"
	"testing"

	"rowsort/internal/vector"
)

// fuzzTypes is every key type the encoder supports, indexed by the fuzzer's
// type-selector byte.
var fuzzTypes = []vector.Type{
	vector.Bool,
	vector.Int8, vector.Int16, vector.Int32, vector.Int64,
	vector.Uint8, vector.Uint16, vector.Uint32, vector.Uint64,
	vector.Float32, vector.Float64,
	vector.Varchar,
}

// fuzzValueVector builds a one-row vector of the given type. Numeric types
// reinterpret bits directly (so the fuzzer reaches NaN payloads, -0, both
// infinities and every sign pattern); Varchar stores s as-is.
func fuzzValueVector(typ vector.Type, bits uint64, s string, null bool) *vector.Vector {
	v := vector.New(typ, 1)
	if null {
		v.AppendNull()
		return v
	}
	switch typ {
	case vector.Bool:
		v.AppendBool(bits&1 == 1)
	case vector.Int8:
		v.AppendInt8(int8(bits))
	case vector.Int16:
		v.AppendInt16(int16(bits))
	case vector.Int32:
		v.AppendInt32(int32(bits))
	case vector.Int64:
		v.AppendInt64(int64(bits))
	case vector.Uint8:
		v.AppendUint8(uint8(bits))
	case vector.Uint16:
		v.AppendUint16(uint16(bits))
	case vector.Uint32:
		v.AppendUint32(uint32(bits))
	case vector.Uint64:
		v.AppendUint64(bits)
	case vector.Float32:
		v.AppendFloat32(math.Float32frombits(uint32(bits)))
	case vector.Float64:
		v.AppendFloat64(math.Float64frombits(bits))
	case vector.Varchar:
		v.AppendString(s)
	}
	return v
}

// cmpSign collapses a comparison result to -1, 0 or +1.
func cmpSign(c int) int {
	switch {
	case c < 0:
		return -1
	case c > 0:
		return 1
	default:
		return 0
	}
}

// FuzzNormKeyOrder checks the paper's central claim on arbitrary value
// pairs: the unsigned byte order of encoded normalized keys agrees with the
// semantic comparison of the values, across every type, ASC/DESC, NULLS
// FIRST/LAST and both collations, and Comparator, which resolves byte ties
// against the full values, agrees with it exactly. The sanctioned divergence is a lossy
// byte-tie: encoded keys may tie where the values differ only if the encoder
// flagged the chunk as needing a tie-break (EncodeStats.Ties), and only for
// a varchar whose collated padded prefixes are genuinely identical and
// neither of which holds its string whole: where either side fits, the
// residence byte ends the segment and byte order is the order. An Exact
// key's encoding is also inverted exactly: DecodeColumn of both key rows is
// the values — a NULL with a zero slot — and agrees with DecodeValue.
func FuzzNormKeyOrder(f *testing.F) {
	f.Add(uint8(4), uint8(0), uint8(0), uint64(5), uint64(1<<63), "", "")                                // int64 sign straddle
	f.Add(uint8(10), uint8(1), uint8(0), uint64(0), uint64(1)<<63, "", "")                               // float64 +0 vs -0, DESC
	f.Add(uint8(10), uint8(0), uint8(0), uint64(0x7FF8000000000001), uint64(0x7FF0000000000000), "", "") // NaN vs +Inf
	f.Add(uint8(11), uint8(0), uint8(3), uint64(0), uint64(0), "abc", "abd")                             // varchar within prefix
	f.Add(uint8(11), uint8(16), uint8(1), uint64(0), uint64(0), "Aa", "aA")                              // nocase collation, 2-byte prefix
	f.Add(uint8(2), uint8(14), uint8(0), uint64(7), uint64(7), "", "")                                   // NULL vs non-NULL, NULLS LAST
	f.Add(uint8(11), uint8(0), uint8(3), uint64(0), uint64(0), "abcdX", "abcdY")                         // varchar overflowing its prefix: a flagged tie
	f.Add(uint8(11), uint8(0), uint8(7), uint64(0), uint64(0), "ab\x00", "ab")                           // embedded NUL against the padding
	f.Add(uint8(11), uint8(5), uint8(2), uint64(0), uint64(0), "x", "wz")                                // DESC, NULLS FIRST, a NULL string
	f.Add(uint8(11), uint8(17), uint8(1), uint64(0), uint64(0), "ABc", "abD")                            // nocase DESC tie past the prefix
	f.Add(uint8(9), uint8(3), uint8(0), uint64(0x7FC00001), uint64(0xFF800000), "", "")                  // float32 NaN vs -Inf, DESC NULLS LAST
	f.Add(uint8(3), uint8(7), uint8(0), uint64(1<<31), uint64(0), "", "")                                // int32 NULL vs its minimum, DESC NULLS LAST: decoded back
	f.Add(uint8(0), uint8(9), uint8(0), uint64(1), uint64(0), "", "")                                    // bool true vs NULL, DESC: decoded back
	f.Add(uint8(8), uint8(2), uint8(0), uint64(1<<64-1), uint64(1), "", "")                              // uint64 maximum, NULLS LAST: decoded back
	// One side fits its prefix, the other shares its prefix bytes and
	// overflows: the residence byte decides, ASC and DESC.
	f.Add(uint8(11), uint8(0), uint8(11), uint64(0), uint64(0), "abcdefghijkl", "abcdefghijklm")
	f.Add(uint8(11), uint8(1), uint8(11), uint64(0), uint64(0), "abcdefghijkl", "abcdefghijklm")
	f.Add(uint8(11), uint8(0), uint8(7), uint64(0), uint64(0), "ab", "ab\x00")
	f.Add(uint8(11), uint8(1), uint8(7), uint64(0), uint64(0), "ab", "ab\x00")
	f.Add(uint8(11), uint8(0), uint8(3), uint64(0), uint64(0), "", "\x00")
	f.Add(uint8(11), uint8(1), uint8(3), uint64(0), uint64(0), "", "\x00")
	f.Add(uint8(11), uint8(16), uint8(2), uint64(0), uint64(0), "ABC", "abcd") // NOCASE: both fold to the prefix "abc"
	f.Add(uint8(11), uint8(17), uint8(2), uint64(0), uint64(0), "ABC", "abcd")

	f.Fuzz(func(t *testing.T, typeSel, flags, prefix uint8, abits, bbits uint64, as, bs string) {
		typ := fuzzTypes[int(typeSel)%len(fuzzTypes)]
		key := SortKey{Type: typ}
		if flags&1 != 0 {
			key.Order = Descending
		}
		if flags&2 != 0 {
			key.Nulls = NullsLast
		}
		aNull, bNull := flags&4 != 0, flags&8 != 0
		if typ == vector.Varchar {
			if flags&16 != 0 {
				key.Collation = CollationNoCase
			}
			key.PrefixLen = 1 + int(prefix%16)
		}

		va := fuzzValueVector(typ, abits, as, aNull)
		vb := fuzzValueVector(typ, bbits, bs, bNull)

		enc, err := NewEncoder([]SortKey{key})
		if err != nil {
			t.Fatalf("NewEncoder(%+v): %v", key, err)
		}
		ea := make([]byte, enc.Width())
		eb := make([]byte, enc.Width())
		sta, err := enc.EncodeChunk([]*vector.Vector{va}, ea, enc.Width(), 0)
		if err != nil {
			t.Fatalf("Encode a: %v", err)
		}
		stb, err := enc.EncodeChunk([]*vector.Vector{vb}, eb, enc.Width(), 0)
		if err != nil {
			t.Fatalf("Encode b: %v", err)
		}

		if key.Exact() {
			checkDecode(t, enc, key, []*vector.Vector{va, vb}, [][]byte{ea, eb})
		}

		got := cmpSign(bytes.Compare(ea, eb))
		want := cmpSign(CompareValues(key, va, 0, vb, 0))
		// Where either side is NULL or a string its prefix holds whole, the
		// bytes alone are the order: no tie-break is needed or made.
		decided := aNull || bNull || typ != vector.Varchar || FitsPrefix(as, key.Prefix()) || FitsPrefix(bs, key.Prefix())
		if decided && got != want {
			t.Fatalf("key %+v: one side fits, yet bytes.Compare = %d and CompareValues = %d\na = % x\nb = % x",
				key, got, want, ea, eb)
		}
		// The order over key rows fetches the full values only on a tie of
		// two strings that overflow, and with them agrees with the oracle
		// everywhere.
		full := func(keyRow []byte, _, _ int) []byte {
			if decided {
				t.Fatalf("key %+v: Comparator fetched %q and %q, one of which fits", key, as, bs)
			}
			if &keyRow[0] == &ea[0] {
				return []byte(as)
			}
			return []byte(bs)
		}
		if c := cmpSign(enc.Comparator(full)(ea, 0, eb, 0)); c != want {
			t.Fatalf("key %+v: Comparator = %d but CompareValues = %d\na = % x (null=%v)\nb = % x (null=%v)",
				key, c, want, ea, aNull, eb, bNull)
		}
		if got == want {
			return
		}
		if got != 0 {
			// Encoded keys ordered one way, the oracle the other (or tied):
			// a hard violation of byte-comparability.
			t.Fatalf("key %+v: bytes.Compare = %d but CompareValues = %d\na = % x (null=%v)\nb = % x (null=%v)",
				key, got, want, ea, aNull, eb, bNull)
		}
		// A byte-tie with a semantic difference is legal only when the
		// encoder told the sorter a tie-break is needed — that flag is what
		// keeps lossy prefixes correct end to end — and only as varchar prefix
		// truncation with identical collated padded prefixes.
		if aNull || bNull {
			t.Fatalf("key %+v: NULL mismatch ties: CompareValues = %d", key, want)
		}
		if !sta.Ties && !stb.Ties {
			t.Fatalf("key %+v: unreported lossy tie (oracle = %d)\na = % x\nb = % x", key, want, ea, eb)
		}
		if typ != vector.Varchar {
			t.Fatalf("key %+v: encoded keys tie but CompareValues = %d", key, want)
		}
		p := key.Prefix()
		pa := prefixPad(key.Collation.Apply(as), p)
		pb := prefixPad(key.Collation.Apply(bs), p)
		if pa != pb {
			t.Fatalf("key %+v: encoded keys tie but collated prefixes differ: %q vs %q", key, pa, pb)
		}
	})
}

// checkDecode fails unless DecodeColumn of the key rows, one a vector of
// vals, gives back their values, a NULL as NULL with a zero slot, and agrees
// with DecodeValue row by row.
func checkDecode(t *testing.T, enc *Encoder, key SortKey, vals []*vector.Vector, rows [][]byte) {
	t.Helper()
	got := enc.DecodeColumn(0, rows)
	zero := slotValue(vector.NewDense(key.Type, 1), 0)
	for i, v := range vals {
		want := v.Value(0)
		ref, err := enc.DecodeValue(0, rows[i])
		if err != nil {
			t.Fatal(err)
		}
		switch {
		case got.Value(i) != want:
			t.Fatalf("key %+v: row % x decoded to %v, encoded from %v", key, rows[i], got.Value(i), want)
		case ref != want:
			t.Fatalf("key %+v: row % x: DecodeValue %v, DecodeColumn %v", key, rows[i], ref, got.Value(i))
		case want == nil && slotValue(got, i) != zero:
			t.Fatalf("key %+v: a NULL decoded with slot %v", key, slotValue(got, i))
		}
	}
}

// slotValue returns what row i's slot of a vector of an Exact type holds,
// NULL or not.
func slotValue(v *vector.Vector, i int) any {
	switch v.Type() {
	case vector.Bool:
		return v.Bools()[i]
	case vector.Int8:
		return v.Int8s()[i]
	case vector.Int16:
		return v.Int16s()[i]
	case vector.Int32:
		return v.Int32s()[i]
	case vector.Int64:
		return v.Int64s()[i]
	case vector.Uint8:
		return v.Uint8s()[i]
	case vector.Uint16:
		return v.Uint16s()[i]
	case vector.Uint32:
		return v.Uint32s()[i]
	case vector.Uint64:
		return v.Uint64s()[i]
	}
	panic(fmt.Sprintf("slotValue: %v is not an exact key type", v.Type()))
}

// prefixPad truncates s to p bytes and zero-pads it to exactly p bytes,
// mirroring the encoder's Varchar layout.
func prefixPad(s string, p int) string {
	b := make([]byte, p)
	copy(b, s)
	return string(b)
}
