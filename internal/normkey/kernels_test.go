package normkey

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"math/rand"
	"strings"
	"testing"

	"rowsort/internal/vector"
)

// refEncodeChunk is the encoder as it was before the typed kernels: one row
// at a time, deciding validity and type per value, then a second pass
// inverting DESC segments. It is kept here as the oracle the kernels must
// match byte for byte and stat for stat.
func refEncodeChunk(e *Encoder, cols []*vector.Vector, out []byte, stride, offset int) EncodeStats {
	var st EncodeStats
	for k, vec := range cols {
		if refEncodeColumn(e, k, vec, out, stride, offset) {
			st.Ties = true
		}
	}
	return st
}

func refEncodeColumn(e *Encoder, k int, vec *vector.Vector, out []byte, stride, offset int) (ties bool) {
	key := e.keys[k]
	segOff := offset + e.offsets[k]
	segW := key.segWidth()
	n := vec.Len()

	effFirst := (key.Nulls == NullsFirst) != (key.Order == Descending)
	var nullByte, validByte byte
	if effFirst {
		nullByte, validByte = 0x00, 0x01
	} else {
		nullByte, validByte = 0x01, 0x00
	}

	for r := 0; r < n; r++ {
		seg := out[r*stride+segOff : r*stride+segOff+segW]
		if !vec.Valid(r) {
			seg[0] = nullByte
			for i := 1; i < segW; i++ {
				seg[i] = 0
			}
			continue
		}
		seg[0] = validByte
		if key.Type != vector.Varchar {
			encodeValue(key, vec, r, seg[1:])
			continue
		}
		s := key.Collation.Apply(vec.Strings()[r])
		p := key.Prefix()
		nc := copy(seg[1:1+p], s)
		for i := 1 + nc; i < segW; i++ {
			seg[i] = 0
		}
		// An overlong string, or a NUL the zero padding cannot be told from,
		// may collide with a different string's prefix: its residence byte
		// says the prefix does not hold it.
		if len(s) > p || strings.IndexByte(s, 0) >= 0 {
			seg[1+p], ties = 1, true
		}
	}

	if key.Order == Descending {
		for r := 0; r < n; r++ {
			seg := out[r*stride+segOff : r*stride+segOff+segW]
			for i := range seg {
				seg[i] = ^seg[i]
			}
		}
	}
	return ties
}

// encodeValue writes the order-preserving encoding of row r of a fixed-width
// column into dst, which has the type's width: the per-value form of
// encodeFixed.
func encodeValue(key SortKey, vec *vector.Vector, r int, dst []byte) {
	switch key.Type {
	case vector.Bool:
		if vec.Bools()[r] {
			dst[0] = 1
		} else {
			dst[0] = 0
		}
	case vector.Uint8:
		dst[0] = vec.Uint8s()[r]
	case vector.Uint16:
		binary.BigEndian.PutUint16(dst, vec.Uint16s()[r])
	case vector.Uint32:
		binary.BigEndian.PutUint32(dst, vec.Uint32s()[r])
	case vector.Uint64:
		binary.BigEndian.PutUint64(dst, vec.Uint64s()[r])
	case vector.Int8:
		dst[0] = uint8(vec.Int8s()[r]) ^ 0x80
	case vector.Int16:
		binary.BigEndian.PutUint16(dst, uint16(vec.Int16s()[r])^0x8000)
	case vector.Int32:
		binary.BigEndian.PutUint32(dst, uint32(vec.Int32s()[r])^0x80000000)
	case vector.Int64:
		binary.BigEndian.PutUint64(dst, uint64(vec.Int64s()[r])^0x8000000000000000)
	case vector.Float32:
		binary.BigEndian.PutUint32(dst, encodeFloat32(vec.Float32s()[r]))
	case vector.Float64:
		binary.BigEndian.PutUint64(dst, encodeFloat64(vec.Float64s()[r]))
	}
}

// kernelStrings are the varchar cases the kernels must agree with the
// reference on, relative to prefix p: short, exactly p, overlong, an embedded
// NUL inside and outside the prefix, mixed case, empty, and non-ASCII UTF-8 —
// which NOCASE leaves alone byte for byte (a fold through unicode.ToLower
// rewrites lead bytes such as É's 0xC3) — one of them cut by the prefix
// inside a rune.
func kernelStrings(p int, rng *rand.Rand) []string {
	letters := "abcXYZ"
	word := func(n int) string {
		b := make([]byte, n)
		for i := range b {
			b[i] = letters[rng.Intn(len(letters))]
		}
		return string(b)
	}
	return []string{
		"", word(1), word(p), word(p + 1), word(3 * p), word(max(p-1, 0)),
		word(p/2) + "\x00" + word(p/2), word(p) + "\x00", "\x00", "Mixed" + word(2), "ID-" + word(3), "id-" + word(1),
		"École", "ÉCOLE", "straße", "İstanbul", word(max(p-1, 0)) + "Éé",
	}
}

// nullShapes are the validity layouts a vector can arrive with.
var nullShapes = []string{"nil-bitmap", "none", "some", "all"}

// withNulls builds the column for one cell of the grid. A NULL row keeps a
// meaningless value in its slot — for strings a lossy one, which must not
// reach the tie flag.
func withNulls(t vector.Type, n int, shape string, p int, rng *rand.Rand) *vector.Vector {
	v := randomVector(t, n, 0, false, rng)
	if t == vector.Varchar {
		strs := kernelStrings(p, rng)
		for i := range v.Strings() {
			v.Strings()[i] = strs[rng.Intn(len(strs))]
		}
	}
	switch shape {
	case "none":
		v.SetNull(0)
		v.Validity().SetValid(0)
	case "some":
		for i := 0; i < n; i++ {
			if rng.Intn(4) == 0 {
				v.SetNull(i)
			}
		}
	case "all":
		for i := 0; i < n; i++ {
			v.SetNull(i)
		}
	}
	return v
}

var allTypes = []vector.Type{
	vector.Bool, vector.Int8, vector.Int16, vector.Int32, vector.Int64,
	vector.Uint8, vector.Uint16, vector.Uint32, vector.Uint64,
	vector.Float32, vector.Float64, vector.Varchar,
}

// TestEncodeKernelsMatchReference runs the typed kernels against the per-row
// reference encoder over type × direction × NULL placement × validity layout
// × collation × prefix length, comparing every byte of the output block (the
// bytes around each segment included) and the stats, and at the tie flag's
// edges (tieEdges) the flag itself.
func TestEncodeKernelsMatchReference(t *testing.T) {
	rng := rand.New(rand.NewSource(24))
	const n = 150 // three validity words, the last one partial
	cells := 0
	for _, typ := range allTypes {
		prefixes, collations := []int{0}, []Collation{CollationBinary}
		if typ == vector.Varchar {
			prefixes, collations = []int{1, 8, 12, 40}, []Collation{CollationBinary, CollationNoCase}
		}
		for _, order := range []Order{Ascending, Descending} {
			for _, nulls := range []NullOrder{NullsFirst, NullsLast} {
				for _, coll := range collations {
					for _, p := range prefixes {
						key := SortKey{Type: typ, Order: order, Nulls: nulls, Collation: coll, PrefixLen: p}
						for _, shape := range nullShapes {
							ctx := fmt.Sprintf("%v %v %v coll=%d prefix=%d %s", typ, order, nulls, coll, p, shape)
							vec := withNulls(typ, n, shape, key.Prefix(), rng)
							checkAgainstReference(t, ctx, key, vec)
							cells++
						}
						if typ != vector.Varchar {
							continue
						}
						// One string alone decides the tie flag; the NULL row
						// beside it holds a lossy one that must not.
						for _, s := range kernelStrings(key.Prefix(), rng) {
							vec := vector.FromStrings([]string{s, "\x00" + s + s + s, s})
							vec.SetNull(1)
							checkAgainstReference(t, fmt.Sprintf("%v %v coll=%d prefix=%d %q", order, nulls, coll, p, s), key, vec)
							cells++
						}
						// At the flag's edges every path must also raise it
						// exactly where the edge says.
						for _, edge := range tieEdges(key.Prefix()) {
							vec := vector.FromStrings([]string{edge.s, "\x00" + edge.s + "x", edge.s})
							vec.SetNull(1)
							ctx := fmt.Sprintf("%v %v coll=%d prefix=%d %s %q", order, nulls, coll, p, edge.name, edge.s)
							if st := checkAgainstReference(t, ctx, key, vec); st.Ties != edge.ties {
								t.Fatalf("%s: Ties=%v, want %v", ctx, st.Ties, edge.ties)
							}
							cells++
						}
					}
				}
			}
		}
	}
	t.Logf("%d cells", cells)
}

// tieEdge is one string at an edge of the tie flag for a prefix of p bytes,
// with the flag it must raise.
type tieEdge struct {
	name string
	s    string
	ties bool
}

// tieEdges returns the strings at the tie flag's edges for a prefix of p
// bytes, in mixed case so that NOCASE rewrites them: one that fills the
// prefix and one a byte longer, a NUL as the last byte copied and a NUL only
// past the prefix (tied by the overflow alone), and the empty string.
func tieEdges(p int) []tieEdge {
	mixed := func(n int) string { return strings.Repeat("aB", n)[:n] }
	return []tieEdge{
		{"fills the prefix", mixed(p), false},
		{"one byte over", mixed(p + 1), true},
		{"NUL last copied", mixed(p-1) + "\x00", true},
		{"NUL past the prefix", mixed(p) + "\x00", true},
		{"empty", "", false},
	}
}

// checkAgainstReference encodes vec as key's column, fails unless the
// kernels agree with the reference byte for byte and stat for stat, and
// returns the stats.
func checkAgainstReference(t *testing.T, ctx string, key SortKey, vec *vector.Vector) EncodeStats {
	t.Helper()
	// A second key after the one under test shows a kernel writing past its
	// segment; the stride leaves untouched bytes on both sides.
	keys := []SortKey{key, {Type: vector.Uint8}}
	enc, err := NewEncoder(keys)
	if err != nil {
		t.Fatalf("%s: %v", ctx, err)
	}
	n := vec.Len()
	tail := vector.New(vector.Uint8, n)
	for i := 0; i < n; i++ {
		tail.AppendUint8(uint8(i))
	}
	cols := []*vector.Vector{vec, tail}
	const offset = 3
	stride := offset + enc.Width() + 5
	got := bytes.Repeat([]byte{0xA5}, n*stride)
	want := bytes.Repeat([]byte{0xA5}, n*stride)
	gotSt, err := enc.EncodeChunk(cols, got, stride, offset)
	if err != nil {
		t.Fatalf("%s: %v", ctx, err)
	}
	wantSt := refEncodeChunk(enc, cols, want, stride, offset)
	if gotSt != wantSt {
		t.Fatalf("%s: stats %+v, reference %+v", ctx, gotSt, wantSt)
	}
	// The sink hands the encoder recycled buffers: every key byte must be
	// written, whatever was there.
	other := bytes.Repeat([]byte{0x5A}, n*stride)
	if _, err := enc.EncodeChunk(cols, other, stride, offset); err != nil {
		t.Fatalf("%s: %v", ctx, err)
	}
	for r := 0; r < n; r++ {
		g, w := got[r*stride:(r+1)*stride], want[r*stride:(r+1)*stride]
		if !bytes.Equal(g, w) {
			t.Fatalf("%s: row %d (valid=%v value=%v):\n got %x\nwant %x", ctx, r, vec.Valid(r), vec.Value(r), g, w)
		}
		from, to := r*stride+offset, r*stride+offset+enc.Width()
		if !bytes.Equal(got[from:to], other[from:to]) {
			t.Fatalf("%s: row %d: key bytes depend on what the buffer held: %x / %x", ctx, r, got[from:to], other[from:to])
		}
	}
	return gotSt
}

// TestEncodeChunkAllocatesNothing pins the encoder's hot path at zero
// allocations, case-insensitive keys over mixed-case strings included (they
// used to cost two collated copies per row).
func TestEncodeChunkAllocatesNothing(t *testing.T) {
	rng := rand.New(rand.NewSource(25))
	const n = 512
	strs := vector.New(vector.Varchar, n)
	ints := vector.New(vector.Int64, n)
	for i := 0; i < n; i++ {
		strs.AppendString(kernelStrings(12, rng)[9]) // "Mixed…"
		ints.AppendInt64(int64(rng.Uint64()))
		if i%7 == 0 {
			strs.SetNull(i)
			ints.SetNull(i)
		}
	}
	enc, err := NewEncoder([]SortKey{
		{Type: vector.Varchar, Collation: CollationNoCase, Order: Descending},
		{Type: vector.Int64, Nulls: NullsLast},
	})
	if err != nil {
		t.Fatal(err)
	}
	cols := []*vector.Vector{strs, ints}
	out := make([]byte, n*enc.Width())
	allocs := testing.AllocsPerRun(20, func() {
		if _, err := enc.EncodeChunk(cols, out, enc.Width(), 0); err != nil {
			t.Fatal(err)
		}
	})
	if allocs != 0 {
		t.Fatalf("EncodeChunk allocated %.0f times per call", allocs)
	}
}
