package normkey

import (
	"bytes"
	"fmt"
	"testing"

	"rowsort/internal/vector"
)

// stringsVec builds a varchar vector; "\x00NULL" entries become NULLs.
func stringsVec(vals ...string) *vector.Vector {
	v := vector.New(vector.Varchar, len(vals))
	for _, s := range vals {
		if s == "\x00NULL" {
			v.AppendNull()
		} else {
			v.AppendString(s)
		}
	}
	return v
}

func int64Vec(vals ...int64) *vector.Vector {
	v := vector.New(vector.Int64, len(vals))
	for _, x := range vals {
		v.AppendInt64(x)
	}
	return v
}

// checkKeySound encodes every vector (each one row) on its own and checks
// the normalized-key contract against the oracle for every pair: byte order
// never inverts the semantic order, and any byte-tie between semantically
// unequal rows was flagged by at least one side's EncodeStats (that flag is
// what arms the sorter's tie-break). With exact set, no row may report a
// possible tie at all.
func checkKeySound(t *testing.T, key SortKey, vecs []*vector.Vector, exact bool) {
	t.Helper()
	enc, err := NewEncoder([]SortKey{key})
	if err != nil {
		t.Fatal(err)
	}
	type encRow struct {
		b    []byte
		ties bool
	}
	rows := make([]encRow, len(vecs))
	for i, v := range vecs {
		b := make([]byte, enc.Width())
		st, err := enc.EncodeChunk([]*vector.Vector{v}, b, enc.Width(), 0)
		if err != nil {
			t.Fatal(err)
		}
		if exact && st.Ties {
			t.Fatalf("row %d of an exact key reported a possible tie\nkey %+v", i, key)
		}
		rows[i] = encRow{b, st.Ties}
	}
	for i := range vecs {
		for j := range vecs {
			got := cmpSign(bytes.Compare(rows[i].b, rows[j].b))
			want := cmpSign(CompareValues(key, vecs[i], 0, vecs[j], 0))
			if got == want {
				continue
			}
			if got != 0 {
				t.Fatalf("pair (%d,%d): bytes.Compare = %d but oracle = %d\nkey %+v\na = % x\nb = % x",
					i, j, got, want, key, rows[i].b, rows[j].b)
			}
			if !rows[i].ties && !rows[j].ties {
				t.Fatalf("pair (%d,%d): unreported lossy tie (oracle = %d)\nkey %+v\nbytes = % x",
					i, j, want, key, rows[i].b)
			}
		}
	}
}

// keyVariants runs a soundness check across ASC/DESC and NULLS FIRST/LAST.
func keyVariants(t *testing.T, base SortKey, vecs []*vector.Vector, exact bool) {
	t.Helper()
	for _, ord := range []Order{Ascending, Descending} {
		for _, nl := range []NullOrder{NullsFirst, NullsLast} {
			key := base
			key.Order, key.Nulls = ord, nl
			t.Run(fmt.Sprintf("%v-%v", ord, nl), func(t *testing.T) {
				checkKeySound(t, key, vecs, exact)
			})
		}
	}
}

// TestTruncVarcharSound pins the one lossy part of the encoding: a string
// longer than its key's prefix is truncated, and every byte-tie that
// truncation (or an embedded NUL) causes must be reported.
func TestTruncVarcharSound(t *testing.T) {
	t.Run("plain", func(t *testing.T) {
		var vecs []*vector.Vector
		for _, s := range []string{"", "a", "ab", "abc", "abcd", "abce", "abd", "ab\x00x", "b", "\x00NULL"} {
			vecs = append(vecs, stringsVec(s))
		}
		keyVariants(t, SortKey{Type: vector.Varchar, PrefixLen: 2}, vecs, false)
	})
	// Values sharing a leading "id-" that fills the whole prefix: every
	// pair past it ties on bytes and rests on the reported tie.
	t.Run("skip", func(t *testing.T) {
		var vecs []*vector.Vector
		for _, s := range []string{"", "a", "id", "id-", "id-0", "id-00", "id-0001", "id-0002", "id-01", "id-zz", "id.", "zz", "\x00NULL"} {
			vecs = append(vecs, stringsVec(s))
		}
		keyVariants(t, SortKey{Type: vector.Varchar, PrefixLen: 3}, vecs, false)
	})
	t.Run("skip collated", func(t *testing.T) {
		var vecs []*vector.Vector
		for _, s := range []string{"ID-7", "id-7", "Id-8", "IA", "JA", "\x00NULL"} {
			vecs = append(vecs, stringsVec(s))
		}
		keyVariants(t, SortKey{Type: vector.Varchar, Collation: CollationNoCase, PrefixLen: 3}, vecs, false)
	})
}

// TestTruncFixedSound pins that a fixed-width key is never truncated: its
// encoding orders exactly like the oracle and never reports a possible tie.
func TestTruncFixedSound(t *testing.T) {
	nullVec := func() *vector.Vector {
		nv := vector.New(vector.Int64, 1)
		nv.AppendNull()
		return nv
	}
	t.Run("plain", func(t *testing.T) {
		var vecs []*vector.Vector
		for _, x := range []int64{-1 << 62, -3, -1, 0, 1, 2, 3, 95, 96, 97, 1 << 40, 1<<62 + 1, 1<<62 + 2} {
			vecs = append(vecs, int64Vec(x))
		}
		keyVariants(t, SortKey{Type: vector.Int64}, append(vecs, nullVec()), true)
	})
	// A small domain whose encodings share their 7 leading bytes, with
	// neighbours just outside it: only the last byte separates most pairs.
	t.Run("skip", func(t *testing.T) {
		var vecs []*vector.Vector
		for _, x := range []int64{-256, -1, 0, 1, 2, 127, 128, 254, 255, 256, 511} {
			vecs = append(vecs, int64Vec(x))
		}
		keyVariants(t, SortKey{Type: vector.Int64}, append(vecs, nullVec()), true)
	})
}

// TestEncodeStatsReporting checks EncodeChunk's per-chunk tie flag: set
// exactly when some string row is cut at its prefix or holds a NUL byte,
// never for fixed-width keys or NULL rows.
func TestEncodeStatsReporting(t *testing.T) {
	keys := []SortKey{{Type: vector.Int32}, {Type: vector.Varchar, PrefixLen: 4}}
	enc, err := NewEncoder(keys)
	if err != nil {
		t.Fatal(err)
	}
	buf := make([]byte, 8*enc.Width())
	iv := func(n int) *vector.Vector {
		v := vector.New(vector.Int32, n)
		for i := 0; i < n; i++ {
			v.AppendInt32(int32(i * 7))
		}
		return v
	}
	for _, c := range []struct {
		vals []string
		ties bool
	}{
		{[]string{"ca", "wa", "ny", "abcd"}, false},
		{[]string{"ca", "\x00NULL", ""}, false},
		{[]string{"ca", "abcde"}, true},
		{[]string{"ca", "a\x00"}, true},
	} {
		st, err := enc.EncodeChunk([]*vector.Vector{iv(len(c.vals)), stringsVec(c.vals...)}, buf, enc.Width(), 0)
		if err != nil {
			t.Fatal(err)
		}
		if st.Ties != c.ties {
			t.Errorf("chunk %q reported Ties = %v, want %v", c.vals, st.Ties, c.ties)
		}
	}

	fixed, err := NewEncoder([]SortKey{{Type: vector.Int64}})
	if err != nil {
		t.Fatal(err)
	}
	st, err := fixed.EncodeChunk([]*vector.Vector{int64Vec(1, -5, 1<<50, 1<<50)}, buf, fixed.Width(), 0)
	if err != nil {
		t.Fatal(err)
	}
	if st.Ties || fixed.TiesPossible() {
		t.Fatalf("fixed-width key reported Ties = %v, TiesPossible = %v", st.Ties, fixed.TiesPossible())
	}
}
