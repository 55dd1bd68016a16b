package normkey

import (
	"bytes"
	"fmt"
	"math/rand"
	"testing"

	"rowsort/internal/vector"
	"rowsort/internal/workload"
)

func benchColumns(n int) []*vector.Vector {
	rng := workload.NewRNG(1)
	i32 := vector.New(vector.Int32, n)
	f64 := vector.New(vector.Float64, n)
	str := vector.New(vector.Varchar, n)
	for i := 0; i < n; i++ {
		i32.AppendInt32(int32(rng.Uint32()))
		f64.AppendFloat64(rng.Float64() * 1e6)
		str.AppendString(lastNamesSample[rng.Intn(len(lastNamesSample))])
	}
	return []*vector.Vector{i32, f64, str}
}

var lastNamesSample = []string{"Smith", "Johnson", "Garcia", "Nakamura", "Okafor", "Silva"}

// BenchmarkEncode measures vector-at-a-time key normalization — the
// conversion cost the paper argues is worth paying.
func BenchmarkEncode(b *testing.B) {
	const n = 1 << 14
	cols := benchColumns(n)
	enc, err := NewEncoder([]SortKey{
		{Type: vector.Int32},
		{Type: vector.Float64, Order: Descending},
		{Type: vector.Varchar, Nulls: NullsLast},
	})
	if err != nil {
		b.Fatal(err)
	}
	out := make([]byte, n*enc.Width())
	b.SetBytes(int64(len(out)))
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if err := enc.Encode(cols, out, enc.Width(), 0); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkEncodeChunk times one key column at a time, per type and direction,
// with and without NULLs, into key rows laid out as the sorter lays them out
// (the key, an 8-byte reference, padded to 8). Varchar draws mixed-case names
// and runs under both collations.
func BenchmarkEncodeChunk(b *testing.B) {
	const n = vector.DefaultVectorSize
	rng := rand.New(rand.NewSource(5))
	for _, typ := range allTypes {
		for _, nullRate := range []float64{0, 0.04} {
			vec := randomVector(typ, n, nullRate, false, rng)
			if typ == vector.Varchar {
				vec = vector.New(typ, n)
				for i := 0; i < n; i++ {
					if rng.Float64() < nullRate {
						vec.AppendNull()
					} else {
						vec.AppendString(lastNamesSample[rng.Intn(len(lastNamesSample))])
					}
				}
			}
			for _, order := range []Order{Ascending, Descending} {
				key := SortKey{Type: typ, Order: order}
				name := fmt.Sprintf("%v/%v/nulls=%v", typ, order, nullRate > 0)
				benchEncodeColumn(b, name, key, vec)
				if typ == vector.Varchar {
					key.Collation = CollationNoCase
					benchEncodeColumn(b, name+"/nocase", key, vec)
				}
			}
		}
	}
}

// decoded keeps BenchmarkDecodeColumn's result live.
var decoded *vector.Vector

// BenchmarkDecodeColumn times the decode kernel over a 2,048-row chunk of
// key rows, per exact type and direction, with and without NULLs, laid out as
// the sorter lays them out and handed over as the drain hands them: one key
// row each.
func BenchmarkDecodeColumn(b *testing.B) {
	const n = vector.DefaultVectorSize
	rng := rand.New(rand.NewSource(6))
	for _, typ := range allTypes {
		if !(SortKey{Type: typ}).Exact() {
			continue
		}
		for _, nullRate := range []float64{0, 0.04} {
			vec := randomVector(typ, n, nullRate, false, rng)
			for _, order := range []Order{Ascending, Descending} {
				enc, err := NewEncoder([]SortKey{{Type: typ, Order: order}})
				if err != nil {
					b.Fatal(err)
				}
				stride := (enc.Width() + 8 + 7) &^ 7
				out := make([]byte, n*stride)
				if err := enc.Encode([]*vector.Vector{vec}, out, stride, 0); err != nil {
					b.Fatal(err)
				}
				rows := make([][]byte, n)
				for i := range rows {
					rows[i] = out[i*stride : (i+1)*stride]
				}
				b.Run(fmt.Sprintf("%v/%v/nulls=%v", typ, order, nullRate > 0), func(b *testing.B) {
					b.ReportAllocs()
					for i := 0; i < b.N; i++ {
						decoded = enc.DecodeColumn(0, rows)
					}
					b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N)/n, "ns/row")
				})
			}
		}
	}
}

func benchEncodeColumn(b *testing.B, name string, key SortKey, vec *vector.Vector) {
	enc, err := NewEncoder([]SortKey{key})
	if err != nil {
		b.Fatal(err)
	}
	stride := (enc.Width() + 8 + 7) &^ 7
	out := make([]byte, vec.Len()*stride)
	cols := []*vector.Vector{vec}
	b.Run(name, func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if _, err := enc.EncodeChunk(cols, out, stride, 0); err != nil {
				b.Fatal(err)
			}
		}
		b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N)/float64(vec.Len()), "ns/row")
	})
}

// BenchmarkCompareKeysVsTuples contrasts one bytes.Compare on normalized
// keys with the dynamic per-column tuple comparison — the paper's central
// trade.
func BenchmarkCompareKeysVsTuples(b *testing.B) {
	const n = 1 << 12
	cols := benchColumns(n)
	keys := []SortKey{
		{Type: vector.Int32},
		{Type: vector.Float64},
		{Type: vector.Varchar},
	}
	enc, err := NewEncoder(keys)
	if err != nil {
		b.Fatal(err)
	}
	out := make([]byte, n*enc.Width())
	if err := enc.Encode(cols, out, enc.Width(), 0); err != nil {
		b.Fatal(err)
	}
	w := enc.Width()

	b.Run("memcmp", func(b *testing.B) {
		b.ReportAllocs()
		sink := 0
		for i := 0; i < b.N; i++ {
			a := (i * 31) % n
			c := (i * 17) % n
			sink += bytes.Compare(out[a*w:(a+1)*w], out[c*w:(c+1)*w])
		}
		_ = sink
	})
	b.Run("tuple", func(b *testing.B) {
		b.ReportAllocs()
		sink := 0
		for i := 0; i < b.N; i++ {
			a := (i * 31) % n
			c := (i * 17) % n
			sink += CompareRows(keys, cols, a, c)
		}
		_ = sink
	})
}
