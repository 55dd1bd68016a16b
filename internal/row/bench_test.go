package row

import (
	"testing"

	"rowsort/internal/vector"
	"rowsort/internal/workload"
)

func benchChunk(n int) ([]vector.Type, []*vector.Vector) {
	rng := workload.NewRNG(1)
	types := []vector.Type{vector.Int32, vector.Int64, vector.Float64, vector.Varchar}
	i32 := vector.New(vector.Int32, n)
	i64 := vector.New(vector.Int64, n)
	f64 := vector.New(vector.Float64, n)
	str := vector.New(vector.Varchar, n)
	for i := 0; i < n; i++ {
		i32.AppendInt32(int32(rng.Uint32()))
		i64.AppendInt64(int64(rng.Uint64()))
		f64.AppendFloat64(rng.Float64())
		str.AppendString("payload-string")
	}
	return types, []*vector.Vector{i32, i64, f64, str}
}

// BenchmarkScatter measures the DSM-to-NSM conversion (Figure 1, left):
// eight chunks into a set that starts empty and grows as they arrive, and
// into one reserved once and emptied between rounds, as a sink's is.
func BenchmarkScatter(b *testing.B) {
	const chunks = 8
	types, vecs := benchChunk(1 << 11)
	layout := NewLayout(types)
	fill := func(b *testing.B, rs *RowSet) {
		for c := 0; c < chunks; c++ {
			if err := rs.AppendChunk(vecs); err != nil {
				b.Fatal(err)
			}
		}
	}
	b.Run("fresh", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			fill(b, NewRowSet(layout))
		}
	})
	b.Run("reserved", func(b *testing.B) {
		rs := NewRowSet(layout)
		fill(b, rs)
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			rs.Reset()
			fill(b, rs)
		}
	})
}

// BenchmarkGather measures the NSM-to-DSM conversion (Figure 1, right).
func BenchmarkGather(b *testing.B) {
	types, vecs := benchChunk(1 << 14)
	rs := NewRowSet(NewLayout(types))
	if err := rs.AppendChunk(vecs); err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		rs.GatherChunk(0, rs.Len())
	}
}

// BenchmarkAppendRowFrom measures run payload reordering.
func BenchmarkAppendRowFrom(b *testing.B) {
	types, vecs := benchChunk(1 << 14)
	src := NewRowSet(NewLayout(types))
	if err := src.AppendChunk(vecs); err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		dst := NewRowSet(src.Layout())
		dst.Reserve(src.Len())
		for r := src.Len() - 1; r >= 0; r-- {
			dst.AppendRowFrom(src, r)
		}
	}
}

// BenchmarkGatherIndexed compares the value-at-a-time AppendTo loop with the
// typed indexed kernels on a reversed permutation — the per-value vs
// per-vector type-dispatch difference in isolation.
func BenchmarkGatherIndexed(b *testing.B) {
	types, vecs := benchChunk(1 << 14)
	rs := NewRowSet(NewLayout(types))
	if err := rs.AppendChunk(vecs); err != nil {
		b.Fatal(err)
	}
	idxs := make([]uint32, rs.Len())
	for i := range idxs {
		idxs[i] = uint32(rs.Len() - 1 - i)
	}
	b.Run("scalar", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			for c, t := range types {
				v := vector.New(t, len(idxs))
				for _, x := range idxs {
					rs.AppendTo(v, int(x), c)
				}
			}
		}
	})
	b.Run("vectorized", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			rs.GatherRows(idxs)
		}
	})
}

// BenchmarkAppendRowsFrom compares the per-row payload permute with the
// batched one (one row-copy loop plus a single heap-compaction pass).
func BenchmarkAppendRowsFrom(b *testing.B) {
	types, vecs := benchChunk(1 << 14)
	src := NewRowSet(NewLayout(types))
	if err := src.AppendChunk(vecs); err != nil {
		b.Fatal(err)
	}
	idxs := make([]uint32, src.Len())
	for i := range idxs {
		idxs[i] = uint32(src.Len() - 1 - i)
	}
	b.Run("scalar", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			dst := NewRowSet(src.Layout())
			dst.Reserve(src.Len())
			for _, x := range idxs {
				dst.AppendRowFrom(src, int(x))
			}
		}
	})
	b.Run("batched", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			dst := NewRowSet(src.Layout())
			dst.Reserve(src.Len())
			dst.AppendRowsFrom(src, idxs)
		}
	})
}
