// Package rowsort's top-level benchmarks regenerate every table and figure
// of the paper through the bench harness (one Benchmark per experiment id,
// at tiny scale so `go test -bench=.` stays fast — use cmd/sortbench with
// -scale small|paper for the real runs), plus ablation benchmarks for the
// design choices called out in DESIGN.md.
package rowsort

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"io"
	"testing"

	"rowsort/internal/bench"
	"rowsort/internal/core"
	"rowsort/internal/mergepath"
	"rowsort/internal/radix"
	"rowsort/internal/row"
	"rowsort/internal/rowcmp"
	"rowsort/internal/sortalgo"
	"rowsort/internal/vector"
	"rowsort/internal/workload"
)

func benchExperiment(b *testing.B, id string) {
	e, ok := bench.ByID(id)
	if !ok {
		b.Fatalf("experiment %s not registered", id)
	}
	cfg := bench.Config{Scale: bench.ScaleTiny, Threads: 2, Seed: 1}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if err := e.Run(io.Discard, cfg); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkTable1(b *testing.B)    { benchExperiment(b, "table1") }
func BenchmarkTable2(b *testing.B)    { benchExperiment(b, "table2") }
func BenchmarkTable3(b *testing.B)    { benchExperiment(b, "table3") }
func BenchmarkTable4(b *testing.B)    { benchExperiment(b, "table4") }
func BenchmarkFig2(b *testing.B)      { benchExperiment(b, "fig2") }
func BenchmarkFig3(b *testing.B)      { benchExperiment(b, "fig3") }
func BenchmarkFig4(b *testing.B)      { benchExperiment(b, "fig4") }
func BenchmarkFig5(b *testing.B)      { benchExperiment(b, "fig5") }
func BenchmarkFig6(b *testing.B)      { benchExperiment(b, "fig6") }
func BenchmarkFig7(b *testing.B)      { benchExperiment(b, "fig7") }
func BenchmarkFig8(b *testing.B)      { benchExperiment(b, "fig8") }
func BenchmarkFig9(b *testing.B)      { benchExperiment(b, "fig9") }
func BenchmarkFig10(b *testing.B)     { benchExperiment(b, "fig10") }
func BenchmarkFig11(b *testing.B)     { benchExperiment(b, "fig11") }
func BenchmarkFig12(b *testing.B)     { benchExperiment(b, "fig12") }
func BenchmarkFig13(b *testing.B)     { benchExperiment(b, "fig13") }
func BenchmarkFig14(b *testing.B)     { benchExperiment(b, "fig14") }
func BenchmarkCompModel(b *testing.B) { benchExperiment(b, "compmodel") }

// --- Ablations -----------------------------------------------------------

// BenchmarkAblationRadixSkip measures the single-bucket skip optimization
// on keys with a long shared prefix (where it matters most).
func BenchmarkAblationRadixSkip(b *testing.B) {
	const n, rowW, keyW = 1 << 15, 16, 12
	rng := workload.NewRNG(1)
	base := make([]byte, n*rowW)
	for i := 0; i < n; i++ {
		// 8 constant bytes, then 4 random: 8 skippable MSD levels.
		copy(base[i*rowW:], []byte{9, 9, 9, 9, 9, 9, 9, 9})
		for j := 8; j < keyW; j++ {
			base[i*rowW+j] = byte(rng.Intn(256))
		}
	}
	for _, opt := range []struct {
		name string
		o    radix.Options
	}{
		{"skip-on", radix.Options{}},
		{"skip-off", radix.Options{NoSingleBucketSkip: true}},
	} {
		b.Run(opt.name, func(b *testing.B) {
			data := make([]byte, len(base))
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				copy(data, base)
				radix.SortOpts(data, rowW, keyW, opt.o)
			}
		})
	}
}

// BenchmarkAblationLSDvsMSD sweeps key width to expose the LSD/MSD
// crossover behind the paper's "LSD when keyWidth <= 4" rule.
func BenchmarkAblationLSDvsMSD(b *testing.B) {
	const n = 1 << 15
	rng := workload.NewRNG(2)
	for _, keyW := range []int{2, 4, 8, 16} {
		rowW := (keyW + 4 + 7) &^ 7
		base := make([]byte, n*rowW)
		for i := 0; i < n*rowW; i++ {
			base[i] = byte(rng.Intn(256))
		}
		for _, variant := range []struct {
			name string
			o    radix.Options
		}{
			{"lsd", radix.Options{ForceLSD: true}},
			{"msd", radix.Options{ForceMSD: true}},
		} {
			b.Run(fmt.Sprintf("keyW=%d/%s", keyW, variant.name), func(b *testing.B) {
				data := make([]byte, len(base))
				b.ReportAllocs()
				for i := 0; i < b.N; i++ {
					copy(data, base)
					radix.SortOpts(data, rowW, keyW, variant.o)
				}
			})
		}
	}
}

// BenchmarkAblationMergePath compares the final 2-run merge with and
// without Merge Path parallelism — the phase the algorithm exists for.
func BenchmarkAblationMergePath(b *testing.B) {
	const n = 1 << 17
	cols := workload.Dist{Random: true}.Generate(n, 1, 3)
	data, rowW, keyW := rowcmp.EncodeNormalized(cols)
	half := (n / 2) * rowW
	radix.Sort(data[:half], rowW, keyW)
	radix.Sort(data[half:], rowW, keyW)
	a := mergepath.Run{Data: data[:half], Width: rowW}
	c := mergepath.Run{Data: data[half:], Width: rowW}
	dst := make([]byte, len(data))
	for _, p := range []int{1, 4} {
		b.Run(fmt.Sprintf("threads=%d", p), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				mergepath.ParallelMerge(dst, a, c, nil, p)
			}
		})
	}
}

// BenchmarkAblationPrefixLen sweeps the normalized string prefix length:
// short prefixes shrink keys but force more tie-breaks.
func BenchmarkAblationPrefixLen(b *testing.B) {
	tbl := workload.Customer(20_000, 4)
	for _, prefix := range []int{2, 4, 8, 12, 16} {
		b.Run(fmt.Sprintf("prefix=%d", prefix), func(b *testing.B) {
			keys := []core.SortColumn{{Column: 4, PrefixLen: prefix}, {Column: 5, PrefixLen: prefix}}
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, err := core.SortTable(tbl, keys, core.Options{Threads: 2}); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkAblationAlignment measures the 8-byte row alignment the paper
// adopted for memcpy performance against packed rows.
func BenchmarkAblationAlignment(b *testing.B) {
	types := []vector.Type{vector.Int32, vector.Int16, vector.Int8}
	tbl := workload.CatalogSales(1<<14, 10, 5)
	chunk := tbl.Chunks[0]
	// Re-type the first three columns to the layout under test.
	vecs := []*vector.Vector{
		vector.New(vector.Int32, chunk.Len()),
		vector.New(vector.Int16, chunk.Len()),
		vector.New(vector.Int8, chunk.Len()),
	}
	for i := 0; i < chunk.Len(); i++ {
		vecs[0].AppendInt32(int32(i))
		vecs[1].AppendInt16(int16(i))
		vecs[2].AppendInt8(int8(i))
	}
	for _, align := range []int{1, 8} {
		b.Run(fmt.Sprintf("align=%d", align), func(b *testing.B) {
			layout := row.NewLayoutAligned(types, align)
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				rs := row.NewRowSet(layout)
				if err := rs.AppendChunk(vecs); err != nil {
					b.Fatal(err)
				}
				rs.GatherChunk(0, rs.Len())
			}
		})
	}
}

// finalizedSorter ingests tbl through one sink and finalizes the sort: the
// state a drain of Rows starts from. A resident sort is re-iterable, so one
// sorter serves every iteration of a drain benchmark.
func finalizedSorter(b *testing.B, tbl *vector.Table, keys []core.SortColumn, opt core.Options) *core.Sorter {
	b.Helper()
	s, err := core.NewSorter(tbl.Schema, keys, opt)
	if err != nil {
		b.Fatal(err)
	}
	sink := s.NewSink()
	for _, c := range tbl.Chunks {
		if err := sink.Append(c); err != nil {
			b.Fatal(err)
		}
	}
	if err := sink.Close(); err != nil {
		b.Fatal(err)
	}
	if err := s.Finalize(); err != nil {
		b.Fatal(err)
	}
	b.Cleanup(func() { s.Close() })
	return s
}

// benchDrain times full drains of Rows and reports ns per output row. sorter
// returns the finalized sort to drain next, untimed: the same one every
// time when its runs are resident, a fresh one when they are on disk and can
// be read once.
func benchDrain(b *testing.B, sorter func() *core.Sorter) {
	b.ReportAllocs()
	rows := 0
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		s := sorter()
		b.StartTimer()
		it, err := s.Rows()
		if err != nil {
			b.Fatal(err)
		}
		for {
			c, err := it.Next()
			if err != nil {
				b.Fatal(err)
			}
			if c == nil {
				break
			}
			rows += c.Len()
		}
		if err := it.Close(); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(rows), "ns/row")
}

// BenchmarkAblationGather isolates the last stage of Figure 11 on the
// paper's string query — the lazy Merge Path merge of eight sorted runs fused
// into the NSM→DSM gather — run inline on the consumer (Threads: 1) and
// spread over four workers.
func BenchmarkAblationGather(b *testing.B) {
	tbl := workload.Customer(1<<18, 9) // four tasks of the drain
	keys := []core.SortColumn{{Column: 4}, {Column: 5}}
	for _, threads := range []int{1, 4} {
		b.Run(fmt.Sprintf("threads=%d", threads), func(b *testing.B) {
			s := finalizedSorter(b, tbl, keys, core.Options{Threads: threads, RunSize: 1 << 15})
			benchDrain(b, func() *core.Sorter { return s })
		})
	}
}

// widePayloadTable is the benchmark module's mem-wide-payload shape: an
// Int32 key, twelve Int64 and one 24-byte Varchar payload column, about 125
// bytes a row.
func widePayloadTable(n int, seed uint64) *vector.Table {
	schema := vector.Schema{{Name: "k", Type: vector.Int32}}
	for i := 0; i < 12; i++ {
		schema = append(schema, vector.Column{Name: fmt.Sprintf("p%d", i), Type: vector.Int64})
	}
	schema = append(schema, vector.Column{Name: "s", Type: vector.Varchar})
	rng := workload.NewRNG(seed)
	t := vector.NewTable(schema)
	for done := 0; done < n; {
		count := min(vector.DefaultVectorSize, n-done)
		c := vector.NewChunk(schema, count)
		for r := 0; r < count; r++ {
			c.Vectors[0].AppendInt32(int32(rng.Uint32()))
			for p := 1; p <= 12; p++ {
				c.Vectors[p].AppendInt64(int64(rng.Uint64()))
			}
			c.Vectors[13].AppendString(fmt.Sprintf("%024x", rng.Uint64()))
		}
		t.Chunks = append(t.Chunks, c)
		done += count
	}
	return t
}

// BenchmarkRowsDrain is the drain of Sorter.Rows out of cache, on the two
// in-memory benchmark shapes that bracket it — mem-uniform-int (2^21 rows,
// 9-byte key, 8-byte payload: the merge dominates) and mem-wide-payload (2^20
// rows of 125 bytes: the gather does) — at the sorter's default run size, and
// on ext-catalog-spill's (2^20 rows by four keys in 16 spilled runs of 2^16:
// the same merge, its runs read back block by block), inline (Threads: 1)
// against two workers.
func BenchmarkRowsDrain(b *testing.B) {
	one := []core.SortColumn{{Column: 0}}
	for _, wl := range []struct {
		name string
		gen  func() *vector.Table
		keys []core.SortColumn
		opt  core.Options
	}{
		{"uniform-int", func() *vector.Table { return workload.UniformInt64s(1<<21, 42) }, one, core.Options{}},
		{"wide-payload", func() *vector.Table { return widePayloadTable(1<<20, 42) }, one, core.Options{}},
		{"catalog-spill", func() *vector.Table { return workload.CatalogSales(1<<20, 10, 42) },
			[]core.SortColumn{{Column: 0}, {Column: 1}, {Column: 2}, {Column: 3}}, core.Options{RunSize: 1 << 16, SpillDir: b.TempDir()}},
	} {
		b.Run(wl.name, func(b *testing.B) {
			tbl := wl.gen()
			for _, threads := range []int{1, 2} {
				b.Run(fmt.Sprintf("threads=%d", threads), func(b *testing.B) {
					opt := wl.opt
					opt.Threads = threads
					var s *core.Sorter
					benchDrain(b, func() *core.Sorter {
						if s == nil || opt.SpillDir != "" {
							s = finalizedSorter(b, tbl, wl.keys, opt)
						}
						return s
					})
				})
			}
		})
	}
}

// BenchmarkAblationRunSize sweeps the thread-local run size: the
// run-generation vs merge trade-off of the Section II model.
func BenchmarkAblationRunSize(b *testing.B) {
	cols := workload.Dist{Random: true}.Generate(1<<16, 2, 6)
	tbl := workload.UintColumnsTable(cols)
	keys := []core.SortColumn{{Column: 0}, {Column: 1}}
	for _, runSize := range []int{1 << 12, 1 << 14, 1 << 16} {
		b.Run(fmt.Sprintf("runSize=%d", runSize), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, err := core.SortTable(tbl, keys, core.Options{Threads: 4, RunSize: runSize}); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkAblationAdaptive measures the kernels the Future Work
// algorithm-choice planner chooses between, on the input where they disagree
// most: a presorted run, which the paper's fixed rule would radix-sort and the
// sampled plan hands to pdqsort's pattern detector (sortbench -exp adaptive
// has the other shapes and the planner's regret on each).
func BenchmarkAblationAdaptive(b *testing.B) {
	const n, rowW, keyW = 1 << 16, 16, 8
	base := make([]byte, n*rowW)
	for i := 0; i < n; i++ {
		binary.BigEndian.PutUint64(base[i*rowW:], uint64(i))
	}
	for _, k := range []struct {
		name string
		sort func(data []byte)
	}{
		{"radix", func(data []byte) { radix.Sort(data, rowW, keyW) }},
		{"pdqsort", func(data []byte) {
			r := sortalgo.NewRows(data, rowW)
			r.Compare = func(a, b []byte) int { return bytes.Compare(a[:keyW], b[:keyW]) }
			r.Pdqsort()
		}},
	} {
		b.Run("presorted/"+k.name, func(b *testing.B) {
			data := make([]byte, len(base))
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				copy(data, base)
				k.sort(data)
			}
		})
	}
}
