// Package rowsort's top-level benchmarks regenerate every table and figure
// of the paper through the bench harness (one Benchmark per experiment id,
// at tiny scale so `go test -bench=.` stays fast — use cmd/sortbench with
// -scale small|paper for the real runs), plus the drain of Sorter.Rows and
// the one ablation no package benchmark or benchmark/ workload measures yet.
package rowsort

import (
	"fmt"
	"io"
	"testing"

	"rowsort/internal/bench"
	"rowsort/internal/core"
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

// BenchmarkAblationPrefixLen sweeps the normalized string prefix length:
// short prefixes shrink keys but force more tie-breaks. Its shared-prefix
// arm is the tie-break's worst case: 2^17 URLs whose common start fills the
// prefix, so every run is one group of byte-equal keys that the comparator
// alone orders.
func BenchmarkAblationPrefixLen(b *testing.B) {
	sortTable := func(b *testing.B, tbl *vector.Table, keys []core.SortColumn, threads int) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if _, err := core.SortTable(tbl, keys, core.Options{Threads: threads}); err != nil {
				b.Fatal(err)
			}
		}
	}
	tbl := workload.Customer(20_000, 4)
	for _, prefix := range []int{2, 4, 8, 12, 16} {
		b.Run(fmt.Sprintf("prefix=%d", prefix), func(b *testing.B) {
			sortTable(b, tbl, []core.SortColumn{{Column: 4, PrefixLen: prefix}, {Column: 5, PrefixLen: prefix}}, 2)
		})
	}
	urls := workload.SharedPrefixStrings(1<<17, 5)
	for _, threads := range []int{1, 2} {
		b.Run(fmt.Sprintf("shared-prefix/threads=%d", threads), func(b *testing.B) {
			sortTable(b, urls, []core.SortColumn{{Column: 0}}, threads)
		})
	}
}

// finalizedSorter ingests tbl through one sink and finalizes the sort: the
// state a drain of Rows starts from. The caller closes it.
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
	return s
}

// benchDrain times full drains of Rows and reports ns per output row. sorter
// returns a finalized sort, untimed. A resident result is re-iterable, so one
// sort serves every drain; one on disk (spilled) is read once, so each drain
// gets a fresh sort, closed after it outside the timer: no drain runs beside
// the sorts before it.
func benchDrain(b *testing.B, spilled bool, sorter func() *core.Sorter) {
	b.ReportAllocs()
	rows := 0
	var s *core.Sorter
	closeSort := func() {
		if err := s.Close(); err != nil {
			b.Fatal(err)
		}
		s = nil
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		if s == nil {
			s = sorter()
		}
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
		if spilled {
			b.StopTimer()
			closeSort()
			b.StartTimer()
		}
	}
	b.StopTimer()
	if s != nil {
		closeSort()
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(rows), "ns/row")
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
// 9-byte key, 8-byte payload riding inline in 24-byte key rows: the merge
// dominates) and mem-wide-payload (2^20
// rows of 125 bytes: the gather does) — and on mem-customer-str's (2^20
// customer rows keyed on both names, every name held by its key: the gather
// reads them from the key rows), at the sorter's default run size, and
// on ext-catalog-spill's (2^20 rows by four keys in 16 spilled runs of 2^16:
// the same merge, its runs read back block by block), and on 2^18 URLs whose
// shared start fills the key prefix in 16 spilled runs of 2^14 (every
// comparison a tie-break, the bounds' among them), inline (Threads: 1)
// against two workers; and, inline, on a result of one run (2^17 rows, the
// default run size), which merges through a one-run tree.
func BenchmarkRowsDrain(b *testing.B) {
	one := []core.SortColumn{{Column: 0}}
	for _, wl := range []struct {
		name    string
		gen     func() *vector.Table
		keys    []core.SortColumn
		opt     core.Options
		threads []int
	}{
		{"uniform-int", func() *vector.Table { return workload.UniformInt64s(1<<21, 42) }, one, core.Options{}, []int{1, 2}},
		{"wide-payload", func() *vector.Table { return widePayloadTable(1<<20, 42) }, one, core.Options{}, []int{1, 2}},
		{"customer-str", func() *vector.Table { return workload.Customer(1<<20, 42) },
			[]core.SortColumn{{Column: 4}, {Column: 5}}, core.Options{}, []int{1, 2}},
		{"catalog-spill", func() *vector.Table { return workload.CatalogSales(1<<20, 10, 42) },
			[]core.SortColumn{{Column: 0}, {Column: 1}, {Column: 2}, {Column: 3}}, core.Options{RunSize: 1 << 16, SpillDir: b.TempDir()}, []int{1, 2}},
		{"shared-prefix-spill", func() *vector.Table { return workload.SharedPrefixStrings(1<<18, 5) }, one,
			core.Options{RunSize: 1 << 14, SpillDir: b.TempDir()}, []int{1, 2}},
		{"one-run", func() *vector.Table { return workload.UniformInt64s(core.DefaultRunSize, 42) }, one, core.Options{}, []int{1}},
	} {
		b.Run(wl.name, func(b *testing.B) {
			tbl := wl.gen()
			for _, threads := range wl.threads {
				b.Run(fmt.Sprintf("threads=%d", threads), func(b *testing.B) {
					opt := wl.opt
					opt.Threads = threads
					benchDrain(b, opt.SpillDir != "", func() *core.Sorter { return finalizedSorter(b, tbl, wl.keys, opt) })
				})
			}
		})
	}
}
