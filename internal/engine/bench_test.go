package engine

import (
	"testing"

	"rowsort/internal/core"
	"rowsort/internal/workload"
)

func BenchmarkMergeJoin(b *testing.B) {
	left := workload.CatalogSales(1<<14, 10, 4)
	right := workload.CatalogSales(1<<13, 10, 5)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := MergeJoin(left, right, []int{0, 1}, []int{0, 1}, core.Options{Threads: 2}); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkWindowRank(b *testing.B) {
	tbl := workload.Customer(1<<15, 6)
	spec := WindowSpec{PartitionBy: []int{4}, OrderBy: []core.SortColumn{{Column: 1}}}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := Window(tbl, spec, []WindowFunc{Rank}, core.Options{Threads: 2}); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkTopNVsFullSort(b *testing.B) {
	tbl := workload.CatalogSales(1<<16, 10, 3)
	keys := []core.SortColumn{{Column: 3, Descending: true}}
	b.Run("top100", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			top, err := NewTopNHeap(tbl.Schema, keys, 100, core.Options{})
			if err != nil {
				b.Fatal(err)
			}
			for _, c := range tbl.Chunks {
				if err := top.Append(c); err != nil {
					b.Fatal(err)
				}
			}
			if _, err := top.Result(); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("fullsort", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if _, err := core.SortTable(tbl, keys, core.Options{Threads: 2}); err != nil {
				b.Fatal(err)
			}
		}
	})
}
