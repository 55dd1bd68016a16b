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
