// Mergejoin demonstrates sorted data feeding another operator — the
// Section V-B pattern (merging iterators with full tuple comparisons) that
// motivates normalized keys. Two catalog_sales slices are joined on
// (warehouse, ship mode) with a sort-merge join built on the relational
// sorter.
//
//	go run ./examples/mergejoin [-left 100000] [-right 50000]
package main

import (
	"flag"
	"fmt"
	"log"
	"time"

	"rowsort/internal/core"
	"rowsort/internal/engine"
	"rowsort/internal/workload"
)

func main() {
	leftRows := flag.Int("left", 100_000, "left input rows")
	rightRows := flag.Int("right", 50_000, "right input rows")
	flag.Parse()

	left := workload.CatalogSales(*leftRows, 1, 21)
	right := workload.CatalogSales(*rightRows, 1, 22)

	start := time.Now()
	// Join on (cs_warehouse_sk, cs_ship_mode_sk); NULL keys never match.
	out, err := engine.MergeJoin(left, right, []int{0, 1}, []int{0, 1}, core.Options{})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("sort-merge join: %d x %d rows -> %d result rows in %.3fs\n",
		*leftRows, *rightRows, out.NumRows(), time.Since(start).Seconds())
	fmt.Printf("result schema: %d columns (left %d + right %d)\n",
		len(out.Schema), len(left.Schema), len(right.Schema))

	if out.NumRows() > 0 {
		fmt.Println("\nfirst matches (l.warehouse, l.shipmode | r.warehouse, r.shipmode):")
		lw, ls := out.Column(0), out.Column(1)
		rw, rs := out.Column(5), out.Column(6)
		for i := 0; i < 5 && i < out.NumRows(); i++ {
			fmt.Printf("  %v, %v | %v, %v\n", lw.Value(i), ls.Value(i), rw.Value(i), rs.Value(i))
		}
	}
}
