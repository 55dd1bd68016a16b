// Topn demonstrates the specialized ORDER BY ... LIMIT operator the paper's
// benchmark query has to outmaneuver: instead of fully sorting, a bounded
// heap of normalized keys keeps only the best n rows. The example compares
// it against the full sort and verifies both agree.
//
//	go run ./examples/topn [-rows 1000000] [-limit 10]
package main

import (
	"flag"
	"fmt"
	"log"
	"time"

	"rowsort/internal/core"
	"rowsort/internal/workload"
)

func main() {
	rows := flag.Int("rows", 1_000_000, "input rows")
	limit := flag.Int("limit", 10, "LIMIT n")
	flag.Parse()

	table := workload.CatalogSales(*rows, 10, 13)
	// ORDER BY cs_quantity DESC, cs_promo_sk NULLS LAST LIMIT n
	keys := []core.SortColumn{
		{Column: 3, Descending: true},
		{Column: 2, NullsLast: true},
	}

	start := time.Now()
	top, err := core.NewTopN(table.Schema, keys, *limit, core.Options{})
	if err != nil {
		log.Fatal(err)
	}
	for _, c := range table.Chunks {
		if err := top.Append(c); err != nil {
			log.Fatal(err)
		}
	}
	topResult, err := top.Result()
	if err != nil {
		log.Fatal(err)
	}
	if err := top.Close(); err != nil { // a no-op after Result; what an abandoned operator owes
		log.Fatal(err)
	}
	topTime := time.Since(start)

	start = time.Now()
	full, err := core.SortTable(table, keys, core.Options{})
	if err != nil {
		log.Fatal(err)
	}
	fullTime := time.Since(start)

	fmt.Printf("top-%d via heap:      %8.3fs\n", *limit, topTime.Seconds())
	fmt.Printf("top-%d via full sort: %8.3fs (%.1fx slower)\n",
		*limit, fullTime.Seconds(), fullTime.Seconds()/topTime.Seconds())

	// Verify the key columns agree on the first limit rows.
	fq, fp := full.Column(3), full.Column(2)
	tq, tp := topResult.Column(3), topResult.Column(2)
	for i := 0; i < topResult.NumRows(); i++ {
		if fq.Value(i) != tq.Value(i) || fp.Value(i) != tp.Value(i) {
			log.Fatalf("mismatch at row %d", i)
		}
	}
	fmt.Printf("verified: both orders agree on the first %d rows\n\n", topResult.NumRows())

	fmt.Println("top rows (cs_quantity DESC, cs_promo_sk):")
	for i := 0; i < topResult.NumRows() && i < 10; i++ {
		fmt.Printf("  quantity=%v promo=%v item=%v\n",
			tq.Value(i), tp.Value(i), topResult.Column(4).Value(i))
	}
}
