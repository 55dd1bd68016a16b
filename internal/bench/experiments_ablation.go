package bench

import (
	"fmt"
	"io"

	"rowsort/internal/core"
)

func init() {
	register("gather", "Ablation: Rows drain (final merge fused into the gather) — 1 thread vs parallel",
		runGatherAblation)
}

// runGatherAblation isolates the final pipeline stage — the lazy Merge Path
// merge of the sorted runs fused into the scan back to vectors — and compares
// the drain run inline on the consumer (Threads: 1) against the same tasks
// spread over workers. The customer workload includes string keys and
// payload, so the varchar heap compaction path is exercised alongside the
// fixed-width kernels.
func runGatherAblation(w io.Writer, cfg Config) error {
	if err := cfg.valid(); err != nil {
		return err
	}
	for _, wl := range mergeWorkloads(cfg) {
		t := &Table{
			Title:  fmt.Sprintf("%s, %s rows", wl.name, Count(uint64(wl.tbl.NumRows()))),
			Header: []string{"variant", "time"},
		}
		// Eight runs, so that the drain has a merge to do. A resident sort is
		// re-iterable, so each variant is re-measured on one finalized sorter.
		runSize := max(1, wl.tbl.NumRows()/8)
		for _, threads := range []int{1, cfg.threads()} {
			s := ingestSorter(wl.tbl, wl.keys, core.Options{Threads: threads, RunSize: runSize}, false)
			if err := s.Finalize(); err != nil {
				return err
			}
			d := MedianTime(cfg.reps(), func() {
				if _, err := s.Result(); err != nil {
					panic(err)
				}
			})
			t.AddRow(fmt.Sprintf("merge + gather, threads=%d", threads), Seconds(d))
			if err := s.Close(); err != nil {
				return err
			}
		}
		t.Render(w)
	}
	return nil
}
