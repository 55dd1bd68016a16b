package bench

import (
	"fmt"
	"io"
	"os"
	"time"

	"rowsort/internal/core"
	"rowsort/internal/mem"
	"rowsort/internal/vector"
	"rowsort/internal/workload"
)

func init() {
	register("parallel", "Parallel external sort: threads/read-ahead ablation under spill",
		runParallelAblation)
}

// chunkSink is the common surface of core.Sink and core.ParallelSink.
type chunkSink interface {
	Append(*vector.Chunk) error
	Close() error
}

// extSortOnce runs one end-to-end external sort — ingest, finalize, streamed
// drain — and returns wall time + stats.
func extSortOnce(tbl *vector.Table, keys []core.SortColumn, opt core.Options, parIngest bool) (time.Duration, core.SortStats) {
	start := time.Now()
	st := drainSorter(ingestSorter(tbl, keys, opt, parIngest), tbl.NumRows())
	return time.Since(start), st
}

// ingestSorter feeds tbl to a fresh sorter (through a single Sink or a
// ParallelSink) and stops right before Finalize.
func ingestSorter(tbl *vector.Table, keys []core.SortColumn, opt core.Options, parIngest bool) *core.Sorter {
	s, err := core.NewSorter(tbl.Schema, keys, opt)
	if err != nil {
		panic(err)
	}
	var sink chunkSink
	if parIngest {
		sink = s.NewParallelSink()
	} else {
		sink = s.NewSink()
	}
	for _, c := range tbl.Chunks {
		if err := sink.Append(c); err != nil {
			panic(err)
		}
	}
	if err := sink.Close(); err != nil {
		panic(err)
	}
	return s
}

// drainSorter is a sort's merge phase: Finalize, then the drain of the result
// iterator the merge is fused into, which must yield want rows. It closes the
// sorter and returns its stats.
func drainSorter(s *core.Sorter, want int) core.SortStats {
	if err := s.Finalize(); err != nil {
		panic(err)
	}
	it, err := s.Rows()
	if err != nil {
		panic(err)
	}
	rows := 0
	for {
		c, err := it.Next()
		if err != nil {
			panic(err)
		}
		if c == nil {
			break
		}
		rows += c.Len()
	}
	if err := it.Close(); err != nil {
		panic(err)
	}
	if rows != want {
		panic(fmt.Sprintf("bench: the drain produced %d of %d rows", rows, want))
	}
	st := s.Stats()
	if err := s.Close(); err != nil {
		panic(err)
	}
	return st
}

// runParallelAblation measures what each layer of the parallel external
// sort buys on a spilling workload. The feature ladder is cumulative:
//
//	scalar      single sink, Threads: 1, no read-ahead: the final merge
//	            decodes each block when it gets there
//	+threads    Threads: N — ingest fans out to N sinks (ParallelSink), Rows
//	            merges and gathers fence-cut tasks on N workers
//	+readahead  the block stage decodes ahead of the merges, in forecast order
//
// The first grid spills eagerly (SpillDir, unlimited memory) across thread
// counts; the second runs the scalar and full pipelines under memory
// budgets, where the final merge is one task inside Next (so the threads
// arm degenerates to parallel ingest plus read-ahead — the planner trades
// merge workers for bounded memory).
func runParallelAblation(w io.Writer, cfg Config) error {
	if err := cfg.valid(); err != nil {
		return err
	}
	tbl := workload.CatalogSales(cfg.counterRows(), 10, cfg.seed())
	keys := []core.SortColumn{{Column: 0}, {Column: 1}, {Column: 2}, {Column: 3}}
	// Few, large runs: each run spans several spill blocks, so the final
	// merge is cut into several tasks.
	runSize := max(1, tbl.NumRows()/8)

	dir, err := os.MkdirTemp("", "rowsort-parallel-bench-*")
	if err != nil {
		return err
	}
	err = runParallelGrids(w, cfg, tbl, keys, runSize, dir)
	if rerr := os.RemoveAll(dir); err == nil {
		err = rerr
	}
	return err
}

// runParallelGrids renders the two ablation grids into dir's spill files.
func runParallelGrids(w io.Writer, cfg Config, tbl *vector.Table, keys []core.SortColumn, runSize int, dir string) error {
	arm := func(t int, readAhead int) core.Options {
		return core.Options{Threads: t, RunSize: runSize, SpillDir: dir,
			ReadAhead: readAhead, Telemetry: cfg.Telemetry}
	}

	var scalarStats core.SortStats
	scalarTime := MedianTime(cfg.reps(), func() {
		_, scalarStats = extSortOnce(tbl, keys, arm(1, -1), false)
	})

	grid := &Table{
		Title: fmt.Sprintf("catalog_sales, %s rows by 4 keys, eager spill (%s), streamed drain (scalar arm: %s)",
			Count(uint64(tbl.NumRows())), Bytes(int64(scalarStats.SpillBytesWritten)), Seconds(scalarTime)),
		Header: []string{"threads", "+threads", "+readahead",
			"speedup", "prefetch hit", "merge tasks"},
	}
	threadArms := []int{1, 2, 4, 8}
	for _, t := range threadArms {
		threadsTime := MedianTime(cfg.reps(), func() {
			extSortOnce(tbl, keys, arm(t, -1), true)
		})
		var full core.SortStats
		fullTime := MedianTime(cfg.reps(), func() {
			_, full = extSortOnce(tbl, keys, arm(t, 0), true)
		})
		hitRate := "-"
		if full.PrefetchedBlocks > 0 {
			hitRate = fmt.Sprintf("%.0f%%", 100*float64(full.PrefetchHits)/float64(full.PrefetchedBlocks))
		}
		grid.AddRow(fmt.Sprintf("%d", t),
			Seconds(threadsTime), Seconds(fullTime),
			Ratio(scalarTime, fullTime), hitRate,
			Count(uint64(full.ExtMergeParts)))
	}
	grid.Render(w)

	// Budget grid: the streamed budgeted merge, scalar vs full pipeline.
	// The unbudgeted in-memory peak calibrates the budgets.
	_, unlimited := extSortOnce(tbl, keys,
		core.Options{Threads: cfg.threads(), RunSize: runSize, Telemetry: cfg.Telemetry}, true)
	budgets := []int64{
		unlimited.PeakResidentRunBytes / 4,
		unlimited.PeakResidentRunBytes / 8,
	}
	if cfg.MemoryLimit > 0 {
		budgets = []int64{cfg.MemoryLimit}
	}
	bt := &Table{
		Title: fmt.Sprintf("same workload under a memory budget, streamed merge (threads=%d)", cfg.threads()),
		Header: []string{"budget", "scalar", "parallel", "speedup",
			"prefetch hit", "merge stall", "merge passes"},
	}
	for _, budget := range budgets {
		var plSt core.SortStats
		var leak int64
		sc := MedianTime(cfg.reps(), func() {
			broker := mem.NewBroker("bench-parallel", budget)
			o := core.Options{Threads: 1, RunSize: runSize, Broker: broker,
				ReadAhead: -1, Telemetry: cfg.Telemetry}
			_, _ = extSortOnce(tbl, keys, o, false)
			leak += broker.Used()
		})
		pl := MedianTime(cfg.reps(), func() {
			broker := mem.NewBroker("bench-parallel", budget)
			o := core.Options{Threads: cfg.threads(), RunSize: runSize, Broker: broker,
				Telemetry: cfg.Telemetry}
			_, plSt = extSortOnce(tbl, keys, o, true)
			leak += broker.Used()
		})
		if leak != 0 {
			return fmt.Errorf("bench: broker holds %d bytes after a closed budgeted sort", leak)
		}
		hitRate := "-"
		if plSt.PrefetchedBlocks > 0 {
			hitRate = fmt.Sprintf("%.0f%%", 100*float64(plSt.PrefetchHits)/float64(plSt.PrefetchedBlocks))
		}
		bt.AddRow(Bytes(budget), Seconds(sc), Seconds(pl), Ratio(sc, pl),
			hitRate, Seconds(plSt.MergeStall), Count(uint64(plSt.MergePasses)))
	}
	bt.Render(w)

	if cfg.PhaseBreakdown && cfg.Telemetry != nil {
		emitPhaseBreakdown(w, "parallel external sort", cfg.Telemetry.Summary())
	}
	return nil
}
