package bench

import (
	"fmt"
	"io"
	"os"
	"time"

	"rowsort/internal/core"
	"rowsort/internal/vector"
	"rowsort/internal/workload"
)

func init() {
	register("merge", "Ablation: merge phase — cascaded 2-way vs k-way loser tree vs offset-value coding",
		runMergeAblation)
}

// mergeWorkloads are the two merge-phase inputs: wide integer keys (a
// 20-byte normalized key, where offset-value coding skips the shared
// prefixes the cascade re-compares every level) and string keys (where the
// tie-break comparator rides along).
func mergeWorkloads(cfg Config) []struct {
	name string
	tbl  *vector.Table
	keys []core.SortColumn
} {
	return []struct {
		name string
		tbl  *vector.Table
		keys []core.SortColumn
	}{
		{
			name: "catalog_sales (integers, 4 keys)",
			tbl:  workload.CatalogSales(cfg.counterRows(), 10, cfg.seed()),
			keys: []core.SortColumn{{Column: 0}, {Column: 1}, {Column: 2}, {Column: 3}},
		},
		{
			name: "customer (strings, 2 keys)",
			tbl:  workload.Customer(cfg.counterRows(), cfg.seed()),
			keys: []core.SortColumn{{Column: 4}, {Column: 5}},
		},
	}
}

// finalizeReady ingests tbl into a fresh sorter and stops right before
// Finalize, so the merge phase (Finalize plus the drain of Rows the merge is
// fused into) can be timed without run generation.
func finalizeReady(tbl *vector.Table, keys []core.SortColumn, opt core.Options) *core.Sorter {
	s, err := core.NewSorter(tbl.Schema, keys, opt)
	if err != nil {
		panic(err)
	}
	sink := s.NewSink()
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

// runMergeAblation times the merge phase in isolation (run generation done;
// Finalize and the drain of the result timed — in memory the tree arms merge
// inside Rows, the cascade in Finalize, and all three pay the same gather)
// under the three algorithms in memory over ~16 runs, and then under the two
// tree arms streaming the same runs from disk (a sort with spilled runs has
// no cascade). Cascade is the baseline the single-pass loser tree replaces;
// the no-OVC arm isolates the tree shape from the coding.
func runMergeAblation(w io.Writer, cfg Config) error {
	if err := cfg.valid(); err != nil {
		return err
	}
	for _, wl := range mergeWorkloads(cfg) {
		rows := wl.tbl.NumRows()
		runSize := max(1, rows/16)

		t := &Table{
			Title: fmt.Sprintf("%s, %s rows, ~16 runs, in memory (threads=%d)",
				wl.name, Count(uint64(rows)), cfg.threads()),
			Header: []string{"merge", "time", "vs cascade", "compares", "ovc hits", "tie-breaks"},
		}
		var baseTime, memTime time.Duration
		for _, v := range []struct {
			name string
			algo core.MergeAlgo
		}{
			{"cascaded 2-way", core.MergeCascade},
			{"k-way loser tree", core.MergeLoserTreeNoOVC},
			{"k-way + OVC", core.MergeLoserTree},
		} {
			var last *core.Sorter
			d := MedianTimePrep(cfg.reps(), func() *core.Sorter {
				return finalizeReady(wl.tbl, wl.keys,
					core.Options{Threads: cfg.threads(), RunSize: runSize, Merge: v.algo,
						Telemetry: cfg.Telemetry})
			}, func(s *core.Sorter) {
				if err := s.Finalize(); err != nil {
					panic(err)
				}
				if _, err := s.Result(); err != nil {
					panic(err)
				}
				last = s
			})
			if v.algo == core.MergeCascade {
				baseTime = d
			}
			memTime = d
			st := last.Stats().Merge
			if err := last.Close(); err != nil {
				return err
			}
			t.AddRow(v.name, Seconds(d), Ratio(baseTime, d),
				Count(st.Comparisons), Count(st.OVCHits), Count(st.TieBreaks))
		}
		t.Render(w)

		// External: the same runs spilled to disk, where the cascade selects
		// nothing: the loser tree streams them back through fixed-size
		// blocks, reading each spilled byte once, inside the result iterator
		// — so what is timed is Finalize (which only plans) plus the drain.
		dir, err := os.MkdirTemp("", "rowsort-merge-bench-*")
		if err != nil {
			return err
		}
		te := &Table{
			Title: fmt.Sprintf("%s, %s rows, ~16 runs, streaming from disk",
				wl.name, Count(uint64(rows))),
			Header: []string{"merge", "time", "vs in memory", "spill written", "spill read"},
		}
		for _, v := range []struct {
			name string
			algo core.MergeAlgo
		}{
			{"k-way loser tree (single pass)", core.MergeLoserTreeNoOVC},
			{"k-way + OVC (single pass)", core.MergeLoserTree},
		} {
			var written, read int64
			d := MedianTimePrep(cfg.reps(), func() *core.Sorter {
				return finalizeReady(wl.tbl, wl.keys,
					core.Options{Threads: cfg.threads(), RunSize: runSize, Merge: v.algo, SpillDir: dir,
						Telemetry: cfg.Telemetry})
			}, func(s *core.Sorter) {
				if err := s.Finalize(); err != nil {
					panic(err)
				}
				if _, err := s.Result(); err != nil {
					panic(err)
				}
				st := s.Stats()
				written, read = st.SpillBytesWritten, st.SpillBytesRead
				if err := s.Close(); err != nil {
					panic(err)
				}
			})
			te.AddRow(v.name, Seconds(d), Ratio(memTime, d),
				Count(uint64(written)), Count(uint64(read)))
		}
		te.Render(w)
		if err := os.RemoveAll(dir); err != nil {
			return err
		}

		if cfg.PhaseBreakdown && cfg.Telemetry != nil {
			emitPhaseBreakdown(w, wl.name, cfg.Telemetry.Summary())
		}
	}
	return nil
}
