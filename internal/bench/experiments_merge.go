package bench

import (
	"bytes"
	"fmt"
	"io"
	"os"
	"time"

	"rowsort/internal/core"
	"rowsort/internal/mergepath"
	"rowsort/internal/normkey"
	"rowsort/internal/radix"
	"rowsort/internal/vector"
	"rowsort/internal/workload"
)

func init() {
	register("merge", "Ablation: merge kernels — cascaded 2-way vs k-way loser tree vs offset-value coding",
		runMergeAblation)
}

// encodeKeyRows encodes tbl's sort keys as normalized key rows at the sorter's
// key-row stride (key bytes, then room for the payload reference): what a sink
// hands its run sort.
func encodeKeyRows(tbl *vector.Table, keys []core.SortColumn) (rows []byte, rw, kw int, err error) {
	nkeys := make([]normkey.SortKey, len(keys))
	for i, k := range keys {
		nkeys[i] = normkey.SortKey{Column: k.Column, Type: tbl.Schema[k.Column].Type}
	}
	enc, err := normkey.NewEncoder(nkeys)
	if err != nil {
		return nil, 0, 0, err
	}
	kw = enc.Width()
	rw = (kw + 8 + 7) &^ 7
	rows = make([]byte, tbl.NumRows()*rw)
	keyCols := make([]*vector.Vector, len(nkeys))
	off := 0
	for _, c := range tbl.Chunks {
		for i, k := range nkeys {
			keyCols[i] = c.Vectors[k.Column]
		}
		if _, err := enc.EncodeChunk(keyCols, rows[off:], rw, 0); err != nil {
			return nil, 0, 0, err
		}
		off += c.Len() * rw
	}
	return rows, rw, kw, nil
}

// sortedKeyRuns radix-sorts tbl's key rows in runs consecutive slices: what
// run generation leaves the merge.
func sortedKeyRuns(tbl *vector.Table, keys []core.SortColumn, runs int) ([]mergepath.Run, int, error) {
	rows, rw, kw, err := encodeKeyRows(tbl, keys)
	if err != nil {
		return nil, 0, err
	}
	perRun := (tbl.NumRows() + runs - 1) / runs * rw
	var out []mergepath.Run
	for from := 0; from < len(rows); from += perRun {
		run := rows[from:min(from+perRun, len(rows))]
		radix.Sort(run, rw, kw)
		out = append(out, mergepath.Run{Data: run, Width: rw})
	}
	return out, kw, nil
}

// mergeWorkloads are the two merge-phase inputs: wide integer keys (a 20-byte
// normalized key, where offset-value codes skip the shared prefixes a plain
// tree re-compares at every match) and string keys with string payload.
type mergeWorkload struct {
	name string
	tbl  *vector.Table
	keys []core.SortColumn
}

func mergeWorkloads(cfg Config) []mergeWorkload {
	return []mergeWorkload{
		{"catalog_sales (integers, 4 keys)", workload.CatalogSales(cfg.counterRows(), 10, cfg.seed()),
			[]core.SortColumn{{Column: 0}, {Column: 1}, {Column: 2}, {Column: 3}}},
		{"customer (strings, 2 keys)", workload.Customer(cfg.counterRows(), cfg.seed()),
			[]core.SortColumn{{Column: 4}, {Column: 5}}},
	}
}

// runMergeAblation times the three merge kernels on the same ~16
// radix-sorted key runs: the paper's cascaded 2-way Merge Path merge, the
// k-way loser tree that replaces its log2(k) passes with one, and the tree
// with offset-value coding, which the sorter runs (the cascade on the
// configured threads, the trees on one: the sorter parallelises its tree by
// cutting the output into tasks, not inside the kernel). One more row puts
// the sorter's own merge phase next to them, streaming the same rows'
// runs back from disk: Finalize, which only plans, plus the drain of the
// result the merge is fused into.
func runMergeAblation(w io.Writer, cfg Config) error {
	if err := cfg.valid(); err != nil {
		return err
	}
	for _, wl := range mergeWorkloads(cfg) {
		rows := wl.tbl.NumRows()
		runs, kw, err := sortedKeyRuns(wl.tbl, wl.keys, 16)
		if err != nil {
			return err
		}
		cmp := func(a, b []byte) int { return bytes.Compare(a[:kw], b[:kw]) }
		dst := make([]byte, rows*runs[0].Width)

		t := &Table{
			Title: fmt.Sprintf("%s, %s rows, %d sorted key runs (threads=%d)",
				wl.name, Count(uint64(rows)), len(runs), cfg.threads()),
			Header: []string{"merge kernel", "time", "ns/row", "vs cascade"},
		}
		var base time.Duration
		for _, k := range []struct {
			name  string
			merge func()
		}{
			{"cascaded 2-way (Merge Path)", func() { mergepath.CascadeMerge(runs, cmp, cfg.threads()) }},
			{"k-way loser tree", func() { mergepath.KWayMerge(dst, runs, cmp) }},
			{"k-way + OVC", func() { mergepath.KWayMergeOVC(dst, runs, kw, nil, nil) }},
		} {
			d := MedianTime(cfg.reps(), k.merge)
			if base == 0 {
				base = d
			}
			t.AddRow(k.name, Seconds(d), fmt.Sprintf("%.1f", float64(d.Nanoseconds())/float64(rows)), Ratio(base, d))
		}
		t.Render(w)

		dir, err := os.MkdirTemp("", "rowsort-merge-bench-*")
		if err != nil {
			return err
		}
		var st core.SortStats
		d := MedianTimePrep(cfg.reps(), func() *core.Sorter {
			return ingestSorter(wl.tbl, wl.keys, core.Options{Threads: cfg.threads(),
				RunSize: max(1, rows/16), SpillDir: dir, Telemetry: cfg.Telemetry}, false)
		}, func(s *core.Sorter) { st = drainSorter(s, rows) })
		te := &Table{
			Title:  fmt.Sprintf("%s, the sorter's merge phase over the same rows' runs, streaming from disk", wl.name),
			Header: []string{"merge", "time", "runs", "spill written", "spill read"},
		}
		te.AddRow("k-way + OVC, gather fused (single pass)", Seconds(d), fmt.Sprintf("%d", st.RunsGenerated),
			Count(uint64(st.SpillBytesWritten)), Count(uint64(st.SpillBytesRead)))
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
