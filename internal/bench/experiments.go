package bench

import (
	"fmt"
	"io"
	"slices"
	"time"

	"rowsort/internal/colsort"
	"rowsort/internal/perfmodel"
	"rowsort/internal/rowcmp"
	"rowsort/internal/sortalgo"
	"rowsort/internal/workload"
)

// Experiment regenerates one of the paper's tables or figures.
type Experiment struct {
	ID    string
	Title string
	Run   func(w io.Writer, cfg Config) error
}

var registry []Experiment

func register(id, title string, run func(w io.Writer, cfg Config) error) {
	registry = append(registry, Experiment{ID: id, Title: title, Run: run})
}

// paperOrder lists the experiments in the order the paper presents them.
var paperOrder = []string{
	"table1", "compmodel", "fig2", "fig3", "table2", "fig4", "fig5", "table3",
	"fig6", "fig7", "fig8", "fig9", "fig10", "fig11", "fig12", "fig13",
	"table4", "fig14",
}

// Registry returns every experiment: the paper's in paper order, then any
// other in registration order.
func Registry() []Experiment {
	out := make([]Experiment, 0, len(registry))
	for _, id := range paperOrder {
		if e, ok := ByID(id); ok {
			out = append(out, e)
		}
	}
	for _, e := range registry {
		if !slices.Contains(paperOrder, e.ID) {
			out = append(out, e)
		}
	}
	return out
}

// ByID returns the experiment with the given id.
func ByID(id string) (Experiment, bool) {
	for _, e := range registry {
		if e.ID == id {
			return e, true
		}
	}
	return Experiment{}, false
}

// RunAll runs every experiment in paper order.
func RunAll(w io.Writer, cfg Config) error {
	for _, e := range Registry() {
		fmt.Fprintf(w, "=== %s: %s ===\n\n", e.ID, e.Title)
		if err := e.Run(w, cfg); err != nil {
			return fmt.Errorf("%s: %w", e.ID, err)
		}
	}
	return nil
}

// ratioCell measures two variants on the same input and returns the
// paper-style relative runtime t(baseline)/t(variant): above 1 means the
// variant is faster.
type ratioCell func(cfg Config, cols [][]uint32) (baseline, variant time.Duration)

// runGrid renders one relative-runtime grid per distribution: rows are key
// counts, columns are input sizes — the layout of Figures 2-6, 8 and 9.
func runGrid(w io.Writer, cfg Config, cell ratioCell) error {
	if err := cfg.valid(); err != nil {
		return err
	}
	sizes := cfg.gridSizes()
	for _, dist := range workload.StandardDists() {
		t := &Table{Title: dist.String()}
		t.Header = append(t.Header, "keys\\rows")
		for _, n := range sizes {
			t.Header = append(t.Header, fmt.Sprintf("%d", n))
		}
		for _, keys := range cfg.gridKeys() {
			row := []string{fmt.Sprintf("%d", keys)}
			for _, n := range sizes {
				cols := dist.Generate(n, keys, cfg.seed())
				base, variant := cell(cfg, cols)
				row = append(row, Ratio(base, variant))
			}
			t.AddRow(row...)
		}
		t.Render(w)
	}
	return nil
}

func init() {
	register("fig2", "Columnar: subsort vs tuple-at-a-time, introsort (std::sort analog)",
		func(w io.Writer, cfg Config) error {
			return runGrid(w, cfg, func(cfg Config, cols [][]uint32) (time.Duration, time.Duration) {
				base := MedianTime(cfg.reps(), func() { colsort.TupleAtATime(cols, sortalgo.AlgIntrosort) })
				sub := MedianTime(cfg.reps(), func() { colsort.Subsort(cols, sortalgo.AlgIntrosort) })
				return base, sub
			})
		})

	register("fig3", "Columnar: subsort vs tuple-at-a-time, stable sort (std::stable_sort analog)",
		func(w io.Writer, cfg Config) error {
			return runGrid(w, cfg, func(cfg Config, cols [][]uint32) (time.Duration, time.Duration) {
				base := MedianTime(cfg.reps(), func() { colsort.TupleAtATime(cols, sortalgo.AlgStable) })
				sub := MedianTime(cfg.reps(), func() { colsort.Subsort(cols, sortalgo.AlgStable) })
				return base, sub
			})
		})

	register("fig4", "Row vs columnar-subsort baseline, introsort",
		func(w io.Writer, cfg Config) error { return rowVsColumnar(w, cfg, sortalgo.AlgIntrosort) })

	register("fig5", "Row vs columnar-subsort baseline, stable sort",
		func(w io.Writer, cfg Config) error { return rowVsColumnar(w, cfg, sortalgo.AlgStable) })

	register("fig6", "Row format: dynamic vs static tuple-at-a-time comparator, introsort",
		func(w io.Writer, cfg Config) error {
			return runGrid(w, cfg, func(cfg Config, cols [][]uint32) (time.Duration, time.Duration) {
				numKeys := len(cols)
				static := MedianTimePrep(cfg.reps(),
					func() []rowcmp.Row { return rowcmp.BuildRows(cols) },
					func(rows []rowcmp.Row) { rowcmp.SortStatic(rows, numKeys, sortalgo.AlgIntrosort) })
				dynamic := MedianTimePrep(cfg.reps(),
					func() []rowcmp.Row { return rowcmp.BuildRows(cols) },
					func(rows []rowcmp.Row) { rowcmp.SortDynamic(rows, numKeys, sortalgo.AlgIntrosort) })
				return static, dynamic
			})
		})

	register("fig8", "Row format: dynamic normalized-key memcmp vs static tuple-at-a-time, introsort",
		func(w io.Writer, cfg Config) error {
			return runGrid(w, cfg, func(cfg Config, cols [][]uint32) (time.Duration, time.Duration) {
				numKeys := len(cols)
				static := MedianTimePrep(cfg.reps(),
					func() []rowcmp.Row { return rowcmp.BuildRows(cols) },
					func(rows []rowcmp.Row) { rowcmp.SortStatic(rows, numKeys, sortalgo.AlgIntrosort) })
				type enc struct {
					data       []byte
					rowW, keyW int
				}
				norm := MedianTimePrep(cfg.reps(),
					func() enc {
						d, rw, kw := rowcmp.EncodeNormalized(cols)
						return enc{d, rw, kw}
					},
					func(e enc) { rowcmp.SortNormalizedIntro(e.data, e.rowW, e.keyW) })
				return static, norm
			})
		})

	register("fig9", "Normalized keys: radix sort vs pdqsort with dynamic memcmp",
		func(w io.Writer, cfg Config) error {
			return runGrid(w, cfg, func(cfg Config, cols [][]uint32) (time.Duration, time.Duration) {
				type enc struct {
					data       []byte
					rowW, keyW int
				}
				prep := func() enc {
					d, rw, kw := rowcmp.EncodeNormalized(cols)
					return enc{d, rw, kw}
				}
				pdq := MedianTimePrep(cfg.reps(), prep,
					func(e enc) { rowcmp.SortNormalizedPdq(e.data, e.rowW, e.keyW) })
				rad := MedianTimePrep(cfg.reps(), prep,
					func(e enc) { rowcmp.SortNormalizedRadix(e.data, e.rowW, e.keyW) })
				return pdq, rad
			})
		})

	register("table2", "Simulated L1 misses and branch mispredictions: columnar T vs S",
		func(w io.Writer, cfg Config) error { return counterTable(w, cfg, false) })

	register("table3", "Simulated L1 misses and branch mispredictions: row T vs S",
		func(w io.Writer, cfg Config) error { return counterTable(w, cfg, true) })

	register("fig10", "Cumulative simulated counters: pdqsort (memcmp) vs radix sort",
		runFig10)
}

// rowVsColumnar renders Figures 4/5: the row-format tuple-at-a-time and
// subsort approaches relative to the columnar subsort baseline.
func rowVsColumnar(w io.Writer, cfg Config, alg sortalgo.Algorithm) error {
	if err := cfg.valid(); err != nil {
		return err
	}
	sizes := cfg.gridSizes()
	for _, approach := range []string{"row tuple-at-a-time", "row subsort"} {
		fmt.Fprintf(w, "-- %s vs columnar subsort --\n", approach)
		for _, dist := range workload.StandardDists() {
			t := &Table{Title: dist.String()}
			t.Header = append(t.Header, "keys\\rows")
			for _, n := range sizes {
				t.Header = append(t.Header, fmt.Sprintf("%d", n))
			}
			for _, keys := range cfg.gridKeys() {
				row := []string{fmt.Sprintf("%d", keys)}
				for _, n := range sizes {
					cols := dist.Generate(n, keys, cfg.seed())
					base := MedianTime(cfg.reps(), func() { colsort.Subsort(cols, alg) })
					var variant time.Duration
					if approach == "row tuple-at-a-time" {
						variant = MedianTimePrep(cfg.reps(),
							func() []rowcmp.Row { return rowcmp.BuildRows(cols) },
							func(rows []rowcmp.Row) { rowcmp.SortStatic(rows, keys, alg) })
					} else {
						variant = MedianTimePrep(cfg.reps(),
							func() []rowcmp.Row { return rowcmp.BuildRows(cols) },
							func(rows []rowcmp.Row) { rowcmp.SortSubsort(rows, keys, alg) })
					}
					row = append(row, Ratio(base, variant))
				}
				t.AddRow(row...)
			}
			t.Render(w)
		}
	}
	return nil
}

// counterTable renders Tables II/III: simulated counters for the
// tuple-at-a-time and subsort approaches on one format.
func counterTable(w io.Writer, cfg Config, rowFormat bool) error {
	if err := cfg.valid(); err != nil {
		return err
	}
	n := cfg.counterRows()
	cols := workload.Dist{Name: "Correlated0.50", P: 0.5}.Generate(n, 4, cfg.seed())
	format := "columnar (C)"
	tup := perfmodel.ColumnarTupleAtATime
	sub := perfmodel.ColumnarSubsort
	if rowFormat {
		format = "row (R)"
		tup = perfmodel.RowTupleAtATime
		sub = perfmodel.RowSubsort
	}
	t := &Table{
		Title:  fmt.Sprintf("%s format, %d rows, 4 key columns, Correlated0.50, introsort", format, n),
		Header: []string{"approach", "L1 misses", "L2 misses", "branch misses", "accesses", "branches"},
	}
	for _, a := range []struct {
		name string
		run  func([][]uint32) perfmodel.Counters
	}{{"tuple-at-a-time (T)", tup}, {"subsort (S)", sub}} {
		c := a.run(cols)
		t.AddRow(a.name, Count(c.CacheMisses), Count(c.L2Misses), Count(c.BranchMisses),
			Count(c.CacheAccesses), Count(c.Branches))
	}
	t.Render(w)
	return nil
}

func runFig10(w io.Writer, cfg Config) error {
	if err := cfg.valid(); err != nil {
		return err
	}
	n := cfg.counterRows()
	cols := workload.Dist{P: 0.5}.Generate(n, 4, cfg.seed())
	samples := cfg.fig10Samples()
	pdqSeries, pdqFinal := perfmodel.PdqsortNormalized(cols, samples)
	radSeries, radFinal := perfmodel.RadixNormalized(cols, samples)

	t := &Table{
		Title: fmt.Sprintf("Cumulative simulated counters, %d rows, 4 keys, Correlated0.50", n),
		Header: []string{"progress", "pdq L1 miss", "radix L1 miss",
			"pdq br miss", "radix br miss"},
	}
	steps := max(len(pdqSeries), len(radSeries))
	for i := 0; i < steps; i++ {
		pick := func(s []perfmodel.Counters) perfmodel.Counters {
			if len(s) == 0 {
				return perfmodel.Counters{}
			}
			j := i * len(s) / steps
			return s[j]
		}
		p, r := pick(pdqSeries), pick(radSeries)
		t.AddRow(fmt.Sprintf("%d/%d", i+1, steps),
			Count(p.CacheMisses), Count(r.CacheMisses),
			Count(p.BranchMisses), Count(r.BranchMisses))
	}
	t.AddRow("final", Count(pdqFinal.CacheMisses), Count(radFinal.CacheMisses),
		Count(pdqFinal.BranchMisses), Count(radFinal.BranchMisses))
	t.Render(w)
	return nil
}
