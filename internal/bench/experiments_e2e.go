package bench

import (
	"fmt"
	"io"
	"math"
	"runtime"
	"time"

	"rowsort/internal/core"
	"rowsort/internal/normkey"
	"rowsort/internal/systems"
	"rowsort/internal/vector"
	"rowsort/internal/workload"
)

func init() {
	register("table1", "Hardware/environment specification", runTable1)
	register("fig7", "Key normalization worked example", runFig7)
	register("fig11", "DuckDB sorting pipeline stage timings", runFig11)
	register("fig12", "End-to-end: sorting random integers and floats, 5 systems", runFig12)
	register("fig13", "End-to-end: TPC-DS catalog_sales, 1-4 key columns", runFig13)
	register("fig14", "End-to-end: TPC-DS customer, integer vs string keys", runFig14)
	register("table4", "TPC-DS table cardinalities", runTable4)
	register("compmodel", "Section II comparison-count model: run generation vs merge", runCompModel)
}

func runTable1(w io.Writer, cfg Config) error {
	t := &Table{
		Title:  "Environment (the paper used AWS m5d.metal / m5d.8xlarge, Xeon Platinum 8259CL)",
		Header: []string{"property", "value"},
	}
	t.AddRow("GOOS/GOARCH", runtime.GOOS+"/"+runtime.GOARCH)
	t.AddRow("Go version", runtime.Version())
	t.AddRow("logical CPUs", fmt.Sprintf("%d", runtime.NumCPU()))
	t.AddRow("GOMAXPROCS", fmt.Sprintf("%d", runtime.GOMAXPROCS(0)))
	t.AddRow("benchmark threads", fmt.Sprintf("%d", cfg.threads()))
	t.AddRow("scale", string(cfg.Scale))
	t.Render(w)
	return nil
}

// runFig7 prints the paper's worked key-normalization example: the customer
// table ordered by c_birth_country DESC, c_birth_year ASC.
func runFig7(w io.Writer, _ Config) error {
	country := vector.New(vector.Varchar, 2)
	country.AppendString("NETHERLANDS")
	country.AppendString("GERMANY")
	year := vector.New(vector.Int32, 2)
	year.AppendInt32(1992)
	year.AppendInt32(1924)
	keys := []normkey.SortKey{
		{Type: vector.Varchar, Order: normkey.Descending, PrefixLen: 11},
		{Type: vector.Int32, Order: normkey.Ascending},
	}
	enc, err := normkey.NewEncoder(keys)
	if err != nil {
		return err
	}
	out := make([]byte, 2*enc.Width())
	if err := enc.Encode([]*vector.Vector{country, year}, out, enc.Width(), 0); err != nil {
		return err
	}
	fmt.Fprintf(w, "ORDER BY c_birth_country DESC, c_birth_year ASC\n\n")
	for r := 0; r < 2; r++ {
		key := out[r*enc.Width() : (r+1)*enc.Width()]
		fmt.Fprintf(w, "(%q, %d)\n", country.Strings()[r], year.Int32s()[r])
		fmt.Fprintf(w, "  country segment: % x\n", key[:enc.Offset(1)])
		fmt.Fprintf(w, "  year segment:    % x\n", key[enc.Offset(1):])
	}
	fmt.Fprintf(w, "\nByte-wise comparison of the keys yields the query's order:\n")
	fmt.Fprintf(w, "NETHERLANDS row sorts first under DESC (its inverted prefix is smaller).\n\n")
	return nil
}

// runFig11 traces the DuckDB pipeline on a representative workload and
// reports per-stage times: vectorized conversion + thread-local run
// generation, the k-way loser-tree merge, and the columnar scan.
func runFig11(w io.Writer, cfg Config) error {
	if err := cfg.valid(); err != nil {
		return err
	}
	n := cfg.counterRows()
	tbl := workload.CatalogSales(n, 10, cfg.seed())
	keys := []core.SortColumn{{Column: 0}, {Column: 1}, {Column: 2}, {Column: 3}}

	s, err := core.NewSorter(tbl.Schema, keys,
		core.Options{Threads: cfg.threads(), MemoryLimit: cfg.MemoryLimit})
	if err != nil {
		return err
	}
	start := time.Now()
	sink := s.NewSink()
	for _, c := range tbl.Chunks {
		if err := sink.Append(c); err != nil {
			return err
		}
	}
	if err := sink.Close(); err != nil {
		return err
	}
	sinkTime := time.Since(start)

	start = time.Now()
	if err := s.Finalize(); err != nil {
		return err
	}
	mergeTime := time.Since(start)

	start = time.Now()
	res, err := s.Result()
	if err != nil {
		return err
	}
	scanTime := time.Since(start)

	t := &Table{
		Title:  fmt.Sprintf("Pipeline stages sorting %d catalog_sales rows by 4 keys", res.NumRows()),
		Header: []string{"stage", "time"},
	}
	t.AddRow("convert to rows + normalize keys + run generation", Seconds(sinkTime))
	// Finalize only plans: the merge is fused into the scan (Sorter.Rows).
	t.AddRow("Finalize (plans the merge; merges nothing)", Seconds(mergeTime))
	t.AddRow("k-way loser-tree merge fused into the scan back to vectors", Seconds(scanTime))
	t.Render(w)
	return nil
}

func runFig12(w io.Writer, cfg Config) error {
	if err := cfg.valid(); err != nil {
		return err
	}
	for _, kind := range []string{"integers", "floats"} {
		t := &Table{Title: "Sorting random " + kind + " (seconds, lower is better)"}
		t.Header = append(t.Header, "rows")
		sysList := systems.All(cfg.threads())
		for _, s := range sysList {
			t.Header = append(t.Header, s.Name())
		}
		for _, n := range cfg.fig12Sizes() {
			row := []string{Count(uint64(n))}
			var tbl *vector.Table
			var err error
			if kind == "integers" {
				tbl, err = vector.TableFromColumns(
					vector.Schema{{Name: "v", Type: vector.Int32}},
					vector.FromInt32(workload.ShuffledInt32s(n, cfg.seed())))
			} else {
				tbl, err = vector.TableFromColumns(
					vector.Schema{{Name: "v", Type: vector.Float32}},
					vector.FromFloat32(workload.UniformFloat32s(n, cfg.seed())))
			}
			if err != nil {
				return err
			}
			keys := []core.SortColumn{{Column: 0}}
			for _, sys := range sysList {
				d := MedianTime(cfg.reps(), func() {
					if _, err := systems.SortCount(sys, tbl, keys); err != nil {
						panic(err)
					}
				})
				row = append(row, Seconds(d))
			}
			t.AddRow(row...)
		}
		t.Render(w)
	}
	return nil
}

func runFig13(w io.Writer, cfg Config) error {
	if err := cfg.valid(); err != nil {
		return err
	}
	div := cfg.sfDivisor()
	for _, sf := range []int{10, 100} {
		n := workload.CatalogSalesRows(sf) / div
		tbl := workload.CatalogSales(n, sf, cfg.seed())
		t := &Table{Title: fmt.Sprintf("catalog_sales SF%d (%s rows; paper size / %d) — seconds",
			sf, Count(uint64(n)), div)}
		t.Header = append(t.Header, "key columns")
		sysList := systems.All(cfg.threads())
		for _, s := range sysList {
			t.Header = append(t.Header, s.Name())
		}
		for nk := 1; nk <= 4; nk++ {
			keys := make([]core.SortColumn, nk)
			for i := range keys {
				keys[i] = core.SortColumn{Column: i}
			}
			row := []string{fmt.Sprintf("%d", nk)}
			for _, sys := range sysList {
				d := MedianTime(cfg.reps(), func() {
					if _, err := systems.SortCount(sys, tbl, keys); err != nil {
						panic(err)
					}
				})
				row = append(row, Seconds(d))
			}
			t.AddRow(row...)
		}
		t.Render(w)
	}
	return nil
}

func runFig14(w io.Writer, cfg Config) error {
	if err := cfg.valid(); err != nil {
		return err
	}
	div := cfg.sfDivisor()
	intKeys := []core.SortColumn{{Column: 1}, {Column: 2}, {Column: 3}}
	strKeys := []core.SortColumn{{Column: 4}, {Column: 5}}
	for _, sf := range []int{100, 300} {
		n := workload.CustomerRows(sf) / div
		tbl := workload.Customer(n, cfg.seed())
		t := &Table{Title: fmt.Sprintf("customer SF%d (%s rows; paper size / %d) — seconds",
			sf, Count(uint64(n)), div)}
		t.Header = append(t.Header, "keys")
		sysList := systems.All(cfg.threads())
		for _, s := range sysList {
			t.Header = append(t.Header, s.Name())
		}
		for _, kc := range []struct {
			name string
			keys []core.SortColumn
		}{{"integer (year, month, day)", intKeys}, {"string (last, first)", strKeys}} {
			row := []string{kc.name}
			for _, sys := range sysList {
				d := MedianTime(cfg.reps(), func() {
					if _, err := systems.SortCount(sys, tbl, kc.keys); err != nil {
						panic(err)
					}
				})
				row = append(row, Seconds(d))
			}
			t.AddRow(row...)
		}
		t.Render(w)
	}
	return nil
}

func runTable4(w io.Writer, _ Config) error {
	t := &Table{
		Title:  "TPC-DS cardinalities",
		Header: []string{"table", "SF10", "SF100", "SF300"},
	}
	t.AddRow("catalog_sales",
		Count(uint64(workload.CatalogSalesRows(10))),
		Count(uint64(workload.CatalogSalesRows(100))),
		Count(uint64(workload.CatalogSalesRows(300))))
	t.AddRow("customer",
		Count(uint64(workload.CustomerRows(10))),
		Count(uint64(workload.CustomerRows(100))),
		Count(uint64(workload.CustomerRows(300))))
	t.Render(w)
	return nil
}

// runCompModel prints Section II's analytic model: with k sorted runs of
// n/k rows, run generation performs n·log(n) − n·log(k) comparisons on
// average versus n·log(k) in the merge, crossing over at k = sqrt(n).
func runCompModel(w io.Writer, _ Config) error {
	t := &Table{
		Title:  "comp_A = n·log2(n) − n·log2(k) (run generation) vs comp_B = n·log2(k) (merge)",
		Header: []string{"n", "k", "comp_A", "comp_B", "run-gen share"},
	}
	for _, c := range []struct {
		n, k float64
	}{
		{1e6, 16}, {1e6, 1000}, {1e8, 16}, {1e8, 48}, {1e8, 10000},
	} {
		compA := c.n * (math.Log2(c.n) - math.Log2(c.k))
		compB := c.n * math.Log2(c.k)
		t.AddRow(
			Count(uint64(c.n)), Count(uint64(c.k)),
			Count(uint64(compA)), Count(uint64(compB)),
			fmt.Sprintf("%.0f%%", 100*compA/(compA+compB)))
	}
	t.Render(w)
	fmt.Fprintf(w, "Crossover at k = sqrt(n); with in-memory sorts k equals the thread count,\n")
	fmt.Fprintf(w, "so run generation dominates — the paper's motivation for optimizing it.\n\n")
	return nil
}
