package bench

import (
	"fmt"
	"io"
	"os"

	"rowsort/internal/core"
	"rowsort/internal/vector"
	"rowsort/internal/workload"
)

func init() {
	register("keycomp", "Compressed normalized keys: full vs dictionary vs truncated",
		runKeyComp)
}

// runKeyComp is the compressed-key ablation: each workload shape the
// encodings target (low-cardinality strings, shared-prefix strings), the
// duplicate-run integers every arm group-sorts alike (the planner's doing,
// no KeyComp bit's) and a uniform high-cardinality control are sorted under
// every Options.KeyComp arm. The table reports wall time,
// the logical vs physical normalized-key volume (the gap is what
// compression saved), and the spill bytes of a forced-spill run of the
// same sort (smaller keys spill fewer bytes). The uniform control pins
// the other side of the trade: with nothing to compress, every arm must
// track the full encoding.
func runKeyComp(w io.Writer, cfg Config) error {
	if err := cfg.valid(); err != nil {
		return err
	}
	n := cfg.counterRows()
	arms := []struct {
		name string
		kc   core.KeyComp
	}{
		{"full", 0},
		{"dict", core.KeyCompDict},
		{"trunc", core.KeyCompTrunc},
		{"all", core.KeyCompAll},
	}
	workloads := []struct {
		name string
		tbl  *vector.Table
		keys []core.SortColumn
	}{
		{fmt.Sprintf("low-cardinality strings (%s rows, 40 distinct)", Count(uint64(n))),
			workload.LowCardStrings(n, 40, cfg.seed()), []core.SortColumn{{Column: 0}}},
		{fmt.Sprintf("shared-prefix URLs (%s rows)", Count(uint64(n))),
			workload.SharedPrefixStrings(n, cfg.seed()), []core.SortColumn{{Column: 0}}},
		{fmt.Sprintf("duplicate-run integers (%s rows, 500 distinct)", Count(uint64(n))),
			workload.DupHeavyInts(n, 500, cfg.seed()), []core.SortColumn{{Column: 0}}},
		{fmt.Sprintf("uniform int64 control (%s rows)", Count(uint64(n))),
			workload.UniformInt64s(n, cfg.seed()), []core.SortColumn{{Column: 0}}},
	}
	for _, wl := range workloads {
		t := &Table{
			Title:  wl.name,
			Header: []string{"encoding", "time", "logical key bytes", "physical key bytes", "spill bytes"},
		}
		for _, arm := range arms {
			opt := core.Options{Threads: cfg.threads(), KeyComp: arm.kc}
			d := MedianTime(cfg.reps(), func() {
				if _, err := core.SortTable(wl.tbl, wl.keys, opt); err != nil {
					panic(err)
				}
			})
			_, st, err := core.SortTableStats(wl.tbl, wl.keys, opt)
			if err != nil {
				return err
			}
			sst, err := keyCompSpillStats(wl.tbl, wl.keys, opt)
			if err != nil {
				return err
			}
			t.AddRow(arm.name, Seconds(d),
				Bytes(st.NormKeyBytes), Bytes(st.PhysKeyBytes), Bytes(sst.SpillBytesWritten))
		}
		t.Render(w)
	}
	return nil
}

// keyCompSpillStats reruns the sort with eager spilling into a temporary
// directory and returns its stats; the byte counters are deterministic,
// so one run suffices.
func keyCompSpillStats(tbl *vector.Table, keys []core.SortColumn, opt core.Options) (core.SortStats, error) {
	dir, err := os.MkdirTemp("", "rowsort-keycomp-*")
	if err != nil {
		return core.SortStats{}, err
	}
	opt.SpillDir = dir
	_, st, err := core.SortTableStats(tbl, keys, opt)
	if rerr := os.RemoveAll(dir); err == nil {
		err = rerr
	}
	return st, err
}
