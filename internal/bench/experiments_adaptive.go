package bench

import (
	"fmt"
	"io"
	"sort"
	"strings"

	"rowsort/internal/core"
	"rowsort/internal/vector"
	"rowsort/internal/workload"
)

func init() {
	register("adaptive", "Adaptive strategy: the static rule vs the sampled planner",
		runAdaptive)
}

// runAdaptive compares the sorter's two run-sort rules on workload shapes
// where the crossover lands on different sides — nearly sorted (pdqsort's
// pattern detection wins), an adversarial sawtooth (locally sorted, globally
// shuffled: the planner must NOT read it as presorted), uniform integers
// (radix wins), a wide four-column key, and duplicate-heavy runs (the
// grouped sort wins) — each sorted under the paper's static rule (radix
// unless string prefixes may tie) and under the sampled per-run planner. The
// planner's job is to beat the static rule where another kernel wins and
// cost nothing where radix does; the "run sorts" column shows what each
// chose, from the decision log.
func runAdaptive(w io.Writer, cfg Config) error {
	if err := cfg.valid(); err != nil {
		return err
	}
	n := cfg.counterRows()
	seed := cfg.seed()
	arms := []string{"static", "adaptive"}
	col0 := []core.SortColumn{{Column: 0}}
	wide := workload.UintColumnsTable(workload.Dist{Random: true}.Generate(n, 4, seed))
	workloads := []struct {
		name string
		tbl  *vector.Table
		keys []core.SortColumn
	}{
		{fmt.Sprintf("nearly sorted int64 (%s rows, 0.1%% disorder)", Count(uint64(n))),
			workload.NearlySorted(n, 0.001, seed), col0},
		{fmt.Sprintf("sawtooth ramps (%s rows, period 1024)", Count(uint64(n))),
			workload.SawtoothRuns(n, 1024, seed), col0},
		{fmt.Sprintf("uniform int64 (%s rows)", Count(uint64(n))),
			workload.UniformInt64s(n, seed), col0},
		{fmt.Sprintf("wide 4-column key (%s rows)", Count(uint64(n))), wide,
			[]core.SortColumn{{Column: 0}, {Column: 1}, {Column: 2}, {Column: 3}}},
		{fmt.Sprintf("duplicate-run integers (%s rows, 500 distinct)", Count(uint64(n))),
			workload.DupHeavyInts(n, 500, seed), col0},
	}
	for _, wl := range workloads {
		t := &Table{
			Title:  wl.name,
			Header: []string{"arm", "time", "ns/row", "vs static", "run sorts"},
		}
		opts := make([]core.Options, len(arms))
		fns := make([]func(), len(arms))
		for i, arm := range arms {
			opts[i] = core.Options{Threads: cfg.threads(), Adaptive: arm == "adaptive"}
			opt := opts[i]
			fns[i] = func() {
				if _, err := core.SortTable(wl.tbl, wl.keys, opt); err != nil {
					panic(err)
				}
			}
		}
		// Arms interleave so background drift cannot bias one arm's block,
		// and the headline ratio is the median of per-round paired ratios:
		// within one round the arms run back to back, so whatever drift
		// remains divides out instead of landing on one arm's median.
		rounds := InterleavedRounds(cfg.reps(), fns)
		algos := make([]string, len(arms))
		for i := range arms {
			_, st, err := core.SortTableStats(wl.tbl, wl.keys, opts[i])
			if err != nil {
				return err
			}
			algos[i] = decisionAlgoSummary(st.StrategyDecisions)
		}
		for i, arm := range arms {
			ratios := make([]float64, len(rounds[i]))
			for r := range rounds[i] {
				ratios[r] = float64(rounds[0][r]) / float64(rounds[i][r])
			}
			sort.Float64s(ratios)
			med := MedianDuration(rounds[i])
			nsPerRow := float64(med.Nanoseconds()) / float64(wl.tbl.NumRows())
			t.AddRow(arm, Seconds(med), fmt.Sprintf("%.1f", nsPerRow),
				fmt.Sprintf("%.2f", ratios[len(ratios)/2]), algos[i])
		}
		t.Render(w)
	}
	return nil
}

// decisionAlgoSummary compresses a decision log to "algo×runs" pairs in
// stable order.
func decisionAlgoSummary(decs []core.StrategyDecision) string {
	if len(decs) == 0 {
		return "-"
	}
	counts := map[string]int{}
	for _, d := range decs {
		counts[d.Algo]++
	}
	names := make([]string, 0, len(counts))
	for name := range counts {
		names = append(names, name)
	}
	sort.Strings(names)
	parts := make([]string, len(names))
	for i, name := range names {
		parts[i] = fmt.Sprintf("%s×%d", name, counts[name])
	}
	return strings.Join(parts, " ")
}
