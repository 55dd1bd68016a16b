package obs

import "sort"

// StrategyDecision is one run's recorded run-sort: which kernel generated the
// run and why, when a rule other than radix decided. It lives here (not in
// the sorter) so the registry can carry and serialize decisions without
// depending on the sorter.
type StrategyDecision struct {
	// Run is the run's id within its sorter; Rows its row count.
	Run  int `json:"run"`
	Rows int `json:"rows"`
	// Algo is the executed run-generation sort ("lsd-radix", "msd-radix"),
	// or "none" for a run that arrived in order.
	Algo string `json:"algo"`
	// Why, when non-empty, names the rule that decided beyond radix:
	// "tie-break" (its keys may tie on their bytes, so after radix its
	// byte-equal groups were sorted under the comparator) or "presorted"
	// (it was already in order).
	Why string `json:"why,omitempty"`
}

// AlgoCount is one algorithm's run tally in a decision log.
type AlgoCount struct {
	Algo string
	Runs int
}

// AlgoCounts tallies a decision log by executed algorithm, in algorithm-name
// order: the one tally behind SortStats.String, rowsort_strategy_runs_total
// and rowsort_run_strategy_runs_total.
func AlgoCounts(decisions []StrategyDecision) []AlgoCount {
	byAlgo := make(map[string]int)
	for _, d := range decisions {
		byAlgo[d.Algo]++
	}
	out := make([]AlgoCount, 0, len(byAlgo))
	for algo, runs := range byAlgo {
		out = append(out, AlgoCount{algo, runs})
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Algo < out[j].Algo })
	return out
}
