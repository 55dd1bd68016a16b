package obs

import "sort"

// StrategyDecision is one run's recorded execution-plan choice, as the
// observability plane surfaces it: which sort generated the run and the
// sampled statistics the decision came from. It lives here (not in the
// strategy package) so the registry can carry and serialize decisions
// without the core/strategy layers depending on each other through obs.
type StrategyDecision struct {
	// Run is the run's id within its sorter; Rows its row count.
	Run  int `json:"run"`
	Rows int `json:"rows"`
	// Algo is the executed run-generation sort ("lsd-radix", "msd-radix",
	// "pdqsort", "dup-group").
	Algo string `json:"algo"`
	// Forced, when non-empty, names why the plan was dictated rather than
	// sampled ("tie-break", or "pin" in the sorter's own tests), or that a
	// sampled duplicate-group plan missed on the whole run ("dup-group-miss").
	Forced string `json:"forced,omitempty"`
	// MergeRole is the run's merge-scheduling hint ("normal", "dup-heavy",
	// "presorted"); "normal" when the plan was dictated.
	MergeRole string `json:"merge_role,omitempty"`
	// Sampled statistics behind the decision (zero when the plan was dictated).
	Sortedness        float64 `json:"sortedness,omitempty"`
	EffectiveKeyBytes int     `json:"effective_key_bytes,omitempty"`
	DistinctRatio     float64 `json:"distinct_ratio,omitempty"`
	FirstByteEntropy  float64 `json:"first_byte_entropy,omitempty"`
	DupRunFrac        float64 `json:"dup_run_frac,omitempty"`
	// Modeled per-row costs the crossover compared (zero when dictated).
	RadixCost float64 `json:"radix_cost,omitempty"`
	PdqCost   float64 `json:"pdq_cost,omitempty"`
	// SpillBlockRows is the plan's spill block-shape hint (0 = default).
	SpillBlockRows int `json:"spill_block_rows,omitempty"`
	// FrontCode reports whether spill-block key front-coding was enabled
	// for the run.
	FrontCode bool `json:"front_code,omitempty"`
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
