package strategy

import "rowsort/internal/radix"

// Algo is the run-generation sort a plan selects.
type Algo uint8

const (
	// AlgoLSDRadix: least-significant-digit radix over the key bytes —
	// best when few byte positions vary.
	AlgoLSDRadix Algo = iota
	// AlgoMSDRadix: most-significant-digit radix with insertion-sort
	// leaves — the default for wider varying prefixes.
	AlgoMSDRadix
	// AlgoPdqsort: comparison pattern-defeating quicksort — wins on
	// presorted runs and on long high-entropy keys where byte passes
	// outnumber log2(n) compares.
	AlgoPdqsort
	// AlgoDupGroup: collect adjacent byte-equal groups, radix-sort one
	// representative per group, expand (the RLESort idea) — for
	// duplicate-heavy runs.
	AlgoDupGroup
)

// String returns the algorithm's stable wire name (used in stats, the run
// snapshot JSON and Prometheus labels).
func (a Algo) String() string {
	switch a {
	case AlgoLSDRadix:
		return "lsd-radix"
	case AlgoMSDRadix:
		return "msd-radix"
	case AlgoPdqsort:
		return "pdqsort"
	case AlgoDupGroup:
		return "dup-group"
	}
	return "unknown"
}

// RadixAlgo names the radix sort radix.Sort runs on keys of this width — the
// one width rule, so a plan or a decision log can say what will run.
func RadixAlgo(keyWidth int) Algo {
	if radix.UseLSD(keyWidth) {
		return AlgoLSDRadix
	}
	return AlgoMSDRadix
}

// MergeRole hints how a run should be treated by the multi-pass merge
// scheduler: grouping like runs into the same intermediate pass keeps the
// merger's duplicate-run fast path hot.
type MergeRole uint8

const (
	// RoleNormal: no special treatment.
	RoleNormal MergeRole = iota
	// RoleDupHeavy: the run is dominated by repeated keys.
	RoleDupHeavy
	// RolePresorted: the run arrived (nearly) in order.
	RolePresorted
)

// String returns the role's stable wire name.
func (r MergeRole) String() string {
	switch r {
	case RoleNormal:
		return "normal"
	case RoleDupHeavy:
		return "dup-heavy"
	case RolePresorted:
		return "presorted"
	}
	return "unknown"
}

// Plan is one run's execution plan: the sort that generates it, how it is
// laid out when spilled, and its role in the merge — plus the sampled
// statistics and modeled costs the decision came from, so every choice is
// auditable in SortStats.StrategyDecisions.
type Plan struct {
	// Algo is the selected run-generation sort.
	Algo Algo
	// MergeRole hints the run's merge scheduling.
	MergeRole MergeRole
	// SpillBlockRows, when positive, overrides the default spill block
	// shape for this run (duplicate-heavy runs take larger blocks: more
	// adjacent equal keys per block means more OVC duplicate hits and a
	// better front-coding ratio).
	SpillBlockRows int
	// FrontCode reports whether the run's spill blocks should attempt
	// prefix front-coding of the key section (re-checked per block and
	// per spill generation by the writer).
	FrontCode bool
	// DupGroupMinAvg is the minimum average adjacent-group size the
	// duplicate-group collector should demand; only meaningful when Algo
	// is AlgoDupGroup.
	DupGroupMinAvg float64
	// Stats is the sampled distribution the plan was derived from.
	Stats Stats
	// RadixCost and PdqCost are the modeled per-row costs the crossover
	// was decided on.
	RadixCost, PdqCost float64
}
