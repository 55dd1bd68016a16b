package strategy

import (
	"rowsort/internal/perfmodel"
)

// Decision thresholds. The sort crossover itself is NOT a threshold — it
// falls out of perfmodel's cost curves — but a few structural gates remain:
// when grouping pays and when a run counts as presorted. (Which radix sort a
// radix plan names is the radix package's own width rule; see RadixAlgo.)
const (
	// dupGroupFrac: adjacent equal-key pair fraction at which the
	// duplicate-group sort is worth attempting (>= 0.5 means adjacent
	// groups average two or more rows, the collector's own bar).
	dupGroupFrac = 0.5
	// presortedCut mirrors pdqsort's pattern-detector regime.
	presortedCut = 0.95
	// dupRoleRatio: distinct fraction below which a run merges dup-heavy.
	dupRoleRatio = 0.05
	// frontCodeMaxRatio: spill-block front-coding is attempted when the
	// sampled distinct fraction is at or below this (repeats mean shared
	// prefixes worth eliding) or the key has a constant prefix.
	frontCodeMaxRatio = 0.5
)

// Config fixes the per-sink facts a planner needs about the sort's shape.
type Config struct {
	// RowWidth and KeyWidth are the key-row stride and compared prefix.
	RowWidth, KeyWidth int
	// SegOffs are the key segments' start offsets (for the per-segment
	// cardinality sketches); nil means one segment.
	SegOffs []int
	// AllowDupGroup enables the duplicate-group sort (requires the key
	// prefix to be byte-decisive; the caller knows).
	AllowDupGroup bool
	// DefaultSpillBlockRows is the block shape a zero plan hint means.
	DefaultSpillBlockRows int
}

// Planner derives a Plan per run from sampled statistics. It owns one
// Analyzer's scratch, so it is cheap to keep per sink and must not be
// shared across goroutines.
type Planner struct {
	cfg Config
	an  *Analyzer
}

// NewPlanner returns a planner for the given sort shape.
func NewPlanner(cfg Config) *Planner {
	return &Planner{cfg: cfg, an: NewAnalyzer(cfg.KeyWidth, cfg.SegOffs)}
}

// PlanRun samples the pending run's key rows and returns its execution
// plan. Runs once per run cut; does not allocate.
func (p *Planner) PlanRun(keys []byte, n int) Plan {
	if n < 2 {
		return Plan{Algo: RadixAlgo(p.cfg.KeyWidth), Stats: Stats{Rows: n, Sampled: n, FirstVarying: -1}}
	}
	st := p.an.Analyze(keys, p.cfg.RowWidth, n)
	sh := perfmodel.RunShape{
		Rows:              n,
		RowBytes:          p.cfg.RowWidth,
		KeyBytes:          p.cfg.KeyWidth,
		EffectiveKeyBytes: st.EffectiveBytes,
		Sortedness:        st.Sortedness,
		DistinctRatio:     st.DistinctRatio,
	}
	pl := Plan{
		Stats:     st,
		RadixCost: perfmodel.RadixRunCost(sh),
		PdqCost:   perfmodel.PdqRunCost(sh),
	}

	// Sort choice: duplicate grouping first (it subsumes the radix arms —
	// the representatives still radix-sort, but each distinct key moves
	// once), then the modeled radix/pdq crossover.
	switch {
	case p.cfg.AllowDupGroup && st.DupRunFrac >= dupGroupFrac && n >= 2:
		pl.Algo = AlgoDupGroup
		// A confident sample relaxes the collector's bar; a borderline
		// one keeps the conservative average-group-of-two gate.
		pl.DupGroupMinAvg = 2
		if st.DupRunFrac >= 0.75 {
			pl.DupGroupMinAvg = 1.5
		}
	case pl.PdqCost < pl.RadixCost:
		pl.Algo = AlgoPdqsort
	default:
		pl.Algo = RadixAlgo(p.cfg.KeyWidth)
	}

	// Merge role.
	switch {
	case st.DistinctRatio <= dupRoleRatio || st.DupRunFrac >= dupGroupFrac:
		pl.MergeRole = RoleDupHeavy
	case st.Sortedness >= presortedCut:
		pl.MergeRole = RolePresorted
	}

	// Spill shape: duplicate-heavy runs take double-size blocks (bounded
	// decode buffers are cheap there — repeated keys front-code away) so
	// each block carries more mergeable context; everyone else keeps the
	// default. A hint the sorter no longer reads: it sizes every spill block
	// by rule (core's spillBlockRows).
	if pl.MergeRole == RoleDupHeavy && p.cfg.DefaultSpillBlockRows > 0 {
		pl.SpillBlockRows = 2 * p.cfg.DefaultSpillBlockRows
	}

	// Spill-key compression: attempt front-coding when repeats or a
	// constant prefix promise shared leading bytes between neighbors.
	constantPrefix := st.FirstVarying > 0 || (st.FirstVarying < 0 && n > 0)
	pl.FrontCode = st.DistinctRatio <= frontCodeMaxRatio ||
		st.DupRunFrac >= dupGroupFrac || constantPrefix
	return pl
}
