package strategy

import (
	"testing"

	"rowsort/internal/radix"
	"rowsort/internal/workload"
)

func planWith(t *testing.T, keys []byte, rowW, keyW, n int, dupOK bool) Plan {
	t.Helper()
	p := NewPlanner(Config{RowWidth: rowW, KeyWidth: keyW, AllowDupGroup: dupOK,
		DefaultSpillBlockRows: 4096})
	return p.PlanRun(keys, n)
}

// The modeled crossover must reproduce the regimes the old hard-coded rule
// got right (these mirror the former core heuristic tests) — now with the
// specific radix variant visible in the plan.

func TestPlanRadixOnRandomShortKeys(t *testing.T) {
	rng := workload.NewRNG(140)
	n := 1 << 14
	vals := make([]uint32, n)
	for i := range vals {
		vals[i] = rng.Uint32()
	}
	pl := planWith(t, buildKeyRows(vals, 8), 8, 4, n, true)
	if pl.Algo != AlgoLSDRadix {
		t.Fatalf("random 4-byte keys: algo %v (radix %.1f vs pdq %.1f), want lsd-radix",
			pl.Algo, pl.RadixCost, pl.PdqCost)
	}
}

func TestPlanPdqOnPresorted(t *testing.T) {
	n := 1 << 14
	vals := make([]uint32, n)
	for i := range vals {
		vals[i] = uint32(i)
	}
	pl := planWith(t, buildKeyRows(vals, 8), 8, 4, n, true)
	if pl.Algo != AlgoPdqsort {
		t.Fatalf("sorted input: algo %v (radix %.1f vs pdq %.1f), want pdqsort",
			pl.Algo, pl.RadixCost, pl.PdqCost)
	}
	if pl.MergeRole != RolePresorted {
		t.Fatalf("sorted input: merge role %v, want presorted", pl.MergeRole)
	}
}

func TestPlanPdqOnLongEffectiveKeys(t *testing.T) {
	// 64 varying key bytes at n=1024: byte passes dwarf log2(n) compares.
	rng := workload.NewRNG(141)
	n := 1 << 10
	const rowW, keyW = 72, 64
	keys := make([]byte, n*rowW)
	for i := range keys {
		keys[i] = byte(rng.Intn(256))
	}
	pl := planWith(t, keys, rowW, keyW, n, true)
	if pl.Algo != AlgoPdqsort {
		t.Fatalf("64 varying bytes: algo %v (radix %.1f vs pdq %.1f), want pdqsort",
			pl.Algo, pl.RadixCost, pl.PdqCost)
	}
}

func TestPlanSharedPrefixCountsAsFree(t *testing.T) {
	// 64-byte keys, only bytes 62-63 vary: two effective passes make radix
	// beat pdqsort's 64-byte compares, but the key is far too wide for LSD
	// (constant positions still cost a counting scan per pass, so the
	// narrow varying band does not buy LSD back) — MSD it is. The constant
	// prefix's real payoff is the spill plan: front-coding elides it.
	rng := workload.NewRNG(142)
	n := 1 << 12
	const rowW, keyW = 72, 64
	keys := make([]byte, n*rowW)
	for i := 0; i < n; i++ {
		keys[i*rowW+62] = byte(rng.Intn(256))
		keys[i*rowW+63] = byte(rng.Intn(256))
	}
	pl := planWith(t, keys, rowW, keyW, n, true)
	if pl.Algo != AlgoMSDRadix {
		t.Fatalf("2 effective bytes: algo %v (radix %.1f vs pdq %.1f), want msd-radix",
			pl.Algo, pl.RadixCost, pl.PdqCost)
	}
	if !pl.FrontCode {
		t.Fatal("constant 62-byte prefix should enable spill front-coding")
	}
}

func TestPlanMSDOnWideVaryingRadixRegime(t *testing.T) {
	// 8 varying bytes at n=64k: radix still wins (8 < log2 n crossover
	// region) but too many passes for LSD.
	rng := workload.NewRNG(144)
	n := 1 << 16
	const rowW, keyW = 16, 8
	keys := make([]byte, n*rowW)
	for i := 0; i < n; i++ {
		for b := 0; b < keyW; b++ {
			keys[i*rowW+b] = byte(rng.Intn(256))
		}
	}
	pl := planWith(t, keys, rowW, keyW, n, true)
	if pl.Algo != AlgoMSDRadix {
		t.Fatalf("8 varying bytes at 64k rows: algo %v (radix %.1f vs pdq %.1f), want msd-radix",
			pl.Algo, pl.RadixCost, pl.PdqCost)
	}
}

func TestPlanDupGroupOnDupHeavyRuns(t *testing.T) {
	n := 1 << 14
	vals := make([]uint32, n)
	for i := range vals {
		vals[i] = uint32(i / 16) // adjacent groups of 16
	}
	pl := planWith(t, buildKeyRows(vals, 8), 8, 4, n, true)
	if pl.Algo != AlgoDupGroup {
		t.Fatalf("groups of 16: algo %v (dupFrac %.2f), want dup-group", pl.Algo, pl.Stats.DupRunFrac)
	}
	if pl.MergeRole != RoleDupHeavy {
		t.Fatalf("groups of 16: merge role %v, want dup-heavy", pl.MergeRole)
	}
	if pl.SpillBlockRows != 2*4096 {
		t.Fatalf("dup-heavy block hint = %d, want %d", pl.SpillBlockRows, 2*4096)
	}
	if !pl.FrontCode {
		t.Fatal("dup-heavy run should enable spill front-coding")
	}
	// Same data with dup-grouping unavailable (tie-capable keys): falls to
	// the cost crossover, which picks a radix arm for one effective byte
	// region... the point is it must not pick AlgoDupGroup.
	pl = planWith(t, buildKeyRows(vals, 8), 8, 4, n, false)
	if pl.Algo == AlgoDupGroup {
		t.Fatal("dup-group chosen despite AllowDupGroup=false")
	}
}

// TestPlanNearlySortedStaysRadix pins the measured crossover: at 0.1%
// disorder pdqsort's pattern detection already loses to radix (the move
// budget blows on the displaced rows), so the plan must not take the
// presorted cliff even though the run is 99.8% in order — and even when the
// base sample happens to look perfectly sorted.
func TestPlanNearlySortedStaysRadix(t *testing.T) {
	rng := workload.NewRNG(146)
	n := 1 << 14
	vals := make([]uint32, n)
	for i := range vals {
		vals[i] = uint32(i)
	}
	for i := range vals {
		if rng.Float64() < 0.001 {
			j := rng.Intn(n)
			vals[i], vals[j] = vals[j], vals[i]
		}
	}
	pl := planWith(t, buildKeyRows(vals, 8), 8, 4, n, false)
	if pl.Algo == AlgoPdqsort {
		t.Fatalf("0.1%% disorder: algo pdqsort (sortedness %.4f) — cliff taken on imperfect run",
			pl.Stats.Sortedness)
	}
}

func TestPlanSawtoothStaysRadix(t *testing.T) {
	// The adversarial presortedness input: locally ascending ramps over a
	// short-key domain. pdqsort's pattern detector gives up on it, so the
	// plan must not take the presorted cliff.
	n := 1 << 14
	vals := make([]uint32, n)
	for i := range vals {
		vals[i] = uint32(i % 512)
	}
	pl := planWith(t, buildKeyRows(vals, 8), 8, 4, n, false)
	if pl.Algo == AlgoPdqsort {
		t.Fatalf("sawtooth: algo pdqsort (sortedness %.2f) — the estimator was fooled",
			pl.Stats.Sortedness)
	}
}

func TestPlanDegenerate(t *testing.T) {
	p := NewPlanner(Config{RowWidth: 8, KeyWidth: 4})
	if pl := p.PlanRun(nil, 0); pl.Algo != AlgoLSDRadix {
		t.Fatalf("empty run: algo %v, want lsd-radix", pl.Algo)
	}
	one := buildKeyRows([]uint32{1}, 8)
	if pl := p.PlanRun(one, 1); pl.Algo == AlgoPdqsort {
		t.Fatalf("single row: algo %v", pl.Algo)
	}
	// All-equal keys: zero effective bytes — one skip pass, radix.
	keys := make([]byte, 1000*8)
	pl := p.PlanRun(keys, 1000)
	if pl.Algo != AlgoLSDRadix && pl.Algo != AlgoDupGroup {
		t.Fatalf("all-equal keys: algo %v", pl.Algo)
	}
}

func TestAnalyzeAllocs(t *testing.T) {
	n := 1 << 14
	rng := workload.NewRNG(19)
	vals := make([]uint32, n)
	for i := range vals {
		vals[i] = rng.Uint32()
	}
	keys := buildKeyRows(vals, 8)
	p := NewPlanner(Config{RowWidth: 8, KeyWidth: 4, AllowDupGroup: true})
	p.PlanRun(keys, n) // warm up
	if allocs := testing.AllocsPerRun(20, func() { p.PlanRun(keys, n) }); allocs > 0 {
		t.Fatalf("PlanRun allocates %.1f times per run, want 0", allocs)
	}
}

// TestRadixAlgoNamesWhatRadixSortRuns pins the one width rule: the sorter
// passes radix.Sort no override, so the algorithm a radix plan names must be
// the one radix.Sort picks by itself at that key width.
func TestRadixAlgoNamesWhatRadixSortRuns(t *testing.T) {
	for kw := 1; kw <= 12; kw++ {
		rows := make([]byte, 4*16)
		rows[0], rows[16+kw-1] = 2, 1 // two distinct keys, so a pass runs
		ranMSD := radix.Sort(rows, 16, kw).UsedMSD
		if named := RadixAlgo(kw); ranMSD != (named == AlgoMSDRadix) {
			t.Errorf("key width %d: a radix plan says %v, radix.Sort ran MSD = %v", kw, named, ranMSD)
		}
	}
}
