package core

import (
	"encoding/json"
	"fmt"
	"net/http/httptest"
	"slices"
	"strings"
	"testing"

	"rowsort/internal/obs"
	"rowsort/internal/vector"
	"rowsort/internal/workload"
)

func TestAdaptiveSortCorrectness(t *testing.T) {
	// The planner must never affect the result, only the algorithm.
	for _, dist := range []workload.Dist{{Random: true}, {P: 1}} {
		cols := dist.Generate(8_000, 2, 143)
		tbl := workload.UintColumnsTable(cols)
		keys := []SortColumn{{Column: 0}, {Column: 1}}
		got, err := SortTable(tbl, keys, Options{Adaptive: true, Threads: 2, RunSize: 1000})
		if err != nil {
			t.Fatal(err)
		}
		checkSorted(t, tbl, got, keys, "adaptive "+dist.String())
	}
	// Presorted input exercises the planner's pdqsort branch.
	n := 8000
	sortedVals := make([]uint32, n)
	for i := range sortedVals {
		sortedVals[i] = uint32(i)
	}
	tbl := workload.UintColumnsTable([][]uint32{sortedVals})
	keys := []SortColumn{{Column: 0}}
	got, err := SortTable(tbl, keys, Options{Adaptive: true, Threads: 1})
	if err != nil {
		t.Fatal(err)
	}
	checkSorted(t, tbl, got, keys, "adaptive presorted")
}

// TestStrategyDecisionsRecorded pins the one-executor property: however a
// run's plan came about — sampled, the static rule, dictated by a tie-break —
// its decision is recorded through the same path (one entry per generated
// run, run ids unique and in range, every field a plan has filled in,
// sampled statistics present exactly when the plan was sampled), and Algo
// names the kernel that ran, which the kernels' own counters confirm.
func TestStrategyDecisionsRecorded(t *testing.T) {
	uints := workload.UintColumnsTable(workload.Dist{Random: true}.Generate(8_000, 2, 144))
	uintKeys := []SortColumn{{Column: 0}, {Column: 1}}
	col0 := []SortColumn{{Column: 0}}

	for _, tc := range []struct {
		name   string
		tbl    *vector.Table
		keys   []SortColumn
		opt    Options
		sample *vector.Table // when set, what the key compression is planned from
		forced string        // expected Forced value, "" = sampled plan
		algos  []string      // the kernels the runs may name; nil = any
	}{
		{"sampled", uints, uintKeys, Options{Adaptive: true}, nil, "", nil},
		{"static", uints, uintKeys, Options{}, nil, "static", []string{"msd-radix"}},
		{"static, KeyCompRLE", workload.DupHeavyInts(8_000, 50, 32), col0,
			Options{KeyComp: KeyCompRLE}, nil, "static", []string{"dup-group"}},
		{"tie-break", mixedTable(8_000, 91), mergeTestKeys, Options{}, nil, "tie-break", []string{"pdqsort"}},
		// A dictionary planned from a quarter of the value pool: the rest
		// escape to gap codes, which tie.
		{"compressed tie-break", workload.LowCardStrings(6_000, 256, 33), col0,
			Options{KeyComp: KeyCompDict}, workload.LowCardStrings(2_000, 64, 133), "tie-break", []string{"radix+repair"}},
	} {
		tc.opt.Threads, tc.opt.RunSize = 2, 1000
		s := finalizedSorter(t, tc.tbl, tc.keys, tc.opt, func(s *Sorter) {
			if tc.sample == nil {
				return
			}
			if err := s.PlanCompression(tc.sample.Chunks); err != nil {
				t.Fatal(err)
			}
		})
		checkSorted(t, tc.tbl, resultChecked(t, s), tc.keys, tc.name)
		st := s.Stats()
		s.Close()
		if int64(len(st.StrategyDecisions)) != st.RunsGenerated {
			t.Fatalf("%s: %d decisions for %d runs", tc.name, len(st.StrategyDecisions), st.RunsGenerated)
		}
		seen := map[int]bool{}
		ran := map[string]int64{}
		asPlanned := 0 // runs whose plan came about the way under test
		for _, d := range st.StrategyDecisions {
			if seen[d.Run] || d.Run < 0 || d.Run >= int(st.RunsGenerated) {
				t.Fatalf("%s: bad or duplicate run id %d", tc.name, d.Run)
			}
			seen[d.Run] = true
			ran[d.Algo]++
			if d.Algo == "" || d.Rows <= 0 || d.MergeRole == "" {
				t.Fatalf("%s: incomplete decision %+v", tc.name, d)
			}
			algos := tc.algos
			if tc.forced == "tie-break" && d.Forced == "static" {
				// A run none of whose chunks reported a possible tie.
				algos = []string{"msd-radix"}
			} else if asPlanned++; d.Forced != tc.forced {
				t.Fatalf("%s: forced = %q, want %q", tc.name, d.Forced, tc.forced)
			}
			if algos != nil && !slices.Contains(algos, d.Algo) {
				t.Fatalf("%s: run sorted by %q, want one of %v", tc.name, d.Algo, algos)
			}
			if sampled := d.RadixCost > 0 && d.PdqCost > 0; sampled != (tc.forced == "") {
				t.Fatalf("%s: sampled statistics on a dictated plan, or none on a sampled one: %+v", tc.name, d)
			}
		}
		if asPlanned == 0 {
			t.Fatalf("%s: no run's plan came about the way under test", tc.name)
		}
		if ran["dup-group"] != st.RunsGroupSorted || ran["radix+repair"] != st.RunsTieRepaired {
			t.Fatalf("%s: decisions name %v; the kernels counted %d grouped and %d repaired runs",
				tc.name, ran, st.RunsGroupSorted, st.RunsTieRepaired)
		}
	}
}

// TestAdaptiveDupGroupWithoutRLE verifies the planner reaches the
// duplicate-group sort from its own sampled statistics, without the static
// KeyCompRLE configuration bit that used to gate it.
func TestAdaptiveDupGroupWithoutRLE(t *testing.T) {
	n := 16_000
	vals := make([]uint32, n) // sorted, 64-row duplicate groups: DupRunFrac ~ 63/64
	for i := range vals {
		vals[i] = uint32(i / 64)
	}
	tbl := workload.UintColumnsTable([][]uint32{vals})
	keys := []SortColumn{{Column: 0}}
	got, st, err := SortTableStats(tbl, keys, Options{Adaptive: true, Threads: 1, RunSize: 2000})
	if err != nil {
		t.Fatal(err)
	}
	checkSorted(t, tbl, got, keys, "adaptive dup-heavy")
	if st.RunsGroupSorted == 0 {
		t.Fatal("no run used the duplicate-group sort")
	}
	grouped := 0
	for _, d := range st.StrategyDecisions {
		if d.Algo == "dup-group" {
			grouped++
			if d.DupRunFrac < 0.5 {
				t.Fatalf("dup-group chosen at DupRunFrac %.2f", d.DupRunFrac)
			}
			if d.MergeRole != "dup-heavy" {
				t.Fatalf("dup-heavy run got merge role %q", d.MergeRole)
			}
			if !d.FrontCode {
				t.Fatal("dup-heavy run did not enable spill front-coding")
			}
		}
	}
	if int64(grouped) != st.RunsGroupSorted {
		t.Fatalf("%d dup-group decisions but %d grouped runs", grouped, st.RunsGroupSorted)
	}
}

// TestAdaptiveFrontCodedSpillMatchesResident is the format-3 round trip:
// an adaptive external sort (front-coded spill blocks) must produce exactly
// the rows of the same adaptive sort run fully in memory. Run cuts and
// planner inputs are identical (one thread, fixed run size), so the only
// difference is the spill encode/decode under test.
func TestAdaptiveFrontCodedSpillMatchesResident(t *testing.T) {
	n := 20_000
	vals := make([]uint32, n)
	for i := range vals {
		vals[i] = uint32(i / 32)
	}
	tbl := workload.UintColumnsTable([][]uint32{vals})
	keys := []SortColumn{{Column: 0}}
	base := Options{Adaptive: true, Threads: 1, RunSize: 1500}

	resident, err := SortTable(tbl, keys, base)
	if err != nil {
		t.Fatal(err)
	}
	ext := base
	ext.SpillDir = t.TempDir()
	spilled, st, err := SortTableStats(tbl, keys, ext)
	if err != nil {
		t.Fatal(err)
	}
	if st.SpillBlocksFrontCoded == 0 {
		t.Fatal("no spill block was front-coded; the round trip was not exercised")
	}
	if resident.NumRows() != spilled.NumRows() {
		t.Fatalf("row counts differ: %d resident, %d spilled", resident.NumRows(), spilled.NumRows())
	}
	rc, sc := resident.Column(0), spilled.Column(0)
	for i := 0; i < resident.NumRows(); i++ {
		if rc.Value(i) != sc.Value(i) {
			t.Fatalf("row %d differs: resident %v, spilled %v", i, rc.Value(i), sc.Value(i))
		}
	}
}

// TestAdaptiveRunSnapshotCarriesStrategy wires the decision log through the
// observability registry: the run's HTTP snapshot must list the decisions,
// and the Prometheus export must carry the per-algorithm run counts.
func TestAdaptiveRunSnapshotCarriesStrategy(t *testing.T) {
	cols := workload.Dist{Random: true}.Generate(6_000, 1, 145)
	tbl := workload.UintColumnsTable(cols)
	keys := []SortColumn{{Column: 0}}

	reg := obs.NewRegistry(0)
	srv := httptest.NewServer(reg.Handler())
	defer srv.Close()

	_, st, err := SortTableStats(tbl, keys, Options{
		Adaptive: true, Threads: 1, RunSize: 1000,
		Registry: reg, RunLabel: "adaptive-snap",
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(st.StrategyDecisions) == 0 {
		t.Fatal("no decisions recorded")
	}

	snaps := reg.Snapshots()
	if len(snaps) != 1 {
		t.Fatalf("registry holds %d runs, want 1", len(snaps))
	}
	resp, err := srv.Client().Get(srv.URL + "/debug/rowsort/run?id=" + snaps[0].ID)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var snap struct {
		Strategy []obs.StrategyDecision `json:"strategy"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&snap); err != nil {
		t.Fatal(err)
	}
	if len(snap.Strategy) != len(st.StrategyDecisions) {
		t.Fatalf("snapshot carries %d decisions, stats %d", len(snap.Strategy), len(st.StrategyDecisions))
	}
	for i, d := range snap.Strategy {
		if d != st.StrategyDecisions[i] {
			t.Fatalf("decision %d differs: snapshot %+v, stats %+v", i, d, st.StrategyDecisions[i])
		}
	}

	var prom strings.Builder
	if err := st.WritePrometheus(&prom); err != nil {
		t.Fatal(err)
	}
	if err := obs.ValidatePrometheus([]byte(prom.String())); err != nil {
		t.Fatalf("invalid Prometheus output: %v", err)
	}
	want := fmt.Sprintf("rowsort_strategy_runs_total{algo=%q}", st.StrategyDecisions[0].Algo)
	if !strings.Contains(prom.String(), want) {
		t.Fatalf("Prometheus output missing %s", want)
	}
}
