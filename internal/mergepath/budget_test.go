package mergepath

import (
	"slices"
	"testing"
)

// TestPlanFanIn pins the fan-in a budget affords: the remaining bytes over
// what each run holds resident, clamped to [2, k] — including when the
// budget is gone, or was never enough for a 2-way merge.
func TestPlanFanIn(t *testing.T) {
	cases := []struct {
		name       string
		k          int
		remaining  int64
		blockBytes int64
		want       int
	}{
		{"budget fits all runs", 10, 1 << 20, 1 << 10, 10},
		{"budget halves the fan-in", 10, 5 << 10, 1 << 10, 5},
		{"starved budget still merges pairwise", 10, 0, 1 << 10, minFanIn},
		{"negative headroom still merges pairwise", 10, -100, 1 << 10, minFanIn},
		{"k below the floor passes through", 1, 0, 1 << 10, minFanIn},
		{"two runs always merge directly", 2, 0, 1 << 10, 2},
		{"zero block bytes does not divide by zero", 8, 4, 0, 4},
		{"tight budget forces passes", 64, 8 * 51200, 51200, 8},
		{"read-ahead doubles the footprint, halving fan-in", 64, 8 * 51200, 2 * 51200, 4},
		{"budget below two blocks still merges pairwise", 64, 51200, 51200, minFanIn},
		{"huge budget merges flat", 4, 1 << 30, 51200, 4},
	}
	for _, c := range cases {
		if got := PlanFanIn(c.k, c.remaining, c.blockBytes); got != c.want {
			t.Errorf("%s: PlanFanIn(%d, %d, %d) = %d, want %d",
				c.name, c.k, c.remaining, c.blockBytes, got, c.want)
		}
	}
}

// TestBatchRunsCutEveryFanIn pins the fan-in reducer's batching: cuts every
// fanIn runs, the trailing remainder in its own batch, fan-in clamped to two.
func TestBatchRunsCutEveryFanIn(t *testing.T) {
	for _, c := range []struct{ n, fanIn int }{{10, 4}, {8, 4}, {1, 4}, {5, 2}, {7, 16}, {5, 1}} {
		got := BatchRuns(c.n, c.fanIn)
		var want [][2]int
		for i, f := 0, max(c.fanIn, 2); i < c.n; i += f {
			want = append(want, [2]int{i, min(i+f, c.n)})
		}
		if !slices.Equal(got, want) {
			t.Fatalf("n=%d fanIn=%d: %v, want %v", c.n, c.fanIn, got, want)
		}
	}
	if got := BatchRuns(0, 4); got != nil {
		t.Fatalf("no runs: %v, want none", got)
	}
}
