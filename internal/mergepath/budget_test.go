package mergepath

import (
	"math"
	"slices"
	"testing"
)

func TestPlanBlockRows(t *testing.T) {
	cases := []struct {
		name      string
		remaining int64
		rowBytes  int64
		maxRows   int
		want      int
	}{
		{"unlimited budget hits maxRows", math.MaxInt64, 100, 4096, 4096},
		{"huge budget capped by maxBlockBytes", 1 << 40, 64, 1 << 20, maxBlockBytes / 64},
		{"moderate budget splits a share", 16 << 20, 1 << 10, 4096, 1024},
		{"tiny budget clamps to floor", 100, 100, 4096, minBlockRows},
		{"negative headroom clamps to floor", -5000, 100, 4096, minBlockRows},
		{"zero row bytes does not divide by zero", 1 << 20, 0, 4096, 4096},
	}
	for _, c := range cases {
		if got := PlanBlockRows(c.remaining, c.rowBytes, c.maxRows); got != c.want {
			t.Errorf("%s: PlanBlockRows(%d, %d, %d) = %d, want %d",
				c.name, c.remaining, c.rowBytes, c.maxRows, got, c.want)
		}
	}
}

func TestPlanMerge(t *testing.T) {
	// rowBytes 100, maxRows 4096 → healthy blocks are 512 rows (51200
	// bytes per buffer).
	cases := []struct {
		name      string
		k         int
		remaining int64
		buffers   int
		want      MergePlan
	}{
		{"huge budget merges flat at max blocks", 4, 1 << 30, 1, MergePlan{4, 4096}},
		{"exact healthy budget merges flat", 4, 4 * 51200, 1, MergePlan{4, 512}},
		{"tight budget forces passes, blocks stay healthy", 64, 8 * 51200, 1, MergePlan{8, 512}},
		{"read-ahead doubles the footprint, halving fan-in", 64, 8 * 51200, 2, MergePlan{4, 512}},
		{"starved budget shrinks blocks last", 64, 51200, 1, MergePlan{2, 256}},
		{"zero budget clamps to floors", 8, 0, 1, MergePlan{2, 16}},
		{"negative headroom clamps to floors", 8, -4096, 2, MergePlan{2, 16}},
	}
	for _, c := range cases {
		if got := PlanMerge(c.k, c.remaining, 100, 4096, c.buffers); got != c.want {
			t.Errorf("%s: PlanMerge(%d, %d, 100, 4096, %d) = %+v, want %+v",
				c.name, c.k, c.remaining, c.buffers, got, c.want)
		}
	}
}

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
