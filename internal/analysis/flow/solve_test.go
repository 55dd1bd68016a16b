package flow_test

import (
	"go/ast"
	"testing"

	"rowsort/internal/analysis/flow"
)

// A small must-analysis over the generic solver: which variables are
// definitely assigned on every path. Join is intersection (must); the dual
// may-analysis would use union. Facts are name sets.
func mustAssigned(t *testing.T, src, fn string) (*flow.Graph, map[*flow.Block]map[string]bool) {
	g := buildFunc(t, src, fn)
	clone := func(f map[string]bool) map[string]bool {
		out := make(map[string]bool, len(f))
		for k := range f {
			out[k] = true
		}
		return out
	}
	return g, flow.Solve(g, map[string]bool{}, flow.Lattice[map[string]bool]{
		Join: func(a, b map[string]bool) map[string]bool {
			out := make(map[string]bool)
			for k := range a {
				if b[k] {
					out[k] = true
				}
			}
			return out
		},
		Equal: func(a, b map[string]bool) bool {
			if len(a) != len(b) {
				return false
			}
			for k := range a {
				if !b[k] {
					return false
				}
			}
			return true
		},
		Transfer: func(blk *flow.Block, in map[string]bool) map[string]bool {
			out := in
			copied := false
			for _, n := range blk.Nodes {
				as, ok := n.(*ast.AssignStmt)
				if !ok {
					continue
				}
				for _, lhs := range as.Lhs {
					if id, ok := lhs.(*ast.Ident); ok && id.Name != "_" {
						if !copied {
							out = clone(out)
							copied = true
						}
						out[id.Name] = true
					}
				}
			}
			return out
		},
	})
}

func TestSolveMustAssignedBothBranches(t *testing.T) {
	src := `package p
func f(c bool) {
	var x, y int
	if c {
		x = 1
		y = 1
	} else {
		x = 2
	}
	_ = x
	_ = y
}`
	g, in := mustAssigned(t, src, "f")
	exit := in[g.Exit]
	if !exit["x"] {
		t.Fatalf("x assigned in both branches must survive the join: %v", exit)
	}
	if exit["y"] {
		t.Fatalf("y assigned in one branch must not survive a must-join: %v", exit)
	}
}

func TestSolveLoopReachesFixpoint(t *testing.T) {
	src := `package p
func f(n int) {
	i := 0
	for i < n {
		i = i + 1
	}
	_ = i
}`
	g, in := mustAssigned(t, src, "f")
	if !in[g.Exit]["i"] {
		t.Fatalf("i assigned before the loop must hold at exit: %v", in[g.Exit])
	}
}
