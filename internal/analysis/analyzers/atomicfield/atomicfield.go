// Package atomicfield checks that any variable or struct field touched
// through sync/atomic anywhere in the module is touched atomically
// everywhere. The telemetry layer (internal/obs) and the sort counters
// (core.SortStats) are updated concurrently by merge and gather workers; a
// single plain read or write mixed in with the atomic ones is a data race
// the race detector only catches if a test happens to hit the interleaving.
// The analyzer makes the property structural: it collects every address
// passed to a sync/atomic call, then flags every other plain access to the
// same variable or field.
//
// It also covers the typed API (atomic.Int64, atomic.Bool, ...), which the
// counter block (obs.Block) and the recorder's phase arrays use:
// any expression of a sync/atomic struct type that is not the receiver of
// a method call or explicitly addressed is a by-value copy — the copy is
// racy to produce and useless to keep — and is flagged.
package atomicfield

import (
	"go/ast"
	"go/token"
	"go/types"

	"rowsort/internal/analysis"
)

// Analyzer flags plain accesses to atomically-accessed variables.
var Analyzer = &analysis.Analyzer{
	Name: "atomicfield",
	Doc:  "fields accessed via sync/atomic must be accessed atomically everywhere",
	Run:  run,
}

// atomicFacts is the universe-wide collection result: the variables with at
// least one sync/atomic access, and the positions of the identifiers that
// appear inside those atomic calls (so the checking sweep can skip them).
type atomicFacts struct {
	vars    map[*types.Var]bool
	allowed map[token.Pos]bool
}

func run(pass *analysis.Pass) {
	facts := pass.U.Memo("atomicfield.facts", func() any {
		return collect(pass.U)
	}).(*atomicFacts)
	for _, file := range pass.Pkg.Files {
		checkTypedValues(pass, file)
		if len(facts.vars) == 0 {
			continue
		}
		ast.Inspect(file, func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.SelectorExpr:
				v, ok := pass.Pkg.Info.Uses[n.Sel].(*types.Var)
				if ok && v.IsField() && facts.vars[v] && !facts.allowed[n.Sel.Pos()] {
					pass.Reportf(n.Sel.Pos(), "plain access to %s races with its sync/atomic use; access it atomically everywhere", v.Name())
				}
			case *ast.Ident:
				v, ok := pass.Pkg.Info.Uses[n].(*types.Var)
				if ok && !v.IsField() && facts.vars[v] && !facts.allowed[n.Pos()] {
					pass.Reportf(n.Pos(), "plain access to %s races with its sync/atomic use; access it atomically everywhere", v.Name())
				}
			}
			return true
		})
	}
}

// checkTypedValues flags by-value uses of the sync/atomic struct types
// (atomic.Int64 and friends). Two passes over the file: the first marks the
// contexts where an atomic value legitimately appears without its address
// escaping — as the receiver of a selector (p.RowsIngested.Add(1)) or the
// operand of an explicit & — and the second reports every other expression
// of an atomic type: those are copies, which tear under concurrent Store
// and decouple the copy from the shared counter.
func checkTypedValues(pass *analysis.Pass, file *ast.File) {
	info := pass.Pkg.Info
	allowed := map[ast.Node]bool{}
	ast.Inspect(file, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.SelectorExpr:
			x := ast.Unparen(n.X)
			if isAtomicType(info.TypeOf(x)) {
				allowed[x] = true
			}
		case *ast.UnaryExpr:
			if n.Op == token.AND {
				x := ast.Unparen(n.X)
				if isAtomicType(info.TypeOf(x)) {
					allowed[x] = true
				}
			}
		}
		return true
	})
	ast.Inspect(file, func(n ast.Node) bool {
		expr, ok := n.(ast.Expr)
		if !ok || allowed[n] {
			return true
		}
		switch e := expr.(type) {
		case *ast.SelectorExpr, *ast.IndexExpr:
		case *ast.Ident:
			// Only value uses: skip declarations and the Sel half of
			// selectors (neither has a value entry in Types).
			if info.Defs[e] != nil {
				return true
			}
		default:
			return true
		}
		tv, ok := info.Types[expr]
		if !ok || !tv.IsValue() || !isAtomicType(tv.Type) {
			return true
		}
		pass.Reportf(expr.Pos(), "sync/atomic value of type %s copied or accessed by value; use its methods or take its address", types.TypeString(tv.Type, types.RelativeTo(pass.Pkg.Types)))
		return false
	})
}

// isAtomicType reports whether t is one of sync/atomic's struct types
// (Int32, Int64, Uint32, Uint64, Uintptr, Bool, Value, Pointer[T]).
func isAtomicType(t types.Type) bool {
	named, ok := t.(*types.Named)
	if !ok {
		return false
	}
	obj := named.Obj()
	return obj.Pkg() != nil && obj.Pkg().Path() == "sync/atomic"
}

// collect sweeps the whole universe for &target arguments of sync/atomic
// calls.
func collect(u *analysis.Universe) *atomicFacts {
	facts := &atomicFacts{vars: make(map[*types.Var]bool), allowed: make(map[token.Pos]bool)}
	for _, pkg := range u.Pkgs {
		for _, file := range pkg.Files {
			ast.Inspect(file, func(n ast.Node) bool {
				call, ok := n.(*ast.CallExpr)
				if !ok || len(call.Args) == 0 {
					return true
				}
				sel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr)
				if !ok {
					return true
				}
				fn, ok := pkg.Info.Uses[sel.Sel].(*types.Func)
				if !ok || fn.Pkg() == nil || fn.Pkg().Path() != "sync/atomic" {
					return true
				}
				addr, ok := ast.Unparen(call.Args[0]).(*ast.UnaryExpr)
				if !ok || addr.Op != token.AND {
					return true
				}
				switch target := ast.Unparen(addr.X).(type) {
				case *ast.SelectorExpr:
					if v, ok := pkg.Info.Uses[target.Sel].(*types.Var); ok {
						facts.vars[v] = true
						facts.allowed[target.Sel.Pos()] = true
					}
				case *ast.Ident:
					if v, ok := pkg.Info.Uses[target].(*types.Var); ok {
						facts.vars[v] = true
						facts.allowed[target.Pos()] = true
					}
				}
				return true
			})
		}
	}
	return facts
}
