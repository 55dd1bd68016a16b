// Package flow builds intraprocedural control-flow graphs over go/ast
// function bodies and solves forward dataflow problems on them. It is the
// engine behind the flow-sensitive analyzer, chanclose: where a syntactic
// checker asks "does a close appear anywhere in this function", the
// flow-based one asks "can a send or a second close follow it on some path"
// — which is the question the pipeline's channel discipline depends on.
//
// The graph is statement-granular: each basic block holds the ast.Nodes
// executed in order (statements, plus the condition expressions of if/for
// and the comm statements of select cases), and edges follow Go's control
// flow through if/for/range/switch/select, labeled break/continue, goto,
// fallthrough, and panic. Function literals are NOT inlined — each literal
// gets its own graph — and defer statements appear as ordinary nodes at
// their registration point, leaving their end-of-function semantics to the
// client's transfer function (a deferred release discharges every path
// through the defer; a deferred close must not count as closed before
// return).
//
// Two synthetic blocks terminate the graph: Exit collects every return
// (and the implicit return at the end of the body), PanicExit collects
// panic(...) statements. If the body registers a deferred recover, a
// PanicExit→Exit edge models resumption.
package flow

import (
	"fmt"
	"go/ast"
	"go/token"
	"strings"
)

// Block is one basic block: nodes executed in order, then a transfer of
// control to one of Succs. A block ending in a two-way conditional records
// the branch expression and its true/false successors so edge-sensitive
// analyses can refine facts per branch (the err != nil idiom).
type Block struct {
	// Index is the block's position in Graph.Blocks (stable across runs).
	Index int
	// Kind names what created the block ("entry", "if.then", "for.head",
	// "select.case", ...) — for tests and debugging output.
	Kind string
	// Nodes are the statements and control expressions executed in order.
	Nodes []ast.Node
	// Succs are the possible control transfers out of the block.
	Succs []*Block

	// Cond is the branch expression when the block ends in a two-way
	// conditional (if condition, for condition); nil otherwise. TrueSucc
	// and FalseSucc are then the corresponding successors.
	Cond      ast.Expr
	TrueSucc  *Block
	FalseSucc *Block
}

// Graph is the control-flow graph of one function body.
type Graph struct {
	// Blocks holds every block, Entry first. Unreachable blocks (code after
	// an unconditional return, the body of `for {}` followers) are present
	// but have no path from Entry.
	Blocks []*Block
	// Entry is where execution starts.
	Entry *Block
	// Exit collects every return path, including falling off the end.
	Exit *Block
	// PanicExit collects panic(...) terminations. It has an edge to Exit
	// only when the body registers a deferred recover.
	PanicExit *Block
}

// target is one enclosing breakable/continuable construct.
type target struct {
	label         string
	breakBlock    *Block
	continueBlock *Block // nil for switch/select
}

// pendingGoto is a goto seen before its label.
type pendingGoto struct {
	from  *Block
	label string
}

type builder struct {
	g       *Graph
	cur     *Block
	targets []target
	labels  map[string]*Block
	gotos   []pendingGoto
	fall    *Block // fallthrough target while building a switch clause
	label   string // pending label for the next for/range/switch/select
}

// Build constructs the control-flow graph of one function body.
func Build(body *ast.BlockStmt) *Graph {
	g := &Graph{}
	b := &builder{g: g, labels: make(map[string]*Block)}
	g.Entry = b.newBlock("entry")
	g.Exit = b.newBlock("exit")
	g.PanicExit = b.newBlock("panic")
	b.cur = g.Entry
	b.stmtList(body.List)
	b.edge(b.cur, g.Exit) // implicit return at the end of the body
	for _, pg := range b.gotos {
		if t, ok := b.labels[pg.label]; ok {
			b.edge(pg.from, t)
		}
	}
	if hasDeferredRecover(body) {
		b.edge(g.PanicExit, g.Exit)
	}
	return g
}

func (b *builder) newBlock(kind string) *Block {
	blk := &Block{Index: len(b.g.Blocks), Kind: kind}
	b.g.Blocks = append(b.g.Blocks, blk)
	return blk
}

func (b *builder) edge(from, to *Block) {
	for _, s := range from.Succs {
		if s == to {
			return
		}
	}
	from.Succs = append(from.Succs, to)
}

// add appends a node to the current block.
func (b *builder) add(n ast.Node) {
	b.cur.Nodes = append(b.cur.Nodes, n)
}

// unreachable parks the builder on a fresh predecessor-less block, so code
// after return/break/goto still builds (and shows as unreachable).
func (b *builder) unreachable() {
	b.cur = b.newBlock("unreachable")
}

// takeLabel consumes the pending label set by an enclosing LabeledStmt.
func (b *builder) takeLabel() string {
	l := b.label
	b.label = ""
	return l
}

func (b *builder) stmtList(list []ast.Stmt) {
	for _, s := range list {
		b.stmt(s)
	}
}

func (b *builder) stmt(s ast.Stmt) {
	switch s := s.(type) {
	case *ast.BlockStmt:
		b.stmtList(s.List)

	case *ast.IfStmt:
		if s.Init != nil {
			b.stmt(s.Init)
		}
		b.add(s.Cond)
		cond := b.cur
		cond.Cond = s.Cond
		then := b.newBlock("if.then")
		b.edge(cond, then)
		cond.TrueSucc = then
		b.cur = then
		b.stmt(s.Body)
		thenEnd := b.cur
		done := b.newBlock("if.done")
		if s.Else != nil {
			els := b.newBlock("if.else")
			b.edge(cond, els)
			cond.FalseSucc = els
			b.cur = els
			b.stmt(s.Else)
			b.edge(b.cur, done)
		} else {
			b.edge(cond, done)
			cond.FalseSucc = done
		}
		b.edge(thenEnd, done)
		b.cur = done

	case *ast.ForStmt:
		label := b.takeLabel()
		if s.Init != nil {
			b.stmt(s.Init)
		}
		head := b.newBlock("for.head")
		b.edge(b.cur, head)
		body := b.newBlock("for.body")
		after := b.newBlock("for.done")
		if s.Cond != nil {
			head.Nodes = append(head.Nodes, s.Cond)
			head.Cond = s.Cond
			head.TrueSucc = body
			head.FalseSucc = after
			b.edge(head, body)
			b.edge(head, after)
		} else {
			b.edge(head, body) // `for {}`: after is reachable only via break
		}
		cont := head
		if s.Post != nil {
			cont = b.newBlock("for.post")
			cont.Nodes = append(cont.Nodes, s.Post)
			b.edge(cont, head)
		}
		b.targets = append(b.targets, target{label: label, breakBlock: after, continueBlock: cont})
		b.cur = body
		b.stmt(s.Body)
		b.edge(b.cur, cont)
		b.targets = b.targets[:len(b.targets)-1]
		b.cur = after

	case *ast.RangeStmt:
		label := b.takeLabel()
		head := b.newBlock("range.head")
		b.edge(b.cur, head)
		head.Nodes = append(head.Nodes, s) // per-iteration key/value assignment
		body := b.newBlock("range.body")
		after := b.newBlock("range.done")
		b.edge(head, body)
		b.edge(head, after)
		b.targets = append(b.targets, target{label: label, breakBlock: after, continueBlock: head})
		b.cur = body
		b.stmt(s.Body)
		b.edge(b.cur, head)
		b.targets = b.targets[:len(b.targets)-1]
		b.cur = after

	case *ast.SwitchStmt:
		label := b.takeLabel()
		if s.Init != nil {
			b.stmt(s.Init)
		}
		if s.Tag != nil {
			b.add(s.Tag)
		}
		b.switchClauses(label, s.Body.List)

	case *ast.TypeSwitchStmt:
		label := b.takeLabel()
		if s.Init != nil {
			b.stmt(s.Init)
		}
		b.add(s.Assign)
		b.switchClauses(label, s.Body.List)

	case *ast.SelectStmt:
		label := b.takeLabel()
		head := b.cur
		after := b.newBlock("select.done")
		b.targets = append(b.targets, target{label: label, breakBlock: after})
		for _, cl := range s.Body.List {
			cc := cl.(*ast.CommClause)
			kind := "select.case"
			if cc.Comm == nil {
				kind = "select.default"
			}
			blk := b.newBlock(kind)
			b.edge(head, blk)
			if cc.Comm != nil {
				blk.Nodes = append(blk.Nodes, cc.Comm)
			}
			b.cur = blk
			b.stmtList(cc.Body)
			b.edge(b.cur, after)
		}
		// A select with no cases (or none ready and no default) blocks
		// forever: no head→after edge exists, matching the semantics.
		b.targets = b.targets[:len(b.targets)-1]
		b.cur = after

	case *ast.LabeledStmt:
		lb := b.newBlock("label." + s.Label.Name)
		b.edge(b.cur, lb)
		b.cur = lb
		b.labels[s.Label.Name] = lb
		switch s.Stmt.(type) {
		case *ast.ForStmt, *ast.RangeStmt, *ast.SwitchStmt, *ast.TypeSwitchStmt, *ast.SelectStmt:
			b.label = s.Label.Name
		}
		b.stmt(s.Stmt)

	case *ast.BranchStmt:
		switch s.Tok {
		case token.BREAK:
			if t := b.findTarget(s.Label, false); t != nil {
				b.edge(b.cur, t.breakBlock)
			}
			b.unreachable()
		case token.CONTINUE:
			if t := b.findTarget(s.Label, true); t != nil {
				b.edge(b.cur, t.continueBlock)
			}
			b.unreachable()
		case token.GOTO:
			if lb, ok := b.labels[s.Label.Name]; ok {
				b.edge(b.cur, lb)
			} else {
				b.gotos = append(b.gotos, pendingGoto{from: b.cur, label: s.Label.Name})
			}
			b.unreachable()
		case token.FALLTHROUGH:
			if b.fall != nil {
				b.edge(b.cur, b.fall)
			}
			b.unreachable()
		}

	case *ast.ReturnStmt:
		b.add(s)
		b.edge(b.cur, b.g.Exit)
		b.unreachable()

	default:
		b.add(s)
		if isPanicStmt(s) {
			b.edge(b.cur, b.g.PanicExit)
			b.unreachable()
		}
	}
}

// switchClauses builds the clause blocks of a (type) switch: the head
// branches to every clause (and past the switch when there is no default),
// clause bodies run to the join, and fallthrough jumps into the next
// clause's body.
func (b *builder) switchClauses(label string, clauses []ast.Stmt) {
	head := b.cur
	after := b.newBlock("switch.done")
	bodies := make([]*Block, len(clauses))
	hasDefault := false
	for i, cl := range clauses {
		cc := cl.(*ast.CaseClause)
		kind := "switch.case"
		if cc.List == nil {
			kind = "switch.default"
			hasDefault = true
		}
		bodies[i] = b.newBlock(kind)
		b.edge(head, bodies[i])
		for _, e := range cc.List {
			bodies[i].Nodes = append(bodies[i].Nodes, e)
		}
	}
	if !hasDefault {
		b.edge(head, after)
	}
	b.targets = append(b.targets, target{label: label, breakBlock: after})
	outerFall := b.fall
	for i, cl := range clauses {
		cc := cl.(*ast.CaseClause)
		b.fall = nil
		if i+1 < len(bodies) {
			b.fall = bodies[i+1]
		}
		b.cur = bodies[i]
		b.stmtList(cc.Body)
		b.edge(b.cur, after)
	}
	b.fall = outerFall
	b.targets = b.targets[:len(b.targets)-1]
	b.cur = after
}

// findTarget resolves a break/continue to its enclosing construct.
func (b *builder) findTarget(label *ast.Ident, needContinue bool) *target {
	for i := len(b.targets) - 1; i >= 0; i-- {
		t := &b.targets[i]
		if needContinue && t.continueBlock == nil {
			continue
		}
		if label == nil || t.label == label.Name {
			return t
		}
	}
	return nil
}

// isPanicStmt reports whether a statement is a direct call to the panic
// builtin. Purely syntactic: a shadowed panic identifier would fool it,
// which no rowsort package does.
func isPanicStmt(s ast.Stmt) bool {
	es, ok := s.(*ast.ExprStmt)
	if !ok {
		return false
	}
	call, ok := es.X.(*ast.CallExpr)
	if !ok {
		return false
	}
	id, ok := call.Fun.(*ast.Ident)
	return ok && id.Name == "panic"
}

// hasDeferredRecover reports whether the body registers a defer that calls
// recover, in which case a panic can resume at the function's exit.
func hasDeferredRecover(body *ast.BlockStmt) bool {
	found := false
	ast.Inspect(body, func(n ast.Node) bool {
		d, ok := n.(*ast.DeferStmt)
		if !ok {
			return !found
		}
		ast.Inspect(d.Call, func(m ast.Node) bool {
			if id, ok := m.(*ast.Ident); ok && id.Name == "recover" {
				found = true
			}
			return !found
		})
		return !found
	})
	return found
}

// Reachable returns the set of blocks reachable from Entry.
func (g *Graph) Reachable() map[*Block]bool {
	seen := make(map[*Block]bool)
	stack := []*Block{g.Entry}
	for len(stack) > 0 {
		blk := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		if seen[blk] {
			continue
		}
		seen[blk] = true
		stack = append(stack, blk.Succs...)
	}
	return seen
}

// String renders the graph one block per line ("2 if.then -> 4 5"), for
// tests and debugging.
func (g *Graph) String() string {
	var sb strings.Builder
	for _, blk := range g.Blocks {
		fmt.Fprintf(&sb, "%d %s ->", blk.Index, blk.Kind)
		for _, s := range blk.Succs {
			fmt.Fprintf(&sb, " %d", s.Index)
		}
		sb.WriteByte('\n')
	}
	return sb.String()
}
