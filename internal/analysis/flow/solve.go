package flow

// Lattice describes one forward dataflow problem over a Graph. The fact
// type F is anything the client chooses (bit sets, maps from variables to
// states); must- versus may-analysis is expressed through Join (intersection
// versus union of what each predecessor established).
//
// Transfer and Join must treat their inputs as read-only: a transfer that
// wants to change a map fact copies it first.
type Lattice[F any] struct {
	// Join combines the facts arriving over two edges into one.
	Join func(a, b F) F
	// Equal reports whether two facts are the same (fixpoint detection).
	Equal func(a, b F) bool
	// Transfer pushes a fact through one block's nodes.
	Transfer func(b *Block, in F) F
}

// Solve runs the forward dataflow problem to fixpoint and returns the fact
// at the entry of every reachable block. The fact at g.Exit's entry is the
// join over every return path; unreachable blocks are absent from the map.
//
// Termination requires the usual conditions: a finite-height lattice and
// monotone Transfer/Join. Every analyzer in this module uses small
// per-variable state machines, which satisfy both.
func Solve[F any](g *Graph, init F, l Lattice[F]) map[*Block]F {
	in := map[*Block]F{g.Entry: init}
	work := []*Block{g.Entry}
	queued := map[*Block]bool{g.Entry: true}
	for len(work) > 0 {
		blk := work[0]
		work = work[1:]
		queued[blk] = false
		out := l.Transfer(blk, in[blk])
		for _, succ := range blk.Succs {
			cur, seen := in[succ]
			next := out
			if seen {
				next = l.Join(cur, out)
			}
			if !seen || !l.Equal(cur, next) {
				in[succ] = next
				if !queued[succ] {
					work = append(work, succ)
					queued[succ] = true
				}
			}
		}
	}
	return in
}
