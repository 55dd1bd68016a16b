package engine

import (
	"rowsort/internal/core"
	"rowsort/internal/vector"
)

// SortOp is the sort operator as a plan node: a pipeline breaker that
// consumes its entire child on Open (materializing through the core
// sorter's row formats) and then streams the sorted result. This is exactly
// Figure 11 wrapped in the iterator interface.
type SortOp struct {
	child Operator
	keys  []core.SortColumn
	opt   core.Options

	sorter *core.Sorter
	rows   *core.RowIter
}

// Sort returns a sort plan node.
func Sort(child Operator, keys []core.SortColumn, opt core.Options) *SortOp {
	return &SortOp{child: child, keys: keys, opt: opt}
}

// Schema implements Operator.
func (s *SortOp) Schema() vector.Schema { return s.child.Schema() }

// Open implements Operator: it drains the child into the sorter, runs the
// parallel merge, and readies the sorted scan as a chunked row iterator
// (core.Sorter.Rows). The child is pulled from this goroutine (iterators
// are single-threaded), but ingestion fans out through a ParallelSink, so
// key normalization, run sorting and spilling overlap the child's Next
// calls across Options.Threads workers. Chunks are gathered on demand with
// the typed vectorized kernels, so a consumer that stops early — LIMIT
// without the TopN rewrite, a probe that finds its match — never pays for
// materializing the tail; under a memory budget the final external merge
// itself streams through Next.
func (s *SortOp) Open() error {
	if err := s.child.Open(); err != nil {
		return err
	}
	sorter, err := core.NewSorter(s.child.Schema(), s.keys, s.opt)
	if err != nil {
		return err
	}
	s.sorter = sorter
	sink := sorter.NewParallelSink()
	err = func() error {
		for {
			c, err := s.child.Next()
			if err != nil {
				return err
			}
			if c == nil {
				return nil
			}
			if err := sink.Append(c); err != nil {
				return err
			}
		}
	}()
	// Close always runs — even after an error — so the ingest workers join
	// and their reservations release before this returns.
	if cerr := sink.Close(); err == nil {
		err = cerr
	}
	if err != nil {
		return err
	}
	if err := sorter.Finalize(); err != nil {
		return err
	}
	s.rows, err = sorter.Rows()
	return err
}

// Next implements Operator.
func (s *SortOp) Next() (*vector.Chunk, error) {
	if s.rows == nil {
		return nil, nil
	}
	return s.rows.Next()
}

// Close implements Operator. It releases the sorter's spill files and
// budget reservations even when the iterator was not drained.
func (s *SortOp) Close() error {
	var err error
	if s.rows != nil {
		err = s.rows.Close()
		s.rows = nil
	}
	if s.sorter != nil {
		if cerr := s.sorter.Close(); err == nil {
			err = cerr
		}
		s.sorter = nil
	}
	if cerr := s.child.Close(); err == nil {
		err = cerr
	}
	return err
}

// TopNOp is the specialized operator an optimizer substitutes for a Sort
// directly under a Limit (Section VII-A): it keeps only the best
// limit+offset rows in a bounded heap instead of sorting everything.
type TopNOp struct {
	child         Operator
	keys          []core.SortColumn
	limit, offset int
	opt           core.Options

	result *vector.Table
	pos    int
	row    int
}

// TopN returns a top-N plan node keeping limit rows after offset.
func TopN(child Operator, keys []core.SortColumn, limit, offset int, opt core.Options) *TopNOp {
	return &TopNOp{child: child, keys: keys, limit: limit, offset: offset, opt: opt}
}

// Schema implements Operator.
func (t *TopNOp) Schema() vector.Schema { return t.child.Schema() }

// Open implements Operator.
func (t *TopNOp) Open() error {
	if err := t.child.Open(); err != nil {
		return err
	}
	top, err := NewTopNHeap(t.child.Schema(), t.keys, t.limit+t.offset, t.opt)
	if err != nil {
		return err
	}
	// Result ends the operator's run; an error before it must.
	defer top.Close()
	for {
		c, err := t.child.Next()
		if err != nil {
			return err
		}
		if c == nil {
			break
		}
		if err := top.Append(c); err != nil {
			return err
		}
	}
	t.result, err = top.Result()
	if err != nil {
		return err
	}
	t.pos, t.row = 0, 0
	// Skip the offset rows.
	skip := t.offset
	for skip > 0 && t.pos < len(t.result.Chunks) {
		c := t.result.Chunks[t.pos]
		take := min(skip, c.Len()-t.row)
		t.row += take
		skip -= take
		if t.row == c.Len() {
			t.pos++
			t.row = 0
		}
	}
	return nil
}

// Next implements Operator.
func (t *TopNOp) Next() (*vector.Chunk, error) {
	for t.result != nil && t.pos < len(t.result.Chunks) {
		c := t.result.Chunks[t.pos]
		if t.row == 0 {
			t.pos++
			return c, nil
		}
		// Re-pack a partial chunk after the offset skip.
		out := vector.NewChunk(t.Schema(), c.Len()-t.row)
		for r := t.row; r < c.Len(); r++ {
			for i, v := range c.Vectors {
				vector.AppendValue(out.Vectors[i], v, r)
			}
		}
		t.pos++
		t.row = 0
		if out.Len() > 0 {
			return out, nil
		}
	}
	return nil, nil
}

// Close implements Operator.
func (t *TopNOp) Close() error {
	t.result = nil
	return t.child.Close()
}

// TopNFusionLimit bounds the Sort+Limit fusion: keeping more rows than
// this in a heap would be slower than sorting, so (like real optimizers)
// the rewrite only fires for genuinely small limits.
const TopNFusionLimit = 1 << 17

// Optimize applies the plan rewrite real systems perform and the paper's
// benchmark query is built to defeat: a Limit whose child is a Sort becomes
// a TopN when the kept row count is small. Anything else (for example Count
// over Sort — the count-over-subquery trick, or an effectively unbounded
// OFFSET-only limit) is left untouched, forcing the full sort.
func Optimize(op Operator) Operator {
	switch o := op.(type) {
	case *LimitOp:
		child := Optimize(o.child)
		if s, ok := child.(*SortOp); ok && o.limit+o.offset <= TopNFusionLimit {
			return TopN(Optimize(s.child), s.keys, o.limit, o.offset, s.opt)
		}
		return Limit(child, o.limit, o.offset)
	case *SortOp:
		return Sort(Optimize(o.child), o.keys, o.opt)
	case *ProjectOp:
		p, err := Project(Optimize(o.child), o.cols)
		if err != nil { // cols were already validated
			panic(err)
		}
		return p
	case *FilterOp:
		return Filter(Optimize(o.child), o.pred)
	case *CountOp:
		return Count(Optimize(o.child))
	default:
		return op
	}
}
