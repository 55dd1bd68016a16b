package core

import (
	"container/heap"
	"fmt"

	"rowsort/internal/obs"
	"rowsort/internal/row"
	"rowsort/internal/vector"
)

// TopN is the specialized operator real systems substitute for
// ORDER BY ... LIMIT n (the optimization the paper's benchmark query has to
// outmaneuver with its count-over-subquery trick). Instead of sorting all
// input it keeps only the current n best rows in a bounded max-heap of
// normalized keys, so memory stays O(n) and each input row costs at most
// one key comparison plus a possible heap update.
type TopN struct {
	s     *Sorter
	ow    *obs.Worker // the operator's trace lane (nil without telemetry)
	limit int

	h       *keyHeap
	payload *row.RowSet
}

// NewTopN returns a Top-N operator returning the first limit rows of the
// ORDER BY described by keys.
func NewTopN(schema vector.Schema, keys []SortColumn, limit int, opt Options) (*TopN, error) {
	if limit < 0 {
		return nil, fmt.Errorf("core: negative LIMIT %d", limit)
	}
	s, err := NewSorter(schema, keys, opt)
	if err != nil {
		return nil, err
	}
	t := &TopN{s: s, ow: s.rec.Worker("topn"), limit: limit, payload: row.NewRowSet(s.layout)}
	t.h = &keyHeap{cmp: s.comparator(func(_, idx uint32) (*row.RowSet, int) { return t.payload, int(idx) })}
	return t, nil
}

// Stats snapshots the operator's telemetry: rows ingested and gathered,
// ingest spans and stage durations (merge and spill counters stay zero —
// Top-N never runs those phases).
func (t *TopN) Stats() SortStats { return t.s.Stats() }

// Close ends the operator's run, so that a registry watching it can let it
// go. Result calls it; an operator abandoned before Result must. Idempotent.
func (t *TopN) Close() error { return t.s.Close() }

// keyHeap is a max-heap of key rows: the root is the current worst of the
// best n, so a new row only enters if it beats the root.
type keyHeap struct {
	rows [][]byte
	cmp  func(a, b []byte) int
}

func (h *keyHeap) Len() int           { return len(h.rows) }
func (h *keyHeap) Less(i, j int) bool { return h.cmp(h.rows[i], h.rows[j]) > 0 }
func (h *keyHeap) Swap(i, j int)      { h.rows[i], h.rows[j] = h.rows[j], h.rows[i] }
func (h *keyHeap) Push(x any)         { h.rows = append(h.rows, x.([]byte)) }
func (h *keyHeap) Pop() any {
	last := h.rows[len(h.rows)-1]
	h.rows = h.rows[:len(h.rows)-1]
	return last
}

// Append feeds one chunk into the operator.
//
// Payload note: rejected rows' payload is not reclaimed until Result; for
// limit << input this wastes space proportional to the input, like a
// naive top-N. Real systems compact periodically; Result here gathers only
// the surviving rows, so the output is exact either way.
func (t *TopN) Append(c *vector.Chunk) error {
	s := t.s
	if len(c.Vectors) != len(s.schema) {
		return fmt.Errorf("core: chunk has %d columns, schema has %d", len(c.Vectors), len(s.schema))
	}
	n := c.Len()
	if n == 0 || t.limit == 0 {
		return nil
	}
	s.ctr.AdvanceTo(obs.StageRunGen)
	sp := t.ow.Begin(obs.PhaseIngest)
	defer sp.End()
	s.ctr.Add(obs.RowsIngested, int64(n))

	base := t.payload.Len()
	if err := t.payload.AppendChunk(c.Vectors); err != nil {
		return err
	}
	keyCols := make([]*vector.Vector, len(s.keys))
	for i, kc := range s.keys {
		keyCols[i] = c.Vectors[kc.Column]
	}
	buf := make([]byte, n*s.rowWidth)
	if err := s.enc.Encode(keyCols, buf, s.rowWidth, 0); err != nil {
		return err
	}
	for r := 0; r < n; r++ {
		keyRow := buf[r*s.rowWidth : (r+1)*s.rowWidth]
		s.putRef(keyRow, 0, uint32(base+r))
		if t.h.Len() < t.limit {
			heap.Push(t.h, append([]byte(nil), keyRow...))
			continue
		}
		if t.h.cmp(keyRow, t.h.rows[0]) < 0 {
			// Beats the current worst: replace the root.
			copy(t.h.rows[0], keyRow)
			heap.Fix(t.h, 0)
		}
	}
	return nil
}

// Result returns the top-N rows in sorted order as a columnar table. The
// operator is exhausted afterwards and its run is over.
func (t *TopN) Result() (out *vector.Table, err error) {
	s := t.s
	s.ctr.AdvanceTo(obs.StageGather)
	s.ctr.StopClock(obs.DurRunGen)
	defer func() {
		s.ctr.StopClock(obs.DurGather)
		s.ctr.StopClock(obs.DurTotal)
		if cerr := t.Close(); err == nil {
			err = cerr
		}
	}()
	sp := t.ow.Begin(obs.PhaseGather)
	defer sp.End()
	// Drain the heap: pops come worst-first, so fill backwards.
	ordered := make([][]byte, t.h.Len())
	for i := len(ordered) - 1; i >= 0; i-- {
		ordered[i] = heap.Pop(t.h).([]byte)
	}
	out = vector.NewTable(s.schema)
	idxs := make([]uint32, vector.DefaultVectorSize)
	for start := 0; start < len(ordered); start += vector.DefaultVectorSize {
		count := min(vector.DefaultVectorSize, len(ordered)-start)
		refs := idxs[:count]
		for r := 0; r < count; r++ {
			_, refs[r] = s.getRef(ordered[start+r])
		}
		chunk := &vector.Chunk{Vectors: make([]*vector.Vector, len(s.schema))}
		for c := range s.schema {
			v := vector.NewDense(s.schema[c].Type, count)
			t.payload.GatherColumn(c, refs, v)
			chunk.Vectors[c] = v
		}
		s.countGathered(count)
		if err := out.AppendChunk(chunk); err != nil {
			return nil, err
		}
	}
	return out, nil
}
