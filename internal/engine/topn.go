package engine

import (
	"container/heap"
	"encoding/binary"
	"fmt"

	"rowsort/internal/core"
	"rowsort/internal/normkey"
	"rowsort/internal/obs"
	"rowsort/internal/row"
	"rowsort/internal/vector"
)

// TopNHeap is the specialized operator real systems substitute for
// ORDER BY ... LIMIT n (the optimization the paper's benchmark query has to
// outmaneuver with its count-over-subquery trick), and what TopNOp runs.
// Instead of sorting all input it keeps only the current n best rows in a
// bounded max-heap of normalized keys, so memory stays O(n) and each input row
// costs at most one key comparison plus a possible heap update. It counts in
// a counter block of its own, as a sorter does, and reports it as SortStats.
type TopNHeap struct {
	schema   vector.Schema
	enc      *normkey.Encoder
	layout   *row.Layout
	rowWidth int // a key row: the key, then its row's index in payload
	limit    int

	h       *keyHeap
	payload *row.RowSet

	rec *obs.Recorder
	ow  *obs.Worker // the operator's trace lane (nil without telemetry)
	ctr *obs.Block
	run *obs.RunHandle
}

// NewTopNHeap returns a Top-N operator returning the first limit rows of the
// ORDER BY described by keys. opt's Telemetry watches it; it never spills and
// charges no memory budget.
func NewTopNHeap(schema vector.Schema, keys []core.SortColumn, limit int, opt core.Options) (*TopNHeap, error) {
	if limit < 0 {
		return nil, fmt.Errorf("engine: negative LIMIT %d", limit)
	}
	nkeys, err := core.NormKeys(schema, keys)
	if err != nil {
		return nil, err
	}
	enc, err := normkey.NewEncoder(nkeys)
	if err != nil {
		return nil, err
	}
	layout := row.NewLayout(schema.Types())
	t := &TopNHeap{schema: schema, enc: enc, layout: layout, rowWidth: enc.Width() + 4,
		limit: limit, payload: row.NewRowSet(layout),
		rec: opt.Telemetry, ow: opt.Telemetry.Worker("topn"), ctr: obs.NewBlock(nil)}
	t.h = &keyHeap{cmp: enc.Comparator(func(keyRow []byte, _, k int) []byte {
		return t.payload.StringBytes(t.index(keyRow), nkeys[k].Column)
	})}
	t.run = t.rec.Register(obs.RunOptions{Fingerprint: opt.Fingerprint(), Block: t.ctr, TopN: true, Limit: int64(limit)})
	return t, nil
}

// index returns the payload row of a key row.
func (t *TopNHeap) index(keyRow []byte) int {
	return int(binary.LittleEndian.Uint32(keyRow[t.enc.Width():]))
}

// Stats snapshots the operator's telemetry: rows ingested and gathered,
// ingest spans and stage durations (merge and spill counters stay zero —
// Top-N never runs those phases).
func (t *TopNHeap) Stats() core.SortStats { return core.BlockStats(t.ctr, t.rec) }

// Close ends the operator's run, so that a registry watching it can let it
// go. Result calls it; an operator abandoned before Result must. Idempotent.
func (t *TopNHeap) Close() { t.run.Done() }

// keyHeap is a max-heap of key rows: the root is the current worst of the
// best n, so a new row only enters if it beats the root.
type keyHeap struct {
	rows [][]byte
	cmp  func(a []byte, _ int, b []byte, _ int) int // every row is the payload's: no source
}

func (h *keyHeap) Len() int           { return len(h.rows) }
func (h *keyHeap) Less(i, j int) bool { return h.cmp(h.rows[i], 0, h.rows[j], 0) > 0 }
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
func (t *TopNHeap) Append(c *vector.Chunk) error {
	if len(c.Vectors) != len(t.schema) {
		return fmt.Errorf("engine: chunk has %d columns, schema has %d", len(c.Vectors), len(t.schema))
	}
	n := c.Len()
	if n == 0 {
		return nil
	}
	t.ctr.AdvanceTo(obs.StageRunGen)
	sp := t.ow.Begin(obs.PhaseIngest)
	defer sp.End()
	// Every row is ingested, even one that a LIMIT 0 keeps none of.
	t.ctr.Add(obs.RowsIngested, int64(n))
	if t.limit == 0 {
		return nil
	}

	base := t.payload.Len()
	if err := t.payload.AppendChunk(c.Vectors); err != nil {
		return err
	}
	keys := t.enc.Keys()
	keyCols := make([]*vector.Vector, len(keys))
	for i, k := range keys {
		keyCols[i] = c.Vectors[k.Column]
	}
	rw := t.rowWidth
	buf := make([]byte, n*rw)
	if err := t.enc.Encode(keyCols, buf, rw, 0); err != nil {
		return err
	}
	for r := 0; r < n; r++ {
		keyRow := buf[r*rw : (r+1)*rw]
		binary.LittleEndian.PutUint32(keyRow[t.enc.Width():], uint32(base+r))
		if t.h.Len() < t.limit {
			heap.Push(t.h, append([]byte(nil), keyRow...))
			continue
		}
		if t.h.cmp(keyRow, 0, t.h.rows[0], 0) < 0 {
			// Beats the current worst: replace the root.
			copy(t.h.rows[0], keyRow)
			heap.Fix(t.h, 0)
		}
	}
	return nil
}

// Result returns the top-N rows in sorted order as a columnar table. The
// operator is exhausted afterwards and its run is over.
func (t *TopNHeap) Result() (*vector.Table, error) {
	t.ctr.AdvanceTo(obs.StageGather)
	t.ctr.StopClock(obs.DurRunGen)
	defer func() {
		t.ctr.StopClock(obs.DurGather)
		t.ctr.StopClock(obs.DurTotal)
		t.Close()
	}()
	sp := t.ow.Begin(obs.PhaseGather)
	defer sp.End()
	// Drain the heap: pops come worst-first, so fill backwards.
	ordered := make([][]byte, t.h.Len())
	for i := len(ordered) - 1; i >= 0; i-- {
		ordered[i] = heap.Pop(t.h).([]byte)
	}
	out := vector.NewTable(t.schema)
	idxs := make([]uint32, vector.DefaultVectorSize)
	g := row.NewGather(t.layout)
	for start := 0; start < len(ordered); start += vector.DefaultVectorSize {
		count := min(vector.DefaultVectorSize, len(ordered)-start)
		refs := idxs[:count]
		for r := range refs {
			refs[r] = uint32(t.index(ordered[start+r]))
		}
		g.Index(t.payload, refs)
		t.ctr.Add(obs.RowsGathered, int64(count))
		t.ctr.Add(obs.GatherBytes, int64(count)*int64(t.layout.Width()))
		if err := out.AppendChunk(&vector.Chunk{Vectors: g.Vectors()}); err != nil {
			return nil, err
		}
	}
	return out, nil
}
