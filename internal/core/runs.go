package core

import (
	"bytes"
	"encoding/binary"

	"rowsort/internal/obs"
	"rowsort/internal/radix"
	"rowsort/internal/row"
	"rowsort/internal/spill"
)

// Run generation's second half: a sink's cut rows become a sorted run
// (flush), sorted by rule (planRun, sortRun), and the run is placed in memory
// or on disk (placeRun). Spilling demonstrates the paper's future-work
// direction: because a run is just flat key rows plus a row-format payload, it
// can be offloaded to secondary storage in one unified format with no
// conversion. The format and the files are internal/spill's; this file is
// what the sorter decides — which runs go to disk and when, in blocks of how
// many rows — and the pools that recycle a run's buffers.

// sortedRun is one thread-local sorted run: sorted key rows plus the
// payload physically reordered to match (so scans read it sequentially).
type sortedRun struct {
	id       uint32
	keys     []byte
	payload  *row.RowSet
	rows     int  // row count, valid even after the buffers move to disk
	tieBreak bool // some string may exceed its prefix (or embed NUL)
	spilling bool // claimed by a spiller (guarded by Sorter.mu)
	spill    *spill.File
}

// runBytes is a resident run's accounted footprint: key-buffer plus payload
// capacity (capacities, not lengths — that is what the allocator actually
// holds and what the pools will recycle).
func runBytes(r *sortedRun) int64 {
	return int64(cap(r.keys)) + r.payload.CapBytes()
}

// flush turns the pending rows into a run: cut them loose, decide its sort,
// execute it, publish the sorted run and hand it to the spill policy.
func (k *Sink) flush() error {
	s := k.s
	keys, payload, n, tb := k.cut()
	sp := k.ow.Begin(obs.PhaseRunSort)
	dec := k.planRun(keys, n, tb)
	// Until the run is published its payload references are row indexes into
	// the cut set.
	k.sortRun(keys, dec.Algo, tb, func(_, idx uint32) (*row.RowSet, int) { return payload, int(idx) })

	// Register the run id first (so merge order is stable), then physically
	// reorder the payload to the sorted order and point the key refs at the
	// new positions. The buffers are published under s.mu only once they
	// are final: concurrent pressure spillers scan s.runs and must never
	// observe a half-built run.
	s.mu.Lock()
	runID := uint32(len(s.runs))
	run := &sortedRun{id: runID, tieBreak: tb, rows: n}
	s.runs = append(s.runs, run)
	dec.Run = int(runID)
	s.ctr.Decide(dec) // under mu: the log is in run-id order
	s.mu.Unlock()

	if cap(k.idxs) < n {
		k.idxs = make([]uint32, max(n, cap(keys)/s.rowWidth))
	}
	idxs := k.idxs[:n]
	ref := uint64(runID)
	for i, o := 0, s.keyWidth; i < n; i, o = i+1, o+s.rowWidth {
		at := keys[o : o+refBytes : o+refBytes]
		idxs[i] = uint32(binary.LittleEndian.Uint64(at) >> 32)
		binary.LittleEndian.PutUint64(at, ref)
		ref += 1 << 32
	}
	sorted := s.getRowSet()
	sorted.Reserve(n)
	sorted.ReserveHeap(payload.HeapLen())
	sorted.AppendPermuted(payload, idxs)
	payload.Reset() // the sink's own set: the next run fills it
	k.account()
	withinBudget := s.runRes.Grow(int64(cap(keys)) + sorted.CapBytes())
	s.mu.Lock()
	run.keys = keys
	run.payload = sorted
	s.mu.Unlock()
	sp.End()

	s.ctr.Add(obs.RunsGenerated, 1)
	s.ctr.Add(obs.RowsSorted, int64(n))
	s.ctr.Add(obs.NormKeyBytes, int64(n)*int64(s.keyWidth))
	return s.placeRun(run, withinBudget, k.ow)
}

// cut detaches the pending rows from the sink, which goes on with an empty
// key buffer, and returns them with whether their keys may tie on bytes.
func (k *Sink) cut() (keys []byte, payload *row.RowSet, n int, tieBreak bool) {
	s := k.s
	keys, payload, n, tieBreak = k.keys, k.payload, k.n, k.tieBreak
	k.keys, k.n, k.tieBreak = s.getKeyBuf(), 0, false
	k.runs++
	// The cut key buffer leaves the sink's reservation here and enters the
	// resident-run one once sorted, together with the reordered payload
	// copy. In between — the sort plus the reorder — neither the cut keys
	// nor the copy being built is charged anywhere: that is the per-sink
	// accounting slack documented in DESIGN.md. The pending payload set
	// (which holds the cut rows until they are reordered), the radix scratch
	// and the permutation stay in the sink's reservation throughout.
	k.account()
	return keys, payload, n, tieBreak
}

// planRun decides the cut run's sort by exact rules, sampling nothing, and
// returns the decision to log. A run whose keys cannot tie on their bytes and
// that arrived in order is left as it is: radix.Sort is stable, so that is
// byte-identical to sorting it. Every other run is radix-sorted, and one whose
// keys may tie (tieBreak) then gets the tie pass (sortTies), which Why names.
func (k *Sink) planRun(keys []byte, n int, tieBreak bool) StrategyDecision {
	s := k.s
	d := StrategyDecision{Rows: n, Algo: "msd-radix"}
	if tieBreak {
		d.Why = "tie-break"
	} else if _, cmp := s.mergeOrder(false, nil); inOrder(keys, s.rowWidth, cmp) {
		return StrategyDecision{Rows: n, Algo: "none", Why: "presorted"}
	}
	if radix.UseLSD(s.keyWidth) {
		d.Algo = "lsd-radix"
	}
	return d
}

// inOrder reports whether rows of width rw are non-decreasing under cmp. It
// stops at the first descent, so on unsorted input it reads a few rows.
func inOrder(rows []byte, rw int, cmp func(a, b []byte) int) bool {
	for o := rw; o < len(rows); o += rw {
		if cmp(rows[o-rw:o], rows[o:o+rw]) > 0 {
			return false
		}
	}
	return true
}

// sortRun sorts the cut run in place with the kernel algo names, the one place
// each run-sort kernel is started from. lookup resolves a key row's payload
// reference; only the tie pass of a run whose keys may tie (tieBreak) ever
// compares through it — any other run is ordered by its bytes alone.
func (k *Sink) sortRun(keys []byte, algo string, tieBreak bool, lookup func(runID, idx uint32) (*row.RowSet, int)) {
	s := k.s
	if algo == "none" {
		return
	}
	// Which radix sort runs is radix's own width rule, the one planRun names
	// the decision by.
	radix.SortOpts(keys, s.rowWidth, s.keyWidth, radix.Options{Scratch: k.radixScratch(keys)})
	if tieBreak {
		k.sortTies(keys, lookup)
	}
}

// sortTies is the tie pass over a radix-sorted run: it sorts each group of
// rows byte-equal on the decisive prefix (normkey's DecisiveWidth) under the
// tie comparator, unless it is in order already, as a group of equal values
// comes out of radix. Radix left rows equal under the comparator, whose key
// bytes are equal, in input order, and the group sort is stable, so the run
// is the stable order.
func (k *Sink) sortTies(keys []byte, lookup func(runID, idx uint32) (*row.RowSet, int)) {
	s := k.s
	rw, dw := s.rowWidth, s.enc.DecisiveWidth()
	tie, _ := s.mergeOrder(true, lookup)
	buf := k.radixScratch(keys)
	for lo := 0; lo < len(keys); {
		hi := lo + rw
		for hi < len(keys) && bytes.Equal(keys[lo:lo+dw], keys[hi:hi+dw]) {
			hi += rw
		}
		if g := keys[lo:hi]; !inOrder(g, rw, tie) {
			mergeSortRows(g, buf[:len(g)], rw, tie)
		}
		lo = hi
	}
}

// mergeSortRows sorts rows of width rw stably under cmp, moving the rows
// themselves: top-down, by insertion below 16 rows, skipping a merge whose
// halves are in order. buf is scratch as long as rows.
func mergeSortRows(rows, buf []byte, rw int, cmp func(a, b []byte) int) {
	if len(rows) < 16*rw {
		tmp := buf[:rw]
		for i := rw; i < len(rows); i += rw {
			copy(tmp, rows[i:i+rw])
			j := i
			for j > 0 && cmp(rows[j-rw:j], tmp) > 0 {
				j -= rw
			}
			copy(rows[j+rw:i+rw], rows[j:i])
			copy(rows[j:j+rw], tmp)
		}
		return
	}
	mid := len(rows) / rw / 2 * rw
	mergeSortRows(rows[:mid], buf[:mid], rw, cmp)
	mergeSortRows(rows[mid:], buf[mid:], rw, cmp)
	if cmp(rows[mid-rw:mid], rows[mid:mid+rw]) <= 0 {
		return
	}
	// Merge the left half, moved to buf, with the right one in place: the
	// output never overtakes the right half's next row. A tie takes the left
	// row, which came first.
	left := buf[:mid]
	copy(left, rows[:mid])
	l, r, o := 0, mid, 0
	for ; l < mid && r < len(rows); o += rw {
		if cmp(rows[r:r+rw], left[l:l+rw]) < 0 {
			copy(rows[o:o+rw], rows[r:r+rw])
			r += rw
		} else {
			copy(rows[o:o+rw], left[l:l+rw])
			l += rw
		}
	}
	copy(rows[o:], left[l:])
}

// radixScratch returns the sink's radix scatter buffer, sized for keys. It
// is allocated at the key buffer's capacity, so that one allocation serves
// every run the sink cuts.
func (k *Sink) radixScratch(keys []byte) []byte {
	if cap(k.scratch) < len(keys) {
		k.scratch = k.s.getKeyBuf()
		if cap(k.scratch) < len(keys) {
			k.s.putKeyBuf(k.scratch)
			k.scratch = make([]byte, cap(keys))
		}
	}
	return k.scratch[:len(keys)]
}

// placeRun is the spill policy for a run just published: under a budget
// runs go to disk, largest first, only while the broker is over it; without
// one, a sort given a SpillDir writes every run as it is cut (the original
// eager policy).
func (s *Sorter) placeRun(run *sortedRun, withinBudget bool, ow *obs.Worker) error {
	switch {
	case s.opt.limited():
		if !withinBudget || s.broker.OverBudget() {
			return s.spillUnderPressure(ow)
		}
	case s.opt.SpillDir != "":
		return s.spillRun(run, ow)
	}
	return nil
}

// spillFormat is the shape of this sort's rows, as its spill files hold them.
func (s *Sorter) spillFormat() spill.Format {
	return spill.Format{RowWidth: s.rowWidth, Layout: s.layout}
}

// spillBlockRows is the rows of every block of every spill file of this
// sort: budgetSpillBlockRows under a budget, whose fan-in plan reserves
// blocks of that size (reduceFanIn), else DefaultSpillBlockRows.
func (s *Sorter) spillBlockRows() int {
	switch {
	case s.pinBlockRows > 0:
		return s.pinBlockRows
	case s.opt.limited():
		return budgetSpillBlockRows
	}
	return DefaultSpillBlockRows
}

// spillRun spills one specific run if it is still resident, claiming it
// against concurrent pressure spillers so a run is written at most once.
func (s *Sorter) spillRun(r *sortedRun, ow *obs.Worker) error {
	s.mu.Lock()
	if r.spilling || r.spill != nil || r.keys == nil {
		s.mu.Unlock()
		return nil
	}
	r.spilling = true
	s.mu.Unlock()
	err := r.spillTo(s, ow)
	// The lock also publishes spillTo's field writes to the next claimer.
	s.mu.Lock()
	r.spilling = false
	s.mu.Unlock()
	return err
}

// spillUnderPressure sheds resident runs to disk, largest first, until the
// broker is back under budget (or nothing spillable is left). Multiple
// sinks may shed concurrently; each claims runs under s.mu.
func (s *Sorter) spillUnderPressure(ow *obs.Worker) error {
	sp := ow.Begin(obs.PhasePressureSpill)
	defer sp.End()
	s.dropPools()
	for s.broker.OverBudget() {
		run := s.claimSpillableRun()
		if run == nil {
			return nil
		}
		s.ctr.Add(obs.PressureSpills, 1)
		err := run.spillTo(s, ow)
		s.mu.Lock()
		run.spilling = false
		s.mu.Unlock()
		if err != nil {
			return err
		}
	}
	return nil
}

// claimSpillableRun picks the largest resident run and marks it claimed;
// nil when every run is on disk, claimed, or the sort has moved on to its
// merge (which owns the remaining residents).
func (s *Sorter) claimSpillableRun() *sortedRun {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.finalized {
		return nil
	}
	best := s.largestResident()
	if best != nil {
		best.spilling = true
	}
	return best
}

// largestResident returns the largest run that is in memory and unclaimed,
// or nil. The caller holds s.mu.
func (s *Sorter) largestResident() *sortedRun {
	var best *sortedRun
	var bestBytes int64
	for _, r := range s.runs {
		if r.spilling || r.spill != nil || r.keys == nil {
			continue
		}
		if b := runBytes(r); best == nil || b > bestBytes {
			best, bestBytes = r, b
		}
	}
	return best
}

// spillTo writes the run to its spill file and releases its in-memory
// buffers. On any error the partial file is removed; nothing is leaked. ow is
// the calling worker's trace lane. Callers on concurrent paths must hold the
// run's claim (see spillRun).
func (r *sortedRun) spillTo(s *Sorter, ow *obs.Worker) error {
	sp := ow.Begin(obs.PhaseSpillWrite)
	defer sp.End()
	staging := s.getRowSet()
	defer s.putRowSet(staging)
	w, err := s.spills.NewWriter(r.id, s.spillFormat(), s.spillBlockRows(), r.rows, staging)
	if err != nil {
		return err
	}
	rw, payload := s.rowWidth, []*row.RowSet{r.payload}
	for i := 0; i < r.rows; {
		n := min(w.Room(), r.rows-i)
		w.AddRows(r.keys[i*rw:(i+n)*rw], 0, uint32(i))
		if _, err := w.Flush(payload); err != nil {
			return err
		}
		i += n
	}
	if r.spill, err = w.Finish(); err != nil {
		return err
	}
	// The in-memory buffers are dead once the run is on disk: give their
	// bytes back to the budget and recycle them for the next pending run.
	s.releaseRun(r)
	return nil
}

// releaseRun returns a consumed run's buffers to the pools and its bytes to
// the budget; runs already on disk (keys nil) are untouched.
func (s *Sorter) releaseRun(r *sortedRun) {
	if r.keys == nil {
		return
	}
	s.runRes.Shrink(runBytes(r))
	s.putKeyBuf(r.keys)
	s.putRowSet(r.payload)
	r.keys, r.payload = nil, nil
}

// getKeyBuf returns an empty key buffer, recycled when available. Pool
// custody is charged to poolRes, so recycled capacity counts against the
// budget until it is handed back out.
func (s *Sorter) getKeyBuf() []byte { return s.keyBufs.Get() }

// putKeyBuf recycles a key buffer whose contents are dead.
func (s *Sorter) putKeyBuf(b []byte) {
	if cap(b) == 0 {
		return
	}
	s.keyBufs.Put(b)
}

// getRowSet returns an empty payload row set, recycled when available.
func (s *Sorter) getRowSet() *row.RowSet {
	if rs := s.sets.Get(); rs != nil {
		return rs
	}
	return row.NewRowSet(s.layout)
}

// putRowSet recycles a payload row set whose contents are dead.
func (s *Sorter) putRowSet(rs *row.RowSet) {
	if rs == nil {
		return
	}
	s.sets.Put(rs)
}

// dropPools releases every idle pooled buffer: the cheapest bytes a sorter
// short of budget can give back, ahead of spilling a run or planning a
// merge from what remains. Nothing else would: the pools are free lists,
// which no GC cycle empties.
func (s *Sorter) dropPools() {
	s.sets.Drop()
	s.keyBufs.Drop()
}
