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
// or on disk (placeRun) when the sink next needs memory (place). Spilling
// demonstrates the paper's future-work direction: because a run is just flat
// key rows plus a row-format payload, it can be offloaded to secondary
// storage in one unified format with no conversion. The format and the
// files are internal/spill's; this file is what the sorter decides — which
// runs go to disk and when, in blocks of how many rows — and the pools that
// recycle a run's buffers.

// sortedRun is one thread-local sorted run: sorted key rows plus the
// payload physically reordered to match (so scans read it sequentially), or
// only the key rows, when they carry the payload inline.
type sortedRun struct {
	id       uint32
	keys     []byte
	payload  *row.RowSet // nil for an inline payload
	rows     int         // row count, valid even after the buffers move to disk
	tieBreak bool        // some string may exceed its prefix (or embed NUL)
	spilling bool        // claimed by a spiller (guarded by Sorter.mu)
	spill    *spill.File
}

// runBytes is a resident run's accounted footprint: key-buffer plus payload
// capacity (capacities, not lengths — that is what the allocator actually
// holds and what the pools will recycle).
func runBytes(r *sortedRun) int64 {
	return int64(cap(r.keys)) + r.payload.CapBytes()
}

// flush turns the pending rows into a run: cut them loose, decide its sort,
// execute it, reorder the payload to match and publish the sorted run, which
// the sink places (place) when it next needs memory — at its next Append, or
// in Close. Under a budget the plan admits the run of an open sink before it
// is charged, and its reordered payload before it is built: the sort sheds
// for both (spillUnderPressure) as it would once they were charged. A run the
// plan cannot admit with every other run on disk goes there as it was cut:
// its payload rows are gathered from the cut set into the spill blocks, and
// no reordered copy is built. A closing sink's last run is admitted when it
// is placed, once the sink has let go of its buffers (Close).
func (k *Sink) flush() (*sortedRun, error) {
	s := k.s
	keys, payload, n, tb := k.cut()
	var sorted *row.RowSet
	if !s.place.inline {
		sorted = s.getRowSet()
	}
	admit := true
	if s.opt.limited() && !k.closed {
		var err error
		if admit, err = k.admit(keys, n, sorted.CapBytesFor(n, payload.HeapLen())); err != nil {
			return nil, err
		}
	}
	sp := k.ow.Begin(obs.PhaseRunSort)
	dec := k.planRun(keys, n, tb)
	// Until the payload is reordered the payload references are row indexes
	// into the cut set.
	k.sortRun(keys, dec.Algo, tb, func(_ int, idx uint32) (*row.RowSet, int) { return payload, int(idx) })
	var perm []uint32
	if payload != nil {
		perm = k.permute(keys, n)
	}
	// An admitted run's payload is physically reordered to the sorted order —
	// an inline one is there already. A run is published under s.mu only
	// once its buffers are final: concurrent pressure spillers scan s.runs
	// and must never observe a half-built run.
	run := &sortedRun{tieBreak: tb, rows: n}
	if admit {
		if sorted != nil {
			sorted.Reserve(n)
			sorted.ReserveHeap(payload.HeapLen())
			sorted.AppendPermuted(payload, perm)
		}
		run.keys, run.payload = keys, sorted
		s.runRes.Grow(runBytes(run))
	}
	s.mu.Lock()
	run.id = uint32(len(s.runs))
	s.runs = append(s.runs, run)
	dec.Run = int(run.id)
	s.ctr.Decide(dec) // under mu: the log is in run-id order
	s.mu.Unlock()
	sp.End()
	if !admit {
		s.ctr.Add(obs.PressureSpills, 1)
		staging := s.getRowSet()
		f, err := s.writeRun(run.id, keys, payload, perm, staging, k.ow)
		s.putKeyBuf(keys) // the sink's next
		s.putRowSet(staging)
		if err != nil {
			return nil, err
		}
		s.mu.Lock()
		run.spill = f
		s.mu.Unlock()
	}
	if payload != nil {
		payload.Reset() // the sink's own set: the next run fills it
	}

	s.ctr.Add(obs.RunsGenerated, 1)
	s.ctr.Add(obs.RowsSorted, int64(n))
	s.ctr.Add(obs.NormKeyBytes, int64(n)*int64(s.keyWidth))
	return run, nil
}

// admit holds the sort to its plan for the n rows an open sink has cut, keys,
// before their run is charged, and reports whether the run fits it (see
// spillUnderPressure). The sink first sizes its radix scratch and
// permutation for the run, so that they are charged when the plan is read.
// The plan counts the keys in the sink's shortfall (overPlan) as far as the
// sink's share still has room for them, and the rest not at all; nor the
// reordered payload, of setBytes, which is not built yet. Both are charged
// with the run.
func (k *Sink) admit(keys []byte, n int, setBytes int64) (bool, error) {
	s := k.s
	k.radixScratch(keys)
	if !s.place.inline {
		k.perm(keys, n)
	}
	k.account()
	keyBytes := int64(cap(keys))
	counted := min(keyBytes, max(0, s.sinkShare-k.res.Bytes()))
	return s.spillUnderPressure(k.ow, keyBytes-counted+setBytes)
}

// place hands the run the sink cut last to the spill policy (placeRun) and
// only then takes the sink's next key buffer, so that a run the placement
// spilled hands the sink its own. It runs when the sink is about to grow
// again, not at the cut: a sink that closes instead places its last run
// holding nothing (Close).
func (k *Sink) place() error {
	run := k.placing
	if run == nil {
		return nil
	}
	k.placing = nil
	err := k.s.placeRun(run, k.ow)
	k.keys = k.s.getKeyBuf()
	k.account()
	return err
}

// permute returns the order of the cut payload rows that the n sorted key
// rows name by their payload references, and points each reference at its
// row's place in the run.
func (k *Sink) permute(keys []byte, n int) []uint32 {
	s := k.s
	idxs := k.perm(keys, n)
	for i, o := 0, s.keyWidth; i < n; i, o = i+1, o+s.place.rowWidth {
		at := keys[o : o+refBytes : o+refBytes]
		idxs[i] = binary.LittleEndian.Uint32(at)
		binary.LittleEndian.PutUint32(at, uint32(i))
	}
	return idxs
}

// perm returns the sink's permutation buffer for n rows, sized once: at the
// rows its key buffer holds.
func (k *Sink) perm(keys []byte, n int) []uint32 {
	if cap(k.idxs) < n {
		k.idxs = make([]uint32, max(n, cap(keys)/k.s.place.rowWidth))
		k.account()
	}
	return k.idxs[:n]
}

// cut detaches the pending rows from the sink, which holds no key buffer
// until its run is placed (place), and returns them with whether their keys
// may tie on bytes.
func (k *Sink) cut() (keys []byte, payload *row.RowSet, n int, tieBreak bool) {
	keys, payload, n, tieBreak = k.keys, k.payload, k.n, k.tieBreak
	k.keys, k.n, k.tieBreak = nil, 0, false
	k.runs++
	// The cut key buffer leaves the sink's reservation here and enters the
	// resident-run one once sorted, together with the reordered payload
	// copy. In between — the sort plus the reorder — neither the cut keys
	// nor the copy being built is charged anywhere: that is the per-sink
	// accounting slack documented in DESIGN.md. The plan still holds the
	// sink at its full share (overPlan), so the keys are not lost to it. The
	// pending payload set (which holds the cut rows until they are
	// reordered), the radix scratch and the permutation stay in the sink's
	// reservation throughout.
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
	} else if kw := s.keyWidth; inOrder(keys, s.place.rowWidth, func(a, b []byte) int { return bytes.Compare(a[:kw], b[:kw]) }) {
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
func (k *Sink) sortRun(keys []byte, algo string, tieBreak bool, lookup func(run int, idx uint32) (*row.RowSet, int)) {
	s := k.s
	if algo == "none" {
		return
	}
	// Which radix sort runs is radix's own width rule, the one planRun names
	// the decision by.
	radix.SortOpts(keys, s.place.rowWidth, s.keyWidth, radix.Options{Scratch: k.radixScratch(keys)})
	if tieBreak {
		k.sortTies(keys, lookup)
	}
}

// sortTies is the tie pass over a radix-sorted run: it sorts each group of
// rows byte-equal on the decisive prefix (normkey's DecisiveWidth) under the
// tie comparator, unless it is in order already, as a group of equal values
// comes out of radix. Radix left rows equal under the comparator, whose key
// bytes are equal, in input order, and the group sort is stable, so the run
// is the stable order. Every row is the run's own: lookup is handed run 0.
func (k *Sink) sortTies(keys []byte, lookup func(run int, idx uint32) (*row.RowSet, int)) {
	s := k.s
	rw, dw := s.place.rowWidth, s.enc.DecisiveWidth()
	order, _ := s.mergeOrder(true, lookup)
	tie := func(a, b []byte) int { return order(a, 0, b, 0) }
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

// placeRun is the spill policy for a run its sink cut: a budgeted sort is
// held to its plan (spillUnderPressure); without a budget, a sort given a
// SpillDir writes every run to disk (the original eager policy).
func (s *Sorter) placeRun(run *sortedRun, ow *obs.Worker) error {
	switch {
	case s.opt.limited():
		_, err := s.spillUnderPressure(ow, 0)
		return err
	case s.opt.SpillDir != "":
		return s.spillRun(run, ow)
	}
	return nil
}

// spillFormat is the shape of this sort's rows, as its spill files hold them:
// an inline payload is in the key rows, and the blocks' payload of no column.
func (s *Sorter) spillFormat() spill.Format {
	return spill.Format{RowWidth: s.place.rowWidth, Layout: s.place.setLayout}
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

// spillUnderPressure holds the sort to its plan with extra more bytes about
// to be charged: while it is over it (overPlan), it first lets go of the idle
// pooled bytes no open sink will take, then sheds resident runs to disk,
// largest first, until it fits — and reports that it does — or nothing
// spillable is left. One sink sheds at a time, so that a second does not shed
// a run for bytes the first is still writing out.
func (s *Sorter) spillUnderPressure(ow *obs.Worker, extra int64) (fits bool, err error) {
	s.shedMu.Lock()
	defer s.shedMu.Unlock()
	short, over := s.overPlan(extra)
	if !over {
		return true, nil
	}
	sp := ow.Begin(obs.PhasePressureSpill)
	defer sp.End()
	for ; over; short, over = s.overPlan(extra) {
		if s.trimPools(short) {
			continue
		}
		run := s.claimSpillableRun()
		if run == nil {
			return false, nil
		}
		s.ctr.Add(obs.PressureSpills, 1)
		err := run.spillTo(s, ow)
		s.mu.Lock()
		run.spilling = false
		s.mu.Unlock()
		if err != nil {
			return false, err
		}
	}
	return true, nil
}

// overPlan reports whether the sort, with extra more bytes charged, holds
// more than the headroom planIngest planned from, and returns short, the
// bytes its open sinks have yet to take to fill their shares. What it holds
// is every byte it has charged — resident runs, a closing sink's buffers, the
// pools — plus the part of short the pools cannot give: an open sink counts
// at its full share, since it grows to it before its next cut. The broker
// chain being over budget is over too: that is how another sorter on a
// shared broker makes itself felt.
func (s *Sorter) overPlan(extra int64) (short int64, over bool) {
	s.mu.Lock()
	for _, r := range s.openSinks {
		short += max(0, s.sinkShare-r.Bytes())
	}
	s.mu.Unlock()
	planned := s.broker.Used() + extra + max(0, short-s.poolRes.Bytes())
	return short, planned > s.headroom || s.broker.OverBudget()
}

// trimPools lets go of the idle pooled bytes no open sink will take — every
// set, since a sink takes only key buffers, and the key buffers beyond its
// open sinks' shortfall, short — and reports whether there were any.
func (s *Sorter) trimPools(short int64) bool {
	return s.sets.Drop()+s.keyBufs.Trim(short) > 0
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
// buffers. ow is the calling worker's trace lane. Callers on concurrent paths
// must hold the run's claim (see spillRun).
func (r *sortedRun) spillTo(s *Sorter, ow *obs.Worker) error {
	staging := s.getRowSet()
	defer s.putRowSet(staging) // after the run's buffers: it is charged to the pool again
	f, err := s.writeRun(r.id, r.keys, r.payload, nil, staging, ow)
	if err != nil {
		return err
	}
	r.spill = f
	// The in-memory buffers are dead once the run is on disk: give their
	// bytes back to the budget and recycle them for the next pending run.
	s.releaseRun(r)
	return nil
}

// writeRun writes run id's sorted key rows, keys, to its spill file, with
// their payload rows from payload, in the keys' order or gathered by perm,
// each block's staged in staging. On any error the partial file is removed;
// nothing is leaked. ow is the calling worker's trace lane.
func (s *Sorter) writeRun(id uint32, keys []byte, payload *row.RowSet, perm []uint32, staging *row.RowSet, ow *obs.Worker) (*spill.File, error) {
	sp := ow.Begin(obs.PhaseSpillWrite)
	defer sp.End()
	rw := s.place.rowWidth
	rows := len(keys) / rw
	w, err := s.spills.NewWriter(id, s.spillFormat(), s.spillBlockRows(), rows, staging)
	if err != nil {
		return nil, err
	}
	defer w.Abort(nil) // a panic's way out closes the file too
	sets := []*row.RowSet{payload}
	for i := 0; i < rows; {
		n := min(w.Room(), rows-i)
		w.AddRows(keys[i*rw:(i+n)*rw], 0, uint32(i), perm)
		if _, err := w.Flush(sets); err != nil {
			return nil, err
		}
		i += n
	}
	return w.Finish()
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
	return row.NewRowSet(s.place.setLayout)
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
