package core

import (
	"bytes"
	"context"
	"encoding/binary"
	"fmt"
	"math"
	"sync"

	"rowsort/internal/mem"
	"rowsort/internal/mergepath"
	"rowsort/internal/normkey"
	"rowsort/internal/obs"
	"rowsort/internal/perfmodel"
	"rowsort/internal/radix"
	"rowsort/internal/row"
	"rowsort/internal/sortalgo"
	"rowsort/internal/spill"
	"rowsort/internal/vector"
)

// Sorter is the relational sort operator. Typical use:
//
//	s, _ := core.NewSorter(schema, keys, core.Options{})
//	sink := s.NewSink()            // one per producing thread
//	sink.Append(chunk)             // repeatedly
//	sink.Close()
//	s.Finalize()                   // plans the merge; it runs inside Rows
//	result, _ := s.Result()        // merged and gathered: sorted table, columnar again
//
// SortTable wraps all of this for a materialized table.
type Sorter struct {
	schema vector.Schema
	keys   []SortColumn
	opt    Options

	// The key shape, fixed by NewSorter: read without s.mu.
	enc      *normkey.Encoder
	layout   *row.Layout // payload layout: all schema columns
	keyWidth int         // normalized key bytes per row
	rowWidth int         // key row stride: keyWidth + 8-byte payload ref, 8-aligned

	mu        sync.Mutex
	runs      []*sortedRun
	finalized bool

	// What Finalize leaves the result iterator (rows.go), where the final
	// merge runs: the ids of the runs to merge — every run, or under a budget
	// the survivors of reducing the fan-in to what the budget can stream —
	// and their rows. A result with a run on disk (onDisk) may be iterated
	// once: its merge consumes the files as it reads them.
	resultIDs  []uint32
	resultRows int
	onDisk     bool
	diskTaken  bool // the single-pass merge of spilled runs has been handed out

	// mergeStats is the merge work of Finalize (intermediate passes), to
	// which each result iterator adds its own before publishing the total.
	// Close cancels ctx, which stops those iterators' workers and block
	// stages, and joins them on drainWG.
	mergeStats mergepath.Stats
	ctx        context.Context
	cancel     context.CancelFunc
	drainWG    sync.WaitGroup

	// spills is the sort's files on disk: every file the sorter creates is
	// tracked there until it is removed, so Close can clean up after aborted
	// sorts.
	spills *spill.Dir

	// Memory governance: every resident byte the sorter holds is charged to
	// broker — sink buffers through per-sink reservations, sorted runs
	// through runRes, recycled buffers parked in the pools through poolRes,
	// merge block buffers through per-merge reservations. The broker's
	// high-water mark feeds SortStats.PeakResidentRunBytes; a run published
	// while the broker chain is over budget sheds resident runs to disk
	// (placeRun).
	broker  *mem.Broker
	runRes  *mem.Reservation   // resident sorted runs (keys + payload capacity)
	poolRes *mem.Reservation   // recycled buffers parked in the pools
	sinkRes []*mem.Reservation // every sink's, for Close to release (guarded by mu)
	keyBufs *row.BufPool
	sets    *row.SetPool

	// The ingest plan, fixed by NewSorter: a sink cuts its pending run at
	// runRows rows, or earlier when its live bytes pass sinkShare (see
	// planIngest).
	runRows   int
	sinkShare int64

	// Telemetry: rec records phase spans when Options.Telemetry is set (nil
	// disables span recording at zero cost). ctr is the sort's counter block,
	// always there: every counter, the lifecycle clock and the run-sort
	// decision log live in it and nowhere else, published once per chunk, run
	// or block, and SortStats and the registry's views are read from it. run
	// is non-nil only when the recorder came from a registry; Close marks it
	// done.
	rec *obs.Recorder
	ctr *obs.Block
	run *obs.RunHandle

	// Test pins, written only by this package's tests and each read at one
	// site: spill blocks of this many rows whatever the budget says
	// (spillBlockRows), and pdqsort under the comparator for every run
	// whatever its rule would be (planRun).
	pinBlockRows int
	pinPdqsort   bool
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

// NewSorter validates the specification and returns a sorter.
func NewSorter(schema vector.Schema, keys []SortColumn, opt Options) (*Sorter, error) {
	if err := opt.Validate(); err != nil {
		return nil, err
	}
	if err := validateKeys(schema, keys); err != nil {
		return nil, err
	}
	nkeys := make([]normkey.SortKey, len(keys))
	for i, k := range keys {
		order := normkey.Ascending
		if k.Descending {
			order = normkey.Descending
		}
		nulls := normkey.NullsFirst
		if k.NullsLast {
			nulls = normkey.NullsLast
		}
		coll := normkey.CollationBinary
		if k.CaseInsensitive {
			coll = normkey.CollationNoCase
		}
		nkeys[i] = normkey.SortKey{
			Column:    k.Column,
			Type:      schema[k.Column].Type,
			Order:     order,
			Nulls:     nulls,
			PrefixLen: k.PrefixLen,
			Collation: coll,
		}
	}
	enc, err := normkey.NewEncoder(nkeys)
	if err != nil {
		return nil, err
	}
	s := &Sorter{
		schema:   schema,
		keys:     append([]SortColumn(nil), keys...),
		opt:      opt,
		enc:      enc,
		layout:   row.NewLayout(schema.Types()),
		keyWidth: enc.Width(),
		rec:      opt.Telemetry,
	}
	s.rowWidth = (s.keyWidth + refBytes + 7) &^ 7
	s.ctx, s.cancel = context.WithCancel(context.Background())

	// The sorter always runs under a broker — a child of the shared one
	// when Options.Broker is set, a private root otherwise — so peak
	// accounting works even for unbudgeted sorts. MemoryLimit bounds the
	// child; zero means only the parent's budget (if any) applies.
	s.broker = opt.Broker.Child("sorter", opt.MemoryLimit)
	s.runRes = s.broker.Reserve("runs", 0)
	s.poolRes = s.broker.Reserve("pools", 0)
	s.keyBufs = row.NewBufPool(s.poolRes)
	s.sets = row.NewSetPool(s.layout, s.poolRes)
	s.planIngest()
	s.ctr = obs.NewBlock(s.broker)
	s.ctr.Store(obs.MemLimit, opt.MemoryLimit)
	s.spills = spill.NewDir(spill.OS(), opt.SpillDir, s.ctr, s.rec)
	s.run = s.rec.Register(obs.RunOptions{
		Fingerprint: opt.Fingerprint(),
		Block:       s.ctr,
		Weights:     perfmodel.SortPhaseWeights(s.keyWidth, s.layout.Width(), opt.SpillDir != "" || opt.limited()),
	})
	return s, nil
}

// planIngest fixes the run size. Without a budget a run is RunSize rows and
// nothing else ends it. Under one — a limit somewhere in the broker chain,
// judged by the headroom it has now — the sinks' pending buffers get half the
// budget, split evenly over Threads sinks; resident runs, the run being
// flushed and the drain get the other half. A run is then as many whole
// vectors as a sink's share holds at pendingRowBytes, capped at RunSize and
// never under one vector; only a string heap can end it sooner. Whole
// vectors, because a sink cuts between chunks: a run planned a few rows past
// a chunk would take in the next one whole, and its sink twice its share.
func (s *Sorter) planIngest() {
	s.runRows, s.sinkShare = s.opt.runSize(), math.MaxInt64
	rem := s.broker.Remaining()
	if rem == math.MaxInt64 {
		return
	}
	s.sinkShare = rem / int64(2*s.opt.threads())
	v := vector.DefaultVectorSize
	s.runRows = min(s.runRows, max(int(s.sinkShare/s.pendingRowBytes())/v*v, v))
}

// pendingRowBytes is what a sink's reservation holds for one fixed-width
// pending row: a key row, a radix-scratch row, a payload row and a
// permutation entry.
func (s *Sorter) pendingRowBytes() int64 {
	return int64(2*s.rowWidth + s.layout.Width() + 4)
}

// SetExpectedRows declares the total input rows up front, when the caller
// knows them (SortTable does), so the registry's progress estimation has a
// denominator before ingestion finishes. Optional; harmless to skip.
func (s *Sorter) SetExpectedRows(n int64) { s.ctr.Store(obs.RowsExpected, n) }

// refBytes is the payload reference appended to every key row: the run id
// and the row index within the run's payload.
const refBytes = 8

// putRef stores the payload reference behind the key bytes. The reference
// is never part of the compared prefix, so its byte order is free to be
// native little-endian.
func (s *Sorter) putRef(keyRow []byte, runID, idx uint32) {
	binary.LittleEndian.PutUint32(keyRow[s.keyWidth:], runID)
	binary.LittleEndian.PutUint32(keyRow[s.keyWidth+4:], idx)
}

func (s *Sorter) getRef(keyRow []byte) (runID, idx uint32) {
	return binary.LittleEndian.Uint32(keyRow[s.keyWidth:]),
		binary.LittleEndian.Uint32(keyRow[s.keyWidth+4:])
}

// Sink is a per-thread ingestion point. It accumulates converted rows and
// cuts a sorted run where the sorter's ingest plan says (planIngest). Sinks
// are not safe for concurrent use; create one per producing goroutine.
//
// A row is copied where Figure 11 copies it and nowhere else: scattered
// into payload once at ingest, reordered into the run's own set once after
// the keys are sorted. To keep it that way the sink owns, for its whole
// life, the buffers a run only passes through — the pending payload set,
// the radix scatter buffer, the reorder permutation — sized once (see
// pendingCap) and emptied, not replaced, at each cut; only the key buffer
// and the reordered payload, which stay resident as the run, are new per
// run. All of it is charged to res (see account).
type Sink struct {
	s        *Sorter
	ow       *obs.Worker      // this sink's trace lane (nil without telemetry)
	res      *mem.Reservation // everything the sink retains, charged to the sorter's broker
	keys     []byte           // pending key rows; leaves with each cut run
	payload  *row.RowSet      // pending payload rows; emptied at each cut
	scratch  []byte           // radix scatter buffer, key-buffer sized
	idxs     []uint32         // payload reorder permutation
	keyCols  []*vector.Vector // the current chunk's key columns
	n        int
	runs     int   // runs this sink has cut
	heapRow  int64 // string-heap bytes a pending row carried, last seen
	tieBreak bool
	closed   bool
}

// NewSink registers and returns a new ingestion sink.
func (s *Sorter) NewSink() *Sink {
	k := &Sink{s: s, ow: s.rec.Worker("sink"), res: s.broker.Reserve("sink", 0),
		keys: s.getKeyBuf(), payload: s.getRowSet(),
		keyCols: make([]*vector.Vector, len(s.keys))}
	// A sink its owner abandons — an Append failed, a producer gave up —
	// still holds its buffers' bytes: Sorter.Close gives them back.
	s.mu.Lock()
	s.sinkRes = append(s.sinkRes, k.res)
	s.mu.Unlock()
	k.account()
	return k
}

// account syncs the sink's reservation with the capacity of every buffer
// it holds: pending keys and payload, radix scratch, reorder permutation.
func (k *Sink) account() {
	k.res.SetTo(int64(cap(k.keys)) + k.payload.CapBytes() +
		int64(cap(k.scratch)) + 4*int64(cap(k.idxs)))
}

// liveBytes is what the pending run holds, by length: its key rows, as many
// again for the radix scratch, a permutation entry a row and the payload with
// its string heap. A recycled buffer's spare capacity cannot move a cut.
func (k *Sink) liveBytes() int64 {
	return int64(k.n)*int64(2*k.s.rowWidth+4) + int64(k.payload.MemSize())
}

// pendingCap returns the row capacity a pending buffer should grow to so
// that it holds need rows.
//
// The answer is the planned run size (planIngest) — every later chunk of
// every later run then lands in place, with no growth copy — except for the
// sink's very first chunk, which gets exactly its own size so that a sort
// of one chunk per sink does not pay for a run. A declared input size
// (SetExpectedRows) below the run size bounds the run instead, for as long
// as the declaration holds. Under a budget the run size is what the sink's
// share holds, so reserving it ahead stays within the share; where the string
// heap the sink has seen fills the share first, the run is sized for the rows
// the share holds with it, as the cut will end it there.
func (k *Sink) pendingCap(need int) int {
	s := k.s
	c := int(min(int64(s.runRows), s.sinkShare/(s.pendingRowBytes()+k.heapRow)))
	if k.n == 0 && k.runs == 0 {
		c = need
	} else if exp := s.ctr.Value(obs.RowsExpected); int64(need) <= exp && exp < int64(c) {
		c = int(exp)
	}
	return max(c, need)
}

// reservePayload makes room in the pending payload set for n more rows,
// following pendingCap. The string heap is sized with the row buffer, by
// extrapolating the bytes per row seen so far plus an eighth; a heap that
// outgrows the guess doubles inside RowSet like any other.
func (k *Sink) reservePayload(n int) {
	need := k.n + n
	if k.payload.Cap() >= need {
		return
	}
	c := k.pendingCap(need)
	k.payload.Reserve(c)
	if k.n > 0 {
		perRow := (k.payload.HeapLen() + k.n - 1) / k.n
		k.payload.ReserveHeap(c * (perRow + perRow/8))
	}
}

// growKeys extends the sink's key buffer by n rows and returns the byte
// offset of the new region, growing capacity as pendingCap says.
func (k *Sink) growKeys(n int) int {
	rw := k.s.rowWidth
	need := len(k.keys) + n*rw
	if cap(k.keys) < need {
		nb := make([]byte, len(k.keys), k.pendingCap(need/rw)*rw)
		copy(nb, k.keys)
		k.keys = nb
	}
	start := len(k.keys)
	k.keys = k.keys[:need]
	return start
}

// Append converts one chunk into the sink's pending run: payload columns
// are scattered to the row format, key columns are normalized — both one
// vector at a time.
func (k *Sink) Append(c *vector.Chunk) error {
	if k.closed {
		return fmt.Errorf("core: append to closed sink")
	}
	s := k.s
	if len(c.Vectors) != len(s.schema) {
		return fmt.Errorf("core: chunk has %d columns, schema has %d", len(c.Vectors), len(s.schema))
	}
	n := c.Len()
	if n == 0 {
		return nil
	}
	s.ctr.AdvanceTo(obs.StageRunGen)
	sp := k.ow.Begin(obs.PhaseIngest)
	base := k.payload.Len()
	k.reservePayload(n)
	if err := k.payload.AppendChunk(c.Vectors); err != nil {
		sp.End()
		return err
	}

	for i, kc := range s.keys {
		k.keyCols[i] = c.Vectors[kc.Column]
	}
	start := k.growKeys(n)
	st, err := s.enc.EncodeChunk(k.keyCols, k.keys[start:], s.rowWidth, 0)
	clear(k.keyCols) // the sink must not pin the caller's chunk
	if err != nil {
		sp.End()
		return err
	}
	// Behind each key goes its payload reference — run 0, the row's index in
	// the pending set — as one store, after one that zeroes the alignment
	// padding past it: a recycled buffer carries stale bytes there.
	kw, rw := s.keyWidth, s.rowWidth
	ref := uint64(base) << 32
	for o := start; o < len(k.keys); o += rw {
		keyRow := k.keys[o : o+rw : o+rw]
		binary.LittleEndian.PutUint64(keyRow[rw-refBytes:], 0)
		binary.LittleEndian.PutUint64(keyRow[kw:], ref)
		ref += 1 << 32
	}
	k.n += n
	k.heapRow = int64(k.payload.HeapLen() / k.n)
	s.ctr.Add(obs.RowsIngested, int64(n))

	// The encoder reports per-chunk whether any encoded key could byte-tie
	// with a different value's encoding (an overlong or NUL-bearing string
	// prefix) — runs built only from lossless chunks keep the comparison-free
	// radix path.
	if st.Ties {
		k.tieBreak = true
	}
	k.account()
	sp.End()

	// Cut the run at the planned size, or when the pending rows outgrow the
	// sink's share of a budget, which only a string heap makes them do.
	if k.n >= s.runRows || k.liveBytes() > s.sinkShare {
		return k.flush()
	}
	return nil
}

// Close flushes the sink's remaining rows as a final (possibly short) run
// and returns the sink's buffers to the sorter's pools.
func (k *Sink) Close() error {
	if k.closed {
		return nil
	}
	k.closed = true
	var err error
	if k.n > 0 {
		err = k.flush()
	}
	k.s.putKeyBuf(k.keys)
	k.s.putRowSet(k.payload)
	k.keys, k.payload, k.scratch, k.idxs = nil, nil, nil, nil
	k.res.Release()
	return err
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
	sorted.AppendRowsFrom(payload, idxs)
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

// planRun decides the cut run's sort by three exact rules, sampling
// nothing, and returns the decision to log. A run whose keys may tie on their
// bytes (tieBreak) sorts as the paper's rule says, pdqsort under the
// tie-breaking comparator. A byte-decisive run is radix-sorted, unless it
// arrived in order (inOrder): radix.Sort is stable, so such a run is left as
// it is, byte-identical to sorting it. Why names the rule when radix's did not
// decide.
func (k *Sink) planRun(keys []byte, n int, tieBreak bool) StrategyDecision {
	s := k.s
	switch {
	case s.pinPdqsort:
		return StrategyDecision{Rows: n, Algo: "pdqsort", Why: "pin"}
	case tieBreak:
		return StrategyDecision{Rows: n, Algo: "pdqsort", Why: "tie-break"}
	case inOrder(keys, s.rowWidth, s.keyWidth):
		return StrategyDecision{Rows: n, Algo: "none", Why: "presorted"}
	case radix.UseLSD(s.keyWidth):
		return StrategyDecision{Rows: n, Algo: "lsd-radix"}
	}
	return StrategyDecision{Rows: n, Algo: "msd-radix"}
}

// inOrder reports whether key rows are already non-decreasing on their key
// prefix. It stops at the first descent, so on unsorted input it reads a few
// rows.
func inOrder(keys []byte, rowWidth, keyWidth int) bool {
	for o := rowWidth; o < len(keys); o += rowWidth {
		if bytes.Compare(keys[o-rowWidth:o-rowWidth+keyWidth], keys[o:o+keyWidth]) > 0 {
			return false
		}
	}
	return true
}

// sortRun sorts the cut run in place with the kernel algo names, the one place
// each run-sort kernel is started from. lookup resolves a key row's payload
// reference; only a run whose keys may tie (tieBreak) is ever compared through
// it — any other is compared, if at all, as plain bytes.
func (k *Sink) sortRun(keys []byte, algo string, tieBreak bool, lookup func(runID, idx uint32) (*row.RowSet, int)) {
	s := k.s
	switch algo {
	case "none":
	case "pdqsort":
		r := sortalgo.NewRows(keys, s.rowWidth)
		_, r.Compare = s.mergeOrder(tieBreak, lookup)
		r.Pdqsort()
	default:
		// Which radix sort runs is radix's own width rule, the one planRun
		// names the decision by.
		radix.SortOpts(keys, s.rowWidth, s.keyWidth, radix.Options{Scratch: k.radixScratch(keys)})
	}
}

// comparator returns the tie-breaking key-row comparator: a segment-wise
// compare that resolves a tied varchar prefix — the only segment that can
// tie — against the collated full strings in the payload, fetched through the
// row's reference. Rows that cannot tie never need it: mergeOrder hands those
// callers one bytes.Compare over the key prefix, the paper's memcmp. lookup
// maps a payload reference to the RowSet holding it and the row's index there
// (a merge over spilled runs keeps only one block of each run current, so the
// index is block-local).
//
// NULLs never fetch: byte-tied segments share their validity byte, so one
// leading-byte probe classifies both rows as NULL (equal) or both valid.
func (s *Sorter) comparator(lookup func(runID, idx uint32) (*row.RowSet, int)) func(a, b []byte) int {
	keys := s.enc.Keys()
	type seg struct {
		off, end int
		col      int // schema column, for the payload fetch
		desc     bool
		canTie   bool
		nullB    byte // the segment's leading byte when the value is NULL
		coll     normkey.Collation
	}
	segs := make([]seg, len(keys))
	for i, nk := range keys {
		sg := seg{
			off:    s.enc.Offset(i),
			col:    nk.Column,
			desc:   nk.Order == normkey.Descending,
			canTie: s.enc.SegCanTie(i),
			coll:   nk.Collation,
		}
		if i+1 < len(keys) {
			sg.end = s.enc.Offset(i + 1)
		} else {
			sg.end = s.keyWidth
		}
		// The encoder pre-swaps NULL placement for DESC and then inverts
		// the segment; reproduce that to recognize NULL from the key byte.
		effFirst := (nk.Nulls == normkey.NullsFirst) != sg.desc
		if !effFirst {
			sg.nullB = 0x01
		}
		if sg.desc {
			sg.nullB = ^sg.nullB
		}
		segs[i] = sg
	}
	return func(a, b []byte) int {
		for _, sg := range segs {
			c := compareBytes(a[sg.off:sg.end], b[sg.off:sg.end])
			if c != 0 {
				return c
			}
			if !sg.canTie {
				continue
			}
			// Segment bytes tied; both rows share the validity byte, so
			// they are both NULL (equal) or both valid.
			if a[sg.off] == sg.nullB {
				continue
			}
			ra, ia := s.getRef(a)
			rb, ib := s.getRef(b)
			pa, la := lookup(ra, ia)
			pb, lb := lookup(rb, ib)
			c = compareStrings(sg.coll.Apply(pa.String(la, sg.col)), sg.coll.Apply(pb.String(lb, sg.col)))
			if sg.desc {
				c = -c
			}
			if c != 0 {
				return c
			}
		}
		return 0
	}
}

func compareBytes(a, b []byte) int { return bytes.Compare(a, b) }

// ovcSafeWidth returns the normalized-key prefix width over which plain
// byte order is the sort order: the whole key when no segment encoded a
// possible tie, else only up to the end of the first tie-capable segment,
// a varchar prefix. Beyond a tied prefix the full strings decide before any
// later segment's bytes, so byte (and offset-value-code) comparisons must
// stop there and byte-equal rows fall to the segment-wise tie comparator.
func (s *Sorter) ovcSafeWidth(anyTieBreak bool) int {
	if !anyTieBreak {
		return s.keyWidth
	}
	keys := s.enc.Keys()
	for i := range keys {
		if s.enc.SegCanTie(i) {
			if i+1 < len(keys) {
				return s.enc.Offset(i + 1)
			}
			break
		}
	}
	return s.keyWidth
}

func compareStrings(a, b string) int {
	switch {
	case a < b:
		return -1
	case a > b:
		return 1
	default:
		return 0
	}
}

// Finalize ends run generation and plans the result; it merges nothing. The
// result iterator cuts the output into tasks at fences of the runs — in
// memory, on disk or both — by Merge Path's stable rule, and merges each
// inside its gather (see Rows), so the first chunk does not wait for the
// last. Only a budgeted sort whose runs outnumber what the budget can stream
// at once does merge work here: the passes that reduce its fan-in. It must be
// called after every sink is closed.
func (s *Sorter) Finalize() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.finalized {
		return fmt.Errorf("core: Finalize called twice")
	}
	s.finalized = true
	s.ctr.AdvanceTo(obs.StageMerge)
	s.ctr.StopClock(obs.DurRunGen)
	s.ctr.Add(obs.MergeRowsPlanned, s.ctr.Value(obs.RowsIngested))
	defer s.ctr.StopClock(obs.DurMerge)
	var err error
	s.rec.Do("merge", func() { err = s.finalizeLocked() })
	return err
}

// finalizeLocked is Finalize's body, run under s.mu and the merge pprof
// label: it records the runs the result iterator is to merge. What the
// closed sinks parked in the pools is let go first. Under a budget a sort
// with runs on disk then reduces their number to a fan-in the remaining
// budget can stream.
func (s *Sorter) finalizeLocked() error {
	ids := make([]uint32, len(s.runs))
	for i, r := range s.runs {
		ids[i] = uint32(i)
		s.onDisk = s.onDisk || r.spill != nil
	}
	s.dropPools()
	if s.onDisk {
		if s.opt.limited() {
			mw := s.rec.Worker("merge")
			sp := mw.Begin(obs.PhaseMerge)
			defer sp.End()
			var err error
			if ids, err = s.reduceFanIn(ids, mw); err != nil {
				return err
			}
		}
		s.ctr.Store(obs.MergeFanIn, int64(len(ids)))
	}
	for _, id := range ids {
		s.resultRows += s.runs[id].rows
	}
	s.resultIDs = ids
	return nil
}

// residentPayload resolves a key row's payload reference against the
// in-memory runs.
func (s *Sorter) residentPayload(runID, idx uint32) (*row.RowSet, int) {
	return s.runs[runID].payload, int(idx)
}

// mergeOrder returns the merge's comparators over key rows: tie orders rows
// equal on the byte-decisive prefix (ovcSafeWidth), the one a loser tree is
// coded on, and is nil when no run can tie; cmp is the whole order.
func (s *Sorter) mergeOrder(anyTieBreak bool, lookup func(runID, idx uint32) (*row.RowSet, int)) (tie, cmp mergepath.CompareFunc) {
	if anyTieBreak {
		tie = s.comparator(lookup)
		return tie, tie
	}
	kw := s.keyWidth
	return nil, func(a, b []byte) int { return compareBytes(a[:kw], b[:kw]) }
}

// NumRows returns the number of sorted rows; valid after Finalize.
func (s *Sorter) NumRows() int { return s.resultRows }

// Result materializes the sorted rows as a columnar table (the final
// conversion of Figure 11) by draining Rows: merge and vectorized gather run
// on Options.Threads workers, byte-identical at any thread count. Under a
// memory budget the table itself is the documented budget slack.
func (s *Sorter) Result() (*vector.Table, error) {
	it, err := s.Rows()
	if err != nil {
		return nil, err
	}
	out := vector.NewTable(s.schema)
	for {
		chunk, err := it.Next()
		if err != nil || chunk == nil {
			break // Close reports the iterator's first error
		}
		out.Chunks = append(out.Chunks, chunk)
	}
	if err := it.Close(); err != nil {
		return nil, err
	}
	return out, nil
}

// SortTable sorts a materialized table: chunks are distributed to worker
// goroutines morsel-style, each feeding its own sink, then runs are merged
// in parallel and the result gathered.
func SortTable(t *vector.Table, keys []SortColumn, opt Options) (*vector.Table, error) {
	out, _, err := SortTableStats(t, keys, opt)
	return out, err
}

// SortTableStats is SortTable returning the sort's telemetry snapshot
// alongside the result (taken after cleanup, so spill accounting is final).
// With Options.Telemetry set, the recorder holds the full span timeline.
func SortTableStats(t *vector.Table, keys []SortColumn, opt Options) (*vector.Table, SortStats, error) {
	s, err := NewSorter(t.Schema, keys, opt)
	if err != nil {
		return nil, SortStats{}, err
	}
	out, err := sortTable(s, t)
	// Whatever happened above, no spill files survive this call; removal
	// failures surface as the call's error (and in the stats).
	closeErr := s.Close()
	if err == nil {
		err = closeErr
	}
	st := s.Stats()
	if err != nil {
		return nil, st, err
	}
	return out, st, nil
}

// sortTable runs the sort pipeline over t's chunks.
func sortTable(s *Sorter, t *vector.Table) (*vector.Table, error) {
	root := s.rec.Worker("main")
	sp := root.Begin(obs.PhaseSort)
	defer sp.End()
	total := 0
	for _, c := range t.Chunks {
		total += c.Len()
	}
	s.SetExpectedRows(int64(total))
	threads := min(s.opt.threads(), max(1, len(t.Chunks)))
	errs := make([]error, threads)
	var wg sync.WaitGroup
	for w := 0; w < threads; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			s.rec.Do("run-generation", func() {
				sink := s.NewSink()
				for i := w; i < len(t.Chunks); i += threads {
					if err := sink.Append(t.Chunks[i]); err != nil {
						errs[w] = err
						return
					}
				}
				errs[w] = sink.Close()
			})
		}(w)
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return nil, err
		}
	}
	if err := s.Finalize(); err != nil {
		return nil, err
	}
	return s.Result()
}
