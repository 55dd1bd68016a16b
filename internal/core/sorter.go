package core

import (
	"context"
	"encoding/binary"
	"fmt"
	"sync"

	"rowsort/internal/mem"
	"rowsort/internal/mergepath"
	"rowsort/internal/normkey"
	"rowsort/internal/obs"
	"rowsort/internal/row"
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

	// Strings a key holds whole are stored once, in the key (see keyResidence):
	// strKey[c] is the key whose segment can hold payload column c's strings,
	// keySegs[c] where they start in a key row; -1 for a column that has none,
	// and both nil when no column has.
	strKey  []int
	keySegs []int

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

	// A test pin, written only by this package's tests and read at one site:
	// spill blocks of this many rows whatever the budget says
	// (spillBlockRows).
	pinBlockRows int
}

// NewSorter validates the specification and returns a sorter.
func NewSorter(schema vector.Schema, keys []SortColumn, opt Options) (*Sorter, error) {
	if err := opt.Validate(); err != nil {
		return nil, err
	}
	nkeys, err := NormKeys(schema, keys)
	if err != nil {
		return nil, err
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
	s.strKey, s.keySegs = keyResidence(enc, len(schema))
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
	s.run = s.rec.Register(obs.RunOptions{Fingerprint: opt.Fingerprint(), Block: s.ctr})
	return s, nil
}

// keyResidence picks, for each payload column, the key whose segment can hold
// the column's strings whole, and where in a key row they would start: a
// varchar key in ASC order under binary collation, whose segment is the
// string's own bytes, zero-padded, behind the validity byte — the longest
// such prefix, where the column is keyed so more than once. DESC inverts a
// segment and NOCASE folds it, so a column keyed only so keeps its strings on
// the heap. A chunk whose strings fit that key's prefix (normkey reports the
// key untied) leaves them there, and its payload holds only their lengths
// (Sink.Append).
func keyResidence(enc *normkey.Encoder, cols int) (strKey, segs []int) {
	keys := enc.Keys()
	for k, key := range keys {
		if key.Type != vector.Varchar || key.Order != normkey.Ascending || key.Collation != normkey.CollationBinary {
			continue
		}
		if strKey == nil {
			strKey, segs = make([]int, cols), make([]int, cols)
			for c := range strKey {
				strKey[c], segs[c] = -1, -1
			}
		}
		c := key.Column
		if j := strKey[c]; j < 0 || keys[j].Prefix() < key.Prefix() {
			strKey[c], segs[c] = k, enc.Offset(k)+1
		}
	}
	return strKey, segs
}

// keySegment returns the key row from where column c's key-resident string
// starts, for RowSet.StringIn; nil when the column has none.
func (s *Sorter) keySegment(keyRow []byte, c int) []byte {
	if s.keySegs == nil || s.keySegs[c] < 0 {
		return nil
	}
	return keyRow[s.keySegs[c]:]
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

// Close removes any spill files the sorter still has on disk. A result
// drained to its end has removed them as it read, so this is a no-op on the
// happy path; aborted sorts (a sink error, a sorter dropped before Finalize,
// a result iterator abandoned early) must call it to avoid leaking
// rowsort-run-*.bin files.
//
// Result iterators still running (Rows handed out, never closed) have their
// workers stopped and joined first; such an iterator's next Next fails.
//
// Close is safe to call multiple times (including on sorters that never
// spilled): after a clean one it has nothing left to do and returns nil,
// while files whose removal failed stay tracked and are retried. Removal
// errors are not swallowed — every failed removal is joined into the returned
// error and counted as spill_remove_errors.
func (s *Sorter) Close() error {
	s.cancel()
	s.drainWG.Wait()
	s.mu.Lock()
	defer s.mu.Unlock()
	// Hand the budget back: anything still charged to the broker — resident
	// runs, pooled buffers, the buffers of a sink its owner walked away from —
	// is dead once the sorter is closed. Releases are idempotent, so a
	// retried Close is harmless; the broker's peak
	// (Stats().PeakResidentRunBytes) survives.
	s.runRes.Release()
	s.poolRes.Release()
	for _, res := range s.sinkRes {
		res.Release()
	}
	s.sinkRes = nil
	err := s.spills.Close()
	// The run is over; a registry watching it may now let it go.
	s.run.Done()
	return err
}

// SortTable sorts a materialized table: its chunks are dealt round-robin to
// a ParallelSink's workers, then runs are merged in parallel and the result
// gathered.
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
	p := s.NewParallelSink()
	for _, c := range t.Chunks {
		if p.Append(c) != nil {
			break // Close returns the error
		}
	}
	if err := p.Close(); err != nil {
		return nil, err
	}
	if err := s.Finalize(); err != nil {
		return nil, err
	}
	return s.Result()
}
