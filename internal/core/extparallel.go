package core

import (
	"errors"
	"fmt"
	"sync"

	"rowsort/internal/mergepath"
	"rowsort/internal/obs"
	"rowsort/internal/row"
)

// Partitioned parallel external merge: the eager merge of spilled runs
// fans out across Options.ExtMergeThreads workers, mirroring what the
// result iterator does for resident runs with k-way Merge Path. The spill files' block
// indexes stand in for random access: KWaySplit over the runs' fence keys
// (every block's first key row) picks balanced boundary keys, each worker
// opens range-bounded block readers that seek straight to their first
// relevant block, and the workers' outputs concatenate into the final
// sorted order. Partition bounds are compared only on the byte-decisive
// safe key prefix, so rows that tie beyond it are never split across
// workers and the output is byte-identical to the sequential merge at
// every worker count.

// minExtPartitionRows gates the partitioned merge: below this many output
// rows per worker the partition setup (splitter probes, boundary-block
// re-reads, per-worker readers) costs more than the parallelism returns,
// and the sequential single-pass merge runs instead.
const minExtPartitionRows = 1 << 13

// partResult is one worker's merged slice of the output.
type partResult struct {
	keys    []byte
	payload *row.RowSet
	rows    int
	stats   mergepath.Stats
	err     error
}

// externalFinalizeParallel tries to run the eager external merge
// partitioned across workers. It returns done=false (and no error) when
// the sort should fall back to the sequential merge: too few rows per
// worker, a run still memory-resident, or no usable boundary keys (all
// fences tie on the safe prefix).
//
//rowsort:pipeline
func (s *Sorter) externalFinalizeParallel(ids []uint32) (bool, error) {
	parts := s.opt.extMergeThreads()
	total := 0
	anyTie := false
	for _, id := range ids {
		r := s.runs[id]
		if r.spill == nil {
			return false, nil // fences only exist for spilled runs
		}
		total += r.rows
		anyTie = anyTie || r.tieBreak
	}
	if mp := total / minExtPartitionRows; mp < parts {
		parts = mp
	}
	if parts <= 1 {
		return false, nil
	}
	safe := s.ovcSafeWidth(anyTie)
	splitters := s.partitionSplitters(ids, parts, safe)
	if len(splitters) == 0 {
		return false, nil
	}

	// Register the per-worker output runs up front (Finalize holds s.mu, so
	// no further locking): worker w rewrites its key rows' references to
	// run finalBase+w, and the concatenated key rows become the one result
	// run — Rows resolves references per run, so per-worker payloads need no
	// rewriting into one set.
	rw := s.rowWidth
	finalBase := uint32(len(s.runs))
	nparts := len(splitters) + 1
	outRuns := make([]*sortedRun, nparts)
	for w := range outRuns {
		outRuns[w] = &sortedRun{id: finalBase + uint32(w), tieBreak: anyTie}
		s.runs = append(s.runs, outRuns[w])
	}

	results := make([]partResult, nparts)
	hint := total/nparts + total/(nparts*8) + 64
	var wg sync.WaitGroup
	for w := 0; w < nparts; w++ {
		var lo, hi []byte
		if w > 0 {
			lo = splitters[w-1]
		}
		if w < len(splitters) {
			hi = splitters[w]
		}
		wg.Add(1)
		go func(w int, lo, hi []byte) {
			defer wg.Done()
			s.rec.Do("merge", func() {
				results[w] = s.mergePartition(ids, finalBase+uint32(w), lo, hi, hint)
			})
		}(w, lo, hi)
	}
	wg.Wait()

	var errs []error
	for w := range results {
		if results[w].err != nil {
			errs = append(errs, results[w].err)
		}
	}
	if len(errs) > 0 {
		for w := range results {
			if results[w].err == nil {
				s.putRowSet(results[w].payload)
			}
		}
		return true, errors.Join(errs...)
	}
	n := 0
	for w := range results {
		n += results[w].rows
	}
	if n != total {
		return true, fmt.Errorf("core: partitioned external merge produced %d of %d rows", n, total)
	}

	finalKeys := make([]byte, 0, total*rw)
	var st mergepath.Stats
	charge := int64(0)
	for w := range results {
		finalKeys = append(finalKeys, results[w].keys...)
		outRuns[w].payload = results[w].payload
		outRuns[w].rows = results[w].rows
		charge += outRuns[w].payload.CapBytes()
		st.Add(results[w].stats)
	}
	st.BytesMoved = uint64(len(finalKeys))
	s.mergeStats.Add(st)
	s.setMergedResult(finalKeys, anyTie)
	s.runRes.Grow(charge + int64(cap(finalKeys)))

	// The inputs are fully consumed: their files go now (each was shared by
	// every worker, so removal waits until all of them have finished).
	for _, id := range ids {
		r := s.runs[id]
		if r.spill != nil {
			s.removeSpillFile(r.spill.path)
			r.spill = nil
		}
		s.releaseRun(r)
	}
	s.extMergeParts.Store(int64(nparts))
	return true, nil
}

// mergePartition merges the key range [lo, hi) of the given runs on one
// worker: range-bounded block readers (with read-ahead) feed the
// offset-value-coded loser tree, and the output accumulates into a
// worker-private key buffer and payload set registered as run outID.
func (s *Sorter) mergePartition(ids []uint32, outID uint32, lo, hi []byte, hint int) partResult {
	mw := s.rec.Worker("merge")
	sp := mw.Begin(obs.PhaseMerge)
	defer sp.End()
	res := s.broker.Reserve("merge", 0)
	defer res.Release()
	e, err := s.openExtMergeRange(ids, mw, res, lo, hi)
	if err != nil {
		return partResult{err: err}
	}
	defer e.close(false)

	rw := s.rowWidth
	out := s.getRowSet()
	out.Reserve(hint)
	e.dst = out
	keys := make([]byte, 0, hint*rw)
	n := 0
	for {
		keyRow, ok := e.next()
		if !ok {
			break
		}
		keys = append(keys, keyRow...)
		s.putRef(keys[len(keys)-rw:], outID, uint32(n))
		n++
		if len(e.pendIdxs) >= e.batch {
			e.flushPend()
		}
	}
	if err := e.readerErr(); err != nil {
		s.putRowSet(out)
		return partResult{err: err}
	}
	e.flushPend()
	return partResult{keys: keys, payload: out, rows: n, stats: e.m.Stats()}
}

// partitionSplitters picks parts-1 boundary keys over the runs' fence
// indexes with KWaySplit: the fences of each spilled run form a sorted
// mergepath.Run (one key row per block), so splitting their union at even
// ranks lands boundaries that balance partitions in block — and therefore
// approximately row — terms. Boundaries that collide on the safe prefix
// are dropped (their partitions merge), so heavy duplicate keys degrade
// the fan-out instead of breaking the order.
func (s *Sorter) partitionSplitters(ids []uint32, parts, safe int) [][]byte {
	rw := s.rowWidth
	fences := make([]mergepath.Run, len(ids))
	totalF := 0
	for i, id := range ids {
		sf := s.runs[id].spill
		fences[i] = mergepath.Run{Data: sf.fences, Width: rw}
		totalF += sf.numBlocks()
	}
	cmp := func(a, b []byte) int { return compareSafe(a, b, safe) }
	var out [][]byte
	for p := 1; p < parts; p++ {
		d := p * totalF / parts
		if d <= 0 || d >= totalF {
			continue
		}
		cut := mergepath.KWaySplit(fences, d, cmp, nil)
		// The boundary is the (d+1)-th fence in merged order: the smallest
		// fence just past the cut.
		var key []byte
		for r := range fences {
			if cut[r] >= fences[r].Len() {
				continue
			}
			row := fences[r].Row(cut[r])
			if key == nil || compareSafe(row, key, safe) < 0 {
				key = row
			}
		}
		if key == nil {
			continue
		}
		if len(out) > 0 && compareSafe(out[len(out)-1], key, safe) >= 0 {
			continue
		}
		out = append(out, append([]byte(nil), key...))
	}
	return out
}
