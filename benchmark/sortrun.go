package main

import (
	"errors"
	"fmt"
	"os"
	"runtime"
	"sync"
	"time"

	"rowsort/internal/core"
	"rowsort/internal/obs"
	"rowsort/internal/vector"
)

// sortResult is what one sort through the sorter's public calls cost and
// whether its output was right.
type sortResult struct {
	// Total runs from NewSorter (microseconds before the first Append) to
	// the return of Sorter.Close after the last chunk was drained.
	Total time.Duration
	// FirstChunk runs from the same start to the first Next returning.
	FirstChunk time.Duration
	Stats      core.SortStats
	// AllocBytes and Mallocs are runtime.MemStats deltas around the sort.
	AllocBytes, Mallocs uint64
	// Err is a returned error or a failed verification.
	Err error
}

// runSort drives one sort: one Sink per thread fed round-robin, Finalize,
// Rows/Next until nil, Close. With a tracer it records a span around every
// call and turns on the sorter's own phase recorder; without one it runs the
// same code untraced. The garbage collection before, and the verification
// after, are outside the timed region.
func runSort(p *prepared, threads int, tr *tracer, traceID string) sortResult {
	opt := p.opt
	opt.Threads = threads
	if tr != nil {
		opt.Telemetry = obs.NewRecorder()
	}
	chunks := p.table.Chunks
	out := make([]*vector.Chunk, 0, len(chunks))
	var res sortResult
	var m0, m1 runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&m0)

	root := tr.begin(0, traceID, "sort", 0)
	call := func(name string, lane int, f func() error) error {
		id := tr.begin(root, traceID, name, lane)
		err := f()
		tr.end(id)
		return err
	}
	start := time.Now()
	var s *core.Sorter
	err := call("core.new_sorter", 0, func() (err error) {
		s, err = core.NewSorter(p.table.Schema, p.def.Keys, opt)
		return err
	})
	if err == nil {
		err = func() error {
			errs := make([]error, threads)
			var wg sync.WaitGroup
			for w := 0; w < threads; w++ {
				wg.Add(1)
				go func() {
					defer wg.Done()
					sink := s.NewSink()
					for i := w; i < len(chunks) && errs[w] == nil; i += threads {
						errs[w] = call("core.sink_append", w+1, func() error { return sink.Append(chunks[i]) })
					}
					if err := call("core.sink_close", w+1, sink.Close); errs[w] == nil {
						errs[w] = err
					}
				}()
			}
			wg.Wait()
			if err := errors.Join(errs...); err != nil {
				return err
			}
			if err := call("core.finalize", 0, s.Finalize); err != nil {
				return err
			}
			var it *core.RowIter
			if err := call("core.rows", 0, func() (err error) { it, err = s.Rows(); return err }); err != nil {
				return err
			}
			for {
				var c *vector.Chunk
				if err := call("core.rows_next", 0, func() (err error) { c, err = it.Next(); return err }); err != nil {
					return errors.Join(err, it.Close())
				}
				if c == nil {
					return it.Close()
				}
				if len(out) == 0 {
					res.FirstChunk = time.Since(start)
				}
				out = append(out, c)
			}
		}()
		err = errors.Join(err, call("core.close", 0, s.Close))
	}
	res.Total = time.Since(start)
	tr.end(root)

	runtime.ReadMemStats(&m1)
	res.AllocBytes, res.Mallocs = m1.TotalAlloc-m0.TotalAlloc, m1.Mallocs-m0.Mallocs
	if s != nil {
		res.Stats = s.Stats()
	}
	if err == nil {
		err = verify(p, out)
	}
	res.Err = err
	return res
}

// verify checks a sort's output against the oracle and that the sorter left
// no file behind in the workload's spill directory.
func verify(p *prepared, out []*vector.Chunk) error {
	got, err := digestOf(out, p.def.Keys)
	if err != nil {
		return err
	}
	if err := p.expect.check(got); err != nil {
		return err
	}
	left, err := os.ReadDir(p.spillDir)
	if err != nil {
		return err
	}
	if len(left) != 0 {
		return fmt.Errorf("%d files left in the spill directory after Close (first: %s)", len(left), left[0].Name())
	}
	return nil
}
