// Package mergepath implements the merge phase of the sorting pipeline.
//
// The primary merge is a single-pass k-way tournament (loser tree) over all
// sorted runs at once, accelerated with offset-value coding (see kway.go):
// most tree matches compare two cached integers instead of two full-width
// normalized keys, and the output is produced in one pass instead of the
// O(log k) copy passes of a cascaded 2-way merge. Parallelism comes from a
// k-way generalization of Merge Path (Green, Odeh and Birk): KWaySplit cuts
// the merged output at exact ranks with binary searches, so each thread
// merges a disjoint slice of every run into a disjoint slice of the output,
// byte-identical to the scalar merge. The threads are the caller's (core's
// result iterator hands such slices to its workers); this package only cuts.
//
// The 2-way primitives (SplitPoint, MergeInto, ParallelMerge) and the
// cascaded CascadeMerge are the paper's Merge Path merge. The sorter does not
// call them: BenchmarkParallelMerge times the 2-way merge, and the k-way
// trees' tests use the cascade as their oracle.
package mergepath

import (
	"bytes"
	"sync"
)

// Run is a sorted run of fixed-width rows.
type Run struct {
	Data  []byte
	Width int
}

// Len returns the number of rows in the run.
func (r Run) Len() int {
	if r.Width == 0 {
		return 0
	}
	return len(r.Data) / r.Width
}

// Row returns row i, aliasing the run's buffer.
func (r Run) Row(i int) []byte { return r.Data[i*r.Width : (i+1)*r.Width] }

// CompareFunc compares two rows; nil means bytes.Compare.
type CompareFunc func(a, b []byte) int

func cmpOrDefault(cmp CompareFunc) CompareFunc {
	if cmp == nil {
		return bytes.Compare
	}
	return cmp
}

// SplitPoint returns the Merge Path split (i, j) with i+j = d such that a
// stable merge of a and b outputs exactly a[:i] and b[:j] as its first d
// rows (rows of a preferred on ties). It runs one binary search along the
// d-th cross diagonal.
func SplitPoint(a, b Run, d int, cmp CompareFunc) (i, j int) {
	c := cmpOrDefault(cmp)
	lo, hi := max(0, d-b.Len()), min(d, a.Len())
	for lo < hi {
		m := int(uint(lo+hi) >> 1)
		// Take more from a while b[d-m-1] is not strictly before a[m].
		if c(b.Row(d-m-1), a.Row(m)) < 0 {
			hi = m
		} else {
			lo = m + 1
		}
	}
	return lo, d - lo
}

// MergeInto merges runs a and b into dst, which must hold exactly
// a.Len()+b.Len() rows. The merge is stable: ties take from a first. Each
// output row requires one full-row comparison, which is why the paper's
// interpreted engine compares whole normalized keys with one memcmp here
// rather than per-column callbacks.
func MergeInto(dst []byte, a, b Run, cmp CompareFunc) {
	c := cmpOrDefault(cmp)
	w := a.Width
	la, lb := a.Len(), b.Len()
	i, j, k := 0, 0, 0
	for i < la && j < lb {
		if c(b.Row(j), a.Row(i)) < 0 {
			copy(dst[k*w:], b.Row(j))
			j++
		} else {
			copy(dst[k*w:], a.Row(i))
			i++
		}
		k++
	}
	if i < la {
		copy(dst[k*w:], a.Data[i*w:])
	}
	if j < lb {
		copy(dst[k*w:], b.Data[j*w:])
	}
}

// ParallelMerge merges a and b into dst using up to p goroutines, splitting
// the output into p near-equal partitions with SplitPoint. dst must hold
// a.Len()+b.Len() rows.
func ParallelMerge(dst []byte, a, b Run, cmp CompareFunc, p int) {
	total := a.Len() + b.Len()
	if p < 2 || total < 2*p {
		MergeInto(dst, a, b, cmp)
		return
	}
	w := a.Width
	var wg sync.WaitGroup
	prevI, prevJ := 0, 0
	for part := 1; part <= p; part++ {
		d := part * total / p
		var i, j int
		if part == p {
			i, j = a.Len(), b.Len()
		} else {
			i, j = SplitPoint(a, b, d, cmp)
		}
		ai, aj := prevI, prevJ
		bi, bj := i, j
		out := dst[(ai+aj)*w : (bi+bj)*w]
		subA := Run{Data: a.Data[ai*w : bi*w], Width: w}
		subB := Run{Data: b.Data[aj*w : bj*w], Width: w}
		wg.Add(1)
		go func() {
			defer wg.Done()
			MergeInto(out, subA, subB, cmp)
		}()
		prevI, prevJ = i, j
	}
	wg.Wait()
}

// CascadeMerge merges sorted runs pairwise, level by level, until one run
// remains — the paper's cascaded 2-way merge sort. Early levels get their
// parallelism from merging many pairs concurrently; once pairs are scarcer
// than threads, each pair merge is itself parallelized with Merge Path, so
// parallelism does not degrade as the tree narrows. p is the total number
// of goroutines to use.
func CascadeMerge(runs []Run, cmp CompareFunc, p int) Run {
	if p < 1 {
		p = 1
	}
	for len(runs) > 1 {
		next := make([]Run, 0, (len(runs)+1)/2)
		pairs := len(runs) / 2
		perPair := max(1, p/max(1, pairs))

		type job struct {
			dst  []byte
			a, b Run
		}
		jobs := make([]job, 0, pairs)
		for i := 0; i+1 < len(runs); i += 2 {
			a, b := runs[i], runs[i+1]
			dst := make([]byte, len(a.Data)+len(b.Data))
			jobs = append(jobs, job{dst, a, b})
			next = append(next, Run{Data: dst, Width: a.Width})
		}
		if len(runs)%2 == 1 {
			next = append(next, runs[len(runs)-1])
		}

		// Run at most p pair merges at once; each may use perPair workers.
		sem := make(chan struct{}, max(1, p))
		var wg sync.WaitGroup
		for _, jb := range jobs {
			wg.Add(1)
			sem <- struct{}{}
			go func(jb job) {
				defer wg.Done()
				defer func() { <-sem }()
				ParallelMerge(jb.dst, jb.a, jb.b, cmp, perPair)
			}(jb)
		}
		wg.Wait()
		runs = next
	}
	if len(runs) == 0 {
		return Run{}
	}
	return runs[0]
}

// KWayMerge merges k sorted runs into dst with a loser-tree tournament, as
// the modeled ClickHouse/HyPer/Umbra merge phases do. It is stable across
// runs (ties resolve to the lower run index). dst must hold the total number
// of rows. Each output row costs one leaf-to-root replay of ceil(log2 k)
// matches; see KWayMergeOVC for the offset-value-coded variant that avoids
// the full-width comparison in most matches.
func KWayMerge(dst []byte, runs []Run, cmp CompareFunc) {
	m := NewMerger(runs, 0, cmp)
	drainMerger(m, dst, runWidth(runs))
}
