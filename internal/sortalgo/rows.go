package sortalgo

import "bytes"

// Rows is an array of fixed-width byte rows stored back to back in one flat
// buffer, sorted in place by physically moving rows. This is the normalized
// key representation: equal-width keys can be swapped in place, avoiding the
// indirection of sorting indices or pointers, which is where the row
// format's cache locality comes from.
//
// Compare defaults to bytes.Compare (the memcmp analog). The DuckDB-style
// sorter installs a comparator that falls back to full string comparison
// when truncated string prefixes tie.
type Rows struct {
	Data    []byte
	Width   int
	Compare func(a, b []byte) int

	tmp   []byte // scratch row for swaps
	pivot []byte // scratch row for partition pivots
}

// NewRows wraps data as rows of the given width. len(data) must be a
// multiple of width.
func NewRows(data []byte, width int) *Rows {
	if width <= 0 || len(data)%width != 0 {
		panic("sortalgo: rows data length must be a positive multiple of width")
	}
	return &Rows{Data: data, Width: width}
}

// Len returns the number of rows.
func (r *Rows) Len() int {
	if r.Width == 0 {
		return 0
	}
	return len(r.Data) / r.Width
}

// Row returns the byte slice of row i, aliasing the underlying buffer.
func (r *Rows) Row(i int) []byte {
	return r.Data[i*r.Width : (i+1)*r.Width]
}

func (r *Rows) cmp(a, b []byte) int {
	if r.Compare != nil {
		return r.Compare(a, b)
	}
	return bytes.Compare(a, b)
}

func (r *Rows) less(i, j int) bool { return r.cmp(r.Row(i), r.Row(j)) < 0 }

func (r *Rows) lessRow(i int, row []byte) bool { return r.cmp(r.Row(i), row) < 0 }

func (r *Rows) rowLess(row []byte, i int) bool { return r.cmp(row, r.Row(i)) < 0 }

// Swap exchanges rows i and j by copying bytes through a scratch row.
func (r *Rows) Swap(i, j int) {
	if r.tmp == nil {
		r.tmp = make([]byte, r.Width)
	}
	a, b := r.Row(i), r.Row(j)
	copy(r.tmp, a)
	copy(a, b)
	copy(b, r.tmp)
}

// copyRow copies row src over row dst.
func (r *Rows) copyRow(dst, src int) { copy(r.Row(dst), r.Row(src)) }

// savePivot copies row i into the pivot scratch buffer and returns it.
func (r *Rows) savePivot(i int) []byte {
	if r.pivot == nil {
		r.pivot = make([]byte, r.Width)
	}
	copy(r.pivot, r.Row(i))
	return r.pivot
}

// IsSorted reports whether the rows are in nondecreasing order.
func (r *Rows) IsSorted() bool {
	for i := 1; i < r.Len(); i++ {
		if r.less(i, i-1) {
			return false
		}
	}
	return true
}

// InsertionSort sorts rows [lo,hi) with insertion sort.
func (r *Rows) InsertionSort(lo, hi int) {
	for i := lo + 1; i < hi; i++ {
		for j := i; j > lo && r.less(j, j-1); j-- {
			r.Swap(j, j-1)
		}
	}
}

// Heapsort sorts rows [lo,hi) with heapsort.
func (r *Rows) Heapsort(lo, hi int) {
	n := hi - lo
	sift := func(root, n int) {
		for {
			child := 2*root + 1
			if child >= n {
				return
			}
			if child+1 < n && r.less(lo+child, lo+child+1) {
				child++
			}
			if !r.less(lo+root, lo+child) {
				return
			}
			r.Swap(lo+root, lo+child)
			root = child
		}
	}
	for i := n/2 - 1; i >= 0; i-- {
		sift(i, n)
	}
	for i := n - 1; i > 0; i-- {
		r.Swap(lo, lo+i)
		sift(0, i)
	}
}

// Introsort sorts all rows with introspective sort.
func (r *Rows) Introsort() {
	n := r.Len()
	if n < 2 {
		return
	}
	r.introsortLoop(0, n, 2*log2(n))
}

func (r *Rows) introsortLoop(lo, hi, depth int) {
	for hi-lo > insertionThreshold {
		if depth == 0 {
			r.Heapsort(lo, hi)
			return
		}
		depth--
		mid := lo + (hi-lo)/2
		r.sort3(lo, mid, hi-1)
		r.Swap(lo, mid)
		p := r.hoarePartition(lo, hi)
		if p-lo < hi-p-1 {
			r.introsortLoop(lo, p, depth)
			lo = p + 1
		} else {
			r.introsortLoop(p+1, hi, depth)
			hi = p
		}
	}
	r.InsertionSort(lo, hi)
}

// hoarePartition partitions [lo,hi) around the pivot at row lo and returns
// its final index.
func (r *Rows) hoarePartition(lo, hi int) int {
	pivot := r.savePivot(lo)
	i, j := lo+1, hi-1
	for {
		for i <= j && r.lessRow(i, pivot) {
			i++
		}
		for i <= j && !r.lessRow(j, pivot) {
			j--
		}
		if i > j {
			break
		}
		r.Swap(i, j)
		i++
		j--
	}
	r.Swap(lo, j)
	return j
}

func (r *Rows) sort3(i0, i1, i2 int) {
	if r.less(i1, i0) {
		r.Swap(i1, i0)
	}
	if r.less(i2, i1) {
		r.Swap(i2, i1)
		if r.less(i1, i0) {
			r.Swap(i1, i0)
		}
	}
}

// Pdqsort sorts all rows with pattern-defeating quicksort, the comparison
// sort DuckDB uses on normalized keys when strings are present.
func (r *Rows) Pdqsort() {
	n := r.Len()
	if n < 2 {
		return
	}
	r.pdqLoop(0, n, log2(n), true)
}

func (r *Rows) pdqLoop(lo, hi, badAllowed int, leftmost bool) {
	for {
		size := hi - lo
		if size < insertionThreshold {
			r.InsertionSort(lo, hi)
			return
		}

		s2 := size / 2
		if size > nintherThreshold {
			r.sort3(lo, lo+s2, hi-1)
			r.sort3(lo+1, lo+s2-1, hi-2)
			r.sort3(lo+2, lo+s2+1, hi-3)
			r.sort3(lo+s2-1, lo+s2, lo+s2+1)
			r.Swap(lo, lo+s2)
		} else {
			r.sort3(lo+s2, lo, hi-1)
		}

		if !leftmost && !r.less(lo-1, lo) {
			lo = r.partitionLeft(lo, hi) + 1
			continue
		}

		pivotPos, alreadyPartitioned := r.partitionRight(lo, hi)

		lSize, rSize := pivotPos-lo, hi-(pivotPos+1)
		if lSize < size/8 || rSize < size/8 {
			badAllowed--
			if badAllowed <= 0 {
				r.Heapsort(lo, hi)
				return
			}
			if lSize >= insertionThreshold {
				r.Swap(lo, lo+lSize/4)
				r.Swap(pivotPos-1, pivotPos-lSize/4)
				if lSize > nintherThreshold {
					r.Swap(lo+1, lo+lSize/4+1)
					r.Swap(lo+2, lo+lSize/4+2)
					r.Swap(pivotPos-2, pivotPos-(lSize/4+1))
					r.Swap(pivotPos-3, pivotPos-(lSize/4+2))
				}
			}
			if rSize >= insertionThreshold {
				r.Swap(pivotPos+1, pivotPos+1+rSize/4)
				r.Swap(hi-1, hi-rSize/4)
				if rSize > nintherThreshold {
					r.Swap(pivotPos+2, pivotPos+2+rSize/4)
					r.Swap(pivotPos+3, pivotPos+3+rSize/4)
					r.Swap(hi-2, hi-(1+rSize/4))
					r.Swap(hi-3, hi-(2+rSize/4))
				}
			}
		} else if alreadyPartitioned &&
			r.partialInsertion(lo, pivotPos) &&
			r.partialInsertion(pivotPos+1, hi) {
			return
		}

		r.pdqLoop(lo, pivotPos, badAllowed, leftmost)
		lo = pivotPos + 1
		leftmost = false
	}
}

func (r *Rows) partitionRight(lo, hi int) (pivotPos int, alreadyPartitioned bool) {
	// Partition calls never nest (each completes before pdqLoop recurses),
	// so the shared pivot scratch row is safe to reuse.
	pivot := r.savePivot(lo)
	first, last := lo+1, hi

	for r.lessRow(first, pivot) {
		first++
	}
	if first-1 == lo {
		for first < last {
			last--
			if r.lessRow(last, pivot) {
				break
			}
		}
	} else {
		for {
			last--
			if r.lessRow(last, pivot) {
				break
			}
		}
	}

	alreadyPartitioned = first >= last
	for first < last {
		r.Swap(first, last)
		first++
		for r.lessRow(first, pivot) {
			first++
		}
		for {
			last--
			if r.lessRow(last, pivot) {
				break
			}
		}
	}

	pivotPos = first - 1
	r.copyRow(lo, pivotPos)
	copy(r.Row(pivotPos), pivot)
	return pivotPos, alreadyPartitioned
}

func (r *Rows) partitionLeft(lo, hi int) int {
	pivot := r.savePivot(lo)
	first, last := lo, hi

	for {
		last--
		if !r.rowLess(pivot, last) {
			break
		}
	}
	if last+1 == hi {
		for first < last {
			first++
			if r.rowLess(pivot, first) {
				break
			}
		}
	} else {
		for {
			first++
			if r.rowLess(pivot, first) {
				break
			}
		}
	}

	for first < last {
		r.Swap(first, last)
		for {
			last--
			if !r.rowLess(pivot, last) {
				break
			}
		}
		for {
			first++
			if r.rowLess(pivot, first) {
				break
			}
		}
	}

	r.copyRow(lo, last)
	copy(r.Row(last), pivot)
	return last
}

func (r *Rows) partialInsertion(lo, hi int) bool {
	if lo == hi {
		return true
	}
	limit := 0
	for cur := lo + 1; cur < hi; cur++ {
		if limit > partialInsertLimit {
			return false
		}
		sift := cur
		for sift > lo && r.less(sift, sift-1) {
			r.Swap(sift, sift-1)
			sift--
		}
		limit += cur - sift
	}
	return true
}
