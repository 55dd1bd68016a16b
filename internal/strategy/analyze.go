package strategy

import (
	"bytes"
	"math"
)

// Sampling bounds: positions are picked with a multiplicative jump (Knuth's
// constant) rather than a fixed stride, so periodic inputs — a sawtooth whose period
// divides the stride — cannot alias with the sampling.
const (
	maxSamples = 256 // rows sampled for sketches, varying bytes, local pairs
	maxPairs   = 128 // sampled index pairs for the global inversion estimate

	// confirmPairs is the denser adjacent-pair scan a perfect-looking sample
	// must survive before it reports Sortedness == 1. pdqsort's pattern
	// detector only pays on runs with essentially zero displaced rows
	// (measured: it loses to radix at even 0.01% disorder), and 256 pairs
	// cannot distinguish fully sorted from 0.1% disorder — a clean base
	// sample is ~22% likely there. 2048 pairs push the false-perfect odds
	// below 2% at that disorder while costing only byte compares.
	confirmPairs = 2048
)

// MaxSegments caps the per-key-segment cardinality sketches an analyzer
// keeps; keys with more segments fold the tail into the last sketch.
const MaxSegments = 4

// Stats is one run's sampled distribution: everything the planner needs to
// predict the sort-cost crossover. All fields are fixed-size, so an
// Analyzer produces one without allocating.
type Stats struct {
	// Rows is the run's row count; Sampled is how many rows the estimates
	// are based on.
	Rows, Sampled int
	// Sortedness is the order estimate used for decisions:
	// min(LocalSorted, GlobalSorted). LocalSorted is the fraction of
	// sampled adjacent pairs in nondecreasing order (what an insertion
	// pass sees); GlobalSorted is the fraction of sampled index pairs
	// (i < j) with key_i <= key_j — 1 minus the inversion density. A
	// sawtooth is locally sorted but globally ~0.5, so taking the min is
	// what keeps the estimator honest on adversarial ramps.
	Sortedness, LocalSorted, GlobalSorted float64
	// EffectiveBytes is the number of key byte positions that vary across
	// the sample (radix passes that scatter; constant positions are
	// skipped). FirstVarying is the first such position, -1 when all
	// sampled keys are equal.
	EffectiveBytes, FirstVarying int
	// DistinctEstimate is the HLL full-key cardinality estimate over the
	// sample, linearly extrapolated to the run; DistinctRatio is it over
	// Rows, clamped to (0, 1].
	DistinctEstimate float64
	DistinctRatio    float64
	// FirstByteEntropy is the Shannon entropy (bits) of the first varying
	// key byte across the sample: low for dictionary-coded or skewed
	// keys (few hot values), ~8 for uniform bytes. It is the skew signal.
	FirstByteEntropy float64
	// DupRunFrac is the fraction of sampled adjacent pairs whose keys are
	// byte-equal — the duplicate-group collector's payoff predictor: an
	// average adjacent group of g rows shows (g-1)/g equal pairs, so
	// DupRunFrac >= 0.5 means groups average two or more rows.
	DupRunFrac float64
	// SegDistinct holds per-key-segment HLL cardinality estimates (sample
	// scale, not extrapolated) for the first NumSegs segments.
	SegDistinct [MaxSegments]float64
	NumSegs     int
}

// Analyzer computes Stats over a run's key rows. All scratch is owned by
// the analyzer and reused across runs, so the analysis itself allocates
// nothing; create one per sink (it is not safe for concurrent use).
type Analyzer struct {
	keyWidth int
	segOffs  []int // segment start offsets within the key, ascending

	full   HLL
	seg    [MaxSegments]HLL
	counts [256]int
	varies []bool
}

// NewAnalyzer returns an analyzer for keys of the given width whose
// segments start at segOffs (ascending; may be nil for a single segment).
func NewAnalyzer(keyWidth int, segOffs []int) *Analyzer {
	a := &Analyzer{keyWidth: keyWidth, varies: make([]bool, keyWidth)}
	if len(segOffs) == 0 {
		segOffs = []int{0}
	}
	a.segOffs = append([]int(nil), segOffs...)
	return a
}

// samplePos returns the j-th sampled row index in [0, n).
func samplePos(j, n int) int {
	return int((uint64(j)*2654435761 + 12345) % uint64(n))
}

// Analyze samples the run's key rows (n rows of stride rowWidth, compared
// on their first keyWidth bytes) and returns its distribution estimates.
// It runs once per run cut — off the per-chunk ingest path — and does not
// allocate.
func (a *Analyzer) Analyze(keys []byte, rowWidth, n int) Stats {
	kw := a.keyWidth
	st := Stats{Rows: n, FirstVarying: -1}
	if n == 0 || kw == 0 {
		return st
	}
	samples := min(maxSamples, n)
	st.Sampled = samples

	a.full.Reset()
	nsegs := min(len(a.segOffs), MaxSegments)
	for s := 0; s < nsegs; s++ {
		a.seg[s].Reset()
	}
	clear(a.varies[:kw])

	first := keys[:kw]
	localPairs, localSorted, dupPairs := 0, 0, 0
	for j := 0; j < samples; j++ {
		i := samplePos(j, n)
		row := keys[i*rowWidth : i*rowWidth+kw]
		a.full.Add(HashBytes(row))
		for s := 0; s < nsegs; s++ {
			end := kw
			if s+1 < nsegs {
				end = a.segOffs[s+1]
			}
			a.seg[s].Add(HashBytes(row[a.segOffs[s]:end]))
		}
		for b := 0; b < kw; b++ {
			if row[b] != first[b] {
				a.varies[b] = true
			}
		}
		if i+1 < n {
			next := keys[(i+1)*rowWidth : (i+1)*rowWidth+kw]
			localPairs++
			switch bytes.Compare(row, next) {
			case -1:
				localSorted++
			case 0:
				localSorted++
				dupPairs++
			}
		}
	}

	for b := 0; b < kw; b++ {
		if a.varies[b] {
			st.EffectiveBytes++
			if st.FirstVarying < 0 {
				st.FirstVarying = b
			}
		}
	}
	if localPairs > 0 {
		st.LocalSorted = float64(localSorted) / float64(localPairs)
		st.DupRunFrac = float64(dupPairs) / float64(localPairs)
	}

	// Global order: sampled index pairs i < j. Equal sampled positions are
	// skipped; a fully sorted input scores 1, a sawtooth ~0.5.
	pairs, sorted := 0, 0
	for j := 0; j < maxPairs; j++ {
		p := samplePos(2*j, n)
		q := samplePos(2*j+1, n)
		if p == q {
			continue
		}
		if p > q {
			p, q = q, p
		}
		pairs++
		if bytes.Compare(keys[p*rowWidth:p*rowWidth+kw], keys[q*rowWidth:q*rowWidth+kw]) <= 0 {
			sorted++
		}
	}
	if pairs > 0 {
		st.GlobalSorted = float64(sorted) / float64(pairs)
	} else {
		st.GlobalSorted = st.LocalSorted
	}
	st.Sortedness = math.Min(st.LocalSorted, st.GlobalSorted)

	// A perfect sample is a strong claim — strong enough to route the run to
	// a comparison sort — so confirm it against a denser adjacent-pair scan
	// before letting Sortedness report exactly 1.
	if st.Sortedness == 1 && n > 2 {
		st.LocalSorted = a.confirmSorted(keys, rowWidth, n)
		st.Sortedness = math.Min(st.LocalSorted, st.GlobalSorted)
	}

	// Cardinality: the sketch saw the sample; extrapolate linearly to the
	// run (a sample without repeats is evidence of high cardinality, one
	// dominated by repeats caps the estimate at the repeat structure).
	sampleDistinct := a.full.Estimate()
	if sampleDistinct > float64(samples) {
		sampleDistinct = float64(samples)
	}
	st.DistinctEstimate = sampleDistinct * float64(n) / float64(samples)
	if st.DistinctEstimate > float64(n) {
		st.DistinctEstimate = float64(n)
	}
	st.DistinctRatio = st.DistinctEstimate / float64(n)
	if st.DistinctRatio <= 0 {
		st.DistinctRatio = 1 / float64(n)
	}
	st.NumSegs = nsegs
	for s := 0; s < nsegs; s++ {
		est := a.seg[s].Estimate()
		if est > float64(samples) {
			est = float64(samples)
		}
		st.SegDistinct[s] = est
	}

	// Entropy of the first varying byte over the same sampled rows (a
	// second walk over <= maxSamples positions, still zero-alloc).
	if st.FirstVarying >= 0 {
		clear(a.counts[:])
		for j := 0; j < samples; j++ {
			i := samplePos(j, n)
			a.counts[keys[i*rowWidth+st.FirstVarying]]++
		}
		h := 0.0
		for _, c := range a.counts {
			if c == 0 {
				continue
			}
			p := float64(c) / float64(samples)
			h -= p * math.Log2(p)
		}
		st.FirstByteEntropy = h
	}
	return st
}

// confirmSorted rechecks adjacent-pair order with up to confirmPairs pairs
// (all of them when the run is small enough) and returns the in-order
// fraction. Zero-alloc, byte compares only.
func (a *Analyzer) confirmSorted(keys []byte, rowWidth, n int) float64 {
	kw := a.keyWidth
	pairs := n - 1
	sorted := 0
	if pairs <= confirmPairs {
		for i := 0; i < pairs; i++ {
			if bytes.Compare(keys[i*rowWidth:i*rowWidth+kw],
				keys[(i+1)*rowWidth:(i+1)*rowWidth+kw]) <= 0 {
				sorted++
			}
		}
	} else {
		pairs = confirmPairs
		for j := 0; j < confirmPairs; j++ {
			i := samplePos(j, n-1)
			if bytes.Compare(keys[i*rowWidth:i*rowWidth+kw],
				keys[(i+1)*rowWidth:(i+1)*rowWidth+kw]) <= 0 {
				sorted++
			}
		}
	}
	return float64(sorted) / float64(pairs)
}
