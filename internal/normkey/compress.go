// Compressed normalized keys (ROADMAP item 2, after Kwon et al.,
// "Compressed Key Sort and Fast Index Reconstruction"): a cheap ingest-time
// sample drives per-column encoding decisions that shrink the normalized key
// while preserving byte-wise order. Three encodings exist beyond the full
// encoding:
//
//   - Dictionary (varchar): the sorted distinct sample d_0 < … < d_{m-1}
//     maps to odd "exact" codes 2i+1; values outside the sample escape to
//     the even gap code between their neighbors (0 below d_0, 2i between
//     d_{i-1} and d_i, 2m above d_{m-1}). Exact codes order exactly; escaped
//     values order correctly against every exact value and tie only with
//     other escapes in the same gap, which the sorter's semantic tie-break
//     resolves. Odd codes never collide with even ones, so an exact value
//     never ties with anything unequal.
//
//   - Prefix truncation: the key keeps only the sampled discriminating
//     prefix of its order-preserving encoding. Dropping a suffix of an
//     order-preserving encoding is an order-preserving coarsening — unequal
//     values can only become ties, never inversions — so a full-key
//     tie-break makes it exact.
//
//   - Shared-prefix elision (a truncation variant): when every sampled
//     value starts with the same prefix P, the segment spends one class
//     byte (0: value < every P-prefixed string, 1: value starts with P,
//     2: value > every P-prefixed string) and then encodes the value with P
//     removed for class 1, or its leading bytes for the escape classes.
//     Class order is correct absolutely; within-class order is the usual
//     prefix coarsening.
//
// Every lossy possibility is reported per encoded chunk (EncodeStats) so
// the sorter enables its tie-break only for runs that need it.
package normkey

import (
	"fmt"
	"sort"
	"strings"

	"rowsort/internal/vector"
)

// ColumnEncoding identifies how one key column's segment is encoded.
type ColumnEncoding uint8

// The segment encodings.
const (
	// EncFull is the uncompressed encoding of normkey.go.
	EncFull ColumnEncoding = iota
	// EncDict encodes varchar values as order-preserving dictionary codes
	// with escape gaps for out-of-dictionary values.
	EncDict
	// EncTrunc keeps a discriminating prefix of the full encoding,
	// optionally eliding a sampled shared prefix first (Skip != "").
	EncTrunc
)

// String names the encoding.
func (e ColumnEncoding) String() string {
	switch e {
	case EncDict:
		return "dict"
	case EncTrunc:
		return "trunc"
	default:
		return "full"
	}
}

// MaxDictLen caps the number of dictionary entries a plan will build.
// 2*4096 codes still fit a two-byte segment with room to spare.
const MaxDictLen = 4096

// Dictionary is an order-preserving code assignment built from a sorted
// distinct sample of collated values.
type Dictionary struct {
	// Values holds the distinct sample, collated and ascending.
	Values []string
	width  int
}

// NewDictionary builds a dictionary from sorted distinct collated values.
func NewDictionary(values []string) (*Dictionary, error) {
	if len(values) == 0 || len(values) > MaxDictLen {
		return nil, fmt.Errorf("normkey: dictionary wants 1..%d values, got %d", MaxDictLen, len(values))
	}
	for i := 1; i < len(values); i++ {
		if values[i-1] >= values[i] {
			return nil, fmt.Errorf("normkey: dictionary values not sorted distinct at %d", i)
		}
	}
	w := 1
	if 2*len(values) > 0xFF {
		w = 2
	}
	return &Dictionary{Values: values, width: w}, nil
}

// Width returns the code width in bytes (1 or 2).
func (d *Dictionary) Width() int { return d.width }

// Code maps a collated value to its order-preserving code. exact reports
// whether s is a dictionary member; escaped codes may tie with other values
// in the same gap and need a semantic tie-break.
func (d *Dictionary) Code(s string) (code uint16, exact bool) {
	// Hand-rolled lower bound: first index with Values[i] >= s.
	lo, hi := 0, len(d.Values)
	for lo < hi {
		mid := int(uint(lo+hi) >> 1)
		if d.Values[mid] < s {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	if lo < len(d.Values) && d.Values[lo] == s {
		return uint16(2*lo + 1), true
	}
	return uint16(2 * lo), false
}

// ColumnPlan is the sampled encoding decision for one key column.
type ColumnPlan struct {
	// Enc selects the segment encoding.
	Enc ColumnEncoding
	// Dict is the dictionary for EncDict columns.
	Dict *Dictionary
	// Skip is the sampled shared prefix elided by EncTrunc (collated
	// string bytes for varchar, full-encoding bytes for fixed types).
	// Empty means plain prefix truncation.
	Skip string
	// Width is the emitted value width in bytes, excluding the validity
	// byte but including the class byte when Skip is non-empty.
	Width int
}

// valueWidth returns the emitted value bytes for key k under this plan.
func (cp ColumnPlan) valueWidth(k SortKey) int {
	if cp.Enc == EncFull {
		return k.segWidth() - 1
	}
	return cp.Width
}

// canTie reports whether this column's segment may byte-tie between
// semantically unequal values. Full fixed-width segments cannot; everything
// lossy can. An EncTrunc fixed segment whose class-1 arm keeps the whole
// remaining encoding is exact for in-dictionary-range values, but escape
// classes may still tie, so it stays tie-capable.
func (cp ColumnPlan) canTie(k SortKey) bool {
	switch cp.Enc {
	case EncDict, EncTrunc:
		return true
	default:
		return k.Type == vector.Varchar
	}
}

// exactSuffix reports whether an EncTrunc fixed-type class-1 encoding keeps
// the entire remaining value encoding, making byte-equal class-1 segments
// semantically equal (the comparator may skip the tie-break for them).
func (cp ColumnPlan) exactSuffix(k SortKey) bool {
	if cp.Enc != EncTrunc || len(cp.Skip) == 0 || k.Type == vector.Varchar {
		return false
	}
	return len(cp.Skip)+(cp.Width-1) == k.Type.Width()
}

// String renders the decision for stats output.
func (cp ColumnPlan) String() string {
	switch cp.Enc {
	case EncDict:
		return fmt.Sprintf("dict(n=%d,w=%d)", len(cp.Dict.Values), cp.Dict.Width())
	case EncTrunc:
		if len(cp.Skip) > 0 {
			return fmt.Sprintf("trunc(skip=%d,keep=%d)", len(cp.Skip), cp.Width-1)
		}
		return fmt.Sprintf("trunc(keep=%d)", cp.Width)
	default:
		return "full"
	}
}

// Plan is a per-column compression decision set for one sort.
type Plan struct {
	// Cols aligns with the encoder's keys.
	Cols []ColumnPlan
}

// Active reports whether any column compresses.
func (p *Plan) Active() bool {
	if p == nil {
		return false
	}
	for _, c := range p.Cols {
		if c.Enc != EncFull {
			return true
		}
	}
	return false
}

// PlanConfig tunes AnalyzeSample.
type PlanConfig struct {
	// Dict enables dictionary encoding for varchar keys.
	Dict bool
	// Trunc enables prefix truncation / shared-prefix elision.
	Trunc bool
	// MaxDictLen caps dictionary entries; 0 means MaxDictLen.
	MaxDictLen int
	// MinSample is the fewest sampled non-NULL values a column needs
	// before any compression decision; 0 means 64.
	MinSample int
}

// truncMargin is the extra discriminating byte kept beyond what the sample
// strictly needs, insurance against out-of-sample near-collisions.
const truncMargin = 1

// AnalyzeSample inspects sampled key-column vectors and returns a
// compression plan. sample[k] holds vectors of key k's column; the plan
// aligns with keys. A nil plan (no error) means nothing compresses.
func AnalyzeSample(keys []SortKey, sample [][]*vector.Vector, cfg PlanConfig) (*Plan, error) {
	if len(sample) != len(keys) {
		return nil, fmt.Errorf("normkey: sample has %d columns for %d keys", len(sample), len(keys))
	}
	if cfg.MaxDictLen <= 0 || cfg.MaxDictLen > MaxDictLen {
		cfg.MaxDictLen = MaxDictLen
	}
	if cfg.MinSample <= 0 {
		cfg.MinSample = 64
	}
	plan := &Plan{Cols: make([]ColumnPlan, len(keys))}
	for i, k := range keys {
		vals, err := gatherSample(k, sample[i])
		if err != nil {
			return nil, err
		}
		plan.Cols[i] = planColumn(k, vals, cfg)
	}
	if !plan.Active() {
		return nil, nil
	}
	return plan, nil
}

// gatherSample collects the column's valid values in collated/encoded string
// form: collated strings for varchar, full big-endian encodings for fixed
// types (whose byte order equals value order, so string comparison of the
// gathered values is value comparison).
func gatherSample(k SortKey, vecs []*vector.Vector) ([]string, error) {
	var vals []string
	var scratch [8]byte
	for _, v := range vecs {
		if v.Type() != k.Type {
			return nil, fmt.Errorf("normkey: sample column is %v, key wants %v", v.Type(), k.Type)
		}
		for r := 0; r < v.Len(); r++ {
			if !v.Valid(r) {
				continue
			}
			if k.Type == vector.Varchar {
				vals = append(vals, k.Collation.Apply(v.Strings()[r]))
			} else {
				encodeValue(k, v, r, scratch[:k.Type.Width()])
				vals = append(vals, string(scratch[:k.Type.Width()]))
			}
		}
	}
	return vals, nil
}

// planColumn decides one column's encoding from its sorted sample.
func planColumn(k SortKey, vals []string, cfg PlanConfig) ColumnPlan {
	full := ColumnPlan{Enc: EncFull}
	if len(vals) < cfg.MinSample {
		return full
	}
	sort.Strings(vals)
	distinct := dedupSorted(vals)
	if len(distinct) == 0 {
		return full
	}
	if k.Type == vector.Varchar {
		return planVarchar(k, vals, distinct, cfg)
	}
	return planFixed(k, distinct, cfg)
}

// planVarchar prefers a dictionary when the sample is low-cardinality and
// falls back to truncation / shared-prefix elision.
func planVarchar(k SortKey, vals, distinct []string, cfg PlanConfig) ColumnPlan {
	p := k.prefixLen()
	if cfg.Dict && len(distinct) <= cfg.MaxDictLen && len(distinct) <= len(vals)/4 {
		if d, err := NewDictionary(distinct); err == nil && d.Width() < p {
			return ColumnPlan{Enc: EncDict, Dict: d, Width: d.Width()}
		}
	}
	if !cfg.Trunc {
		return ColumnPlan{Enc: EncFull}
	}
	shared := commonPrefixLen(distinct[0], distinct[len(distinct)-1])
	if shared >= 4 {
		kept := 0
		if len(distinct) > 1 {
			kept = discriminatingLen(distinct, shared) + truncMargin
		}
		if kept > p {
			kept = p
		}
		if 1+kept < p {
			return ColumnPlan{Enc: EncTrunc, Skip: distinct[0][:shared], Width: 1 + kept}
		}
	}
	if len(distinct) > 1 {
		kept := discriminatingLen(distinct, 0) + truncMargin
		if kept < p {
			return ColumnPlan{Enc: EncTrunc, Width: kept}
		}
	}
	return ColumnPlan{Enc: EncFull}
}

// planFixed picks between shared-prefix elision (exact for in-range values)
// and plain prefix truncation for a fixed-width key.
func planFixed(k SortKey, distinct []string, cfg PlanConfig) ColumnPlan {
	if !cfg.Trunc {
		return ColumnPlan{Enc: EncFull}
	}
	w := k.Type.Width()
	if w < 2 {
		return ColumnPlan{Enc: EncFull}
	}
	best := ColumnPlan{Enc: EncFull}
	bestW := w
	// Shared-prefix elision: one class byte, then the whole remaining
	// encoding — class-1 values stay exact.
	shared := commonPrefixLen(distinct[0], distinct[len(distinct)-1])
	if shared >= 2 && 1+(w-shared) < bestW {
		best = ColumnPlan{Enc: EncTrunc, Skip: distinct[0][:shared], Width: 1 + (w - shared)}
		bestW = best.Width
	}
	// Plain truncation: keep the sampled discriminating prefix. Ties are
	// possible for every pair that agrees on the prefix, so demand a
	// saving of at least two bytes.
	if len(distinct) > 1 {
		kept := discriminatingLen(distinct, 0) + truncMargin
		if kept <= w-2 && kept < bestW {
			best = ColumnPlan{Enc: EncTrunc, Width: kept}
		}
	}
	return best
}

// dedupSorted compacts a sorted slice in place and returns the distinct
// prefix.
func dedupSorted(vals []string) []string {
	out := vals[:0]
	for i, v := range vals {
		if i == 0 || v != vals[i-1] {
			out = append(out, v)
		}
	}
	return out
}

// commonPrefixLen returns the length of the longest common prefix of a and b.
func commonPrefixLen(a, b string) int {
	n := len(a)
	if len(b) < n {
		n = len(b)
	}
	i := 0
	for i < n && a[i] == b[i] {
		i++
	}
	return i
}

// discriminatingLen returns the fewest bytes (beyond a shared prefix of
// length skip) that distinguish every adjacent pair of the sorted distinct
// sample: max over pairs of their common-prefix length plus one.
func discriminatingLen(distinct []string, skip int) int {
	disc := 1
	for i := 1; i < len(distinct); i++ {
		c := commonPrefixLen(distinct[i-1][skip:], distinct[i][skip:]) + 1
		if c > disc {
			disc = c
		}
	}
	return disc
}

// compareBytesStr is bytes.Compare between a byte slice and the bytes of a
// string, without converting either.
func compareBytesStr(b []byte, s string) int {
	n := len(b)
	if len(s) < n {
		n = len(s)
	}
	for i := 0; i < n; i++ {
		if b[i] != s[i] {
			if b[i] < s[i] {
				return -1
			}
			return 1
		}
	}
	switch {
	case len(b) < len(s):
		return -1
	case len(b) > len(s):
		return 1
	}
	return 0
}

// lossyString reports whether encoding s into kept zero-padded bytes can
// collide with a different string's encoding: s overflows the kept prefix,
// or contains a NUL that the zero padding cannot be distinguished from.
func lossyString(s string, kept int) bool {
	if len(s) > kept {
		return true
	}
	return strings.IndexByte(s, 0) >= 0
}
