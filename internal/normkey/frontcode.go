package normkey

import "fmt"

// Spill-block key front coding: consecutive sorted key rows share long
// prefixes (duplicates, dictionary codes, shared-prefix elision leftovers,
// clustered values), so a spilled block can elide each row's shared leading
// key bytes against its predecessor. The encoding is block-local — row 0 is
// stored whole — so a block decodes with nothing but its own bytes, and the
// non-key tail of every row (payload reference, alignment padding) is kept
// raw so decoding is a straight copy. The sorter tries the coding only in the
// blocks of a merge pass's output, and there only where it pays: the spill
// writer samples each block with PlanFrontCoding.

// maxFrontCodePrefix is the largest shared-prefix length one byte encodes.
const maxFrontCodePrefix = 255

// sharedPrefixLen returns the length of a and b's common prefix, capped.
func sharedPrefixLen(a, b []byte, limit int) int {
	p := 0
	for p < limit && a[p] == b[p] {
		p++
	}
	return p
}

// PlanFrontCoding samples adjacent row pairs of a sorted block and returns
// the predicted encoded-to-raw size ratio (< 1 means the coding shrinks the
// block). keys holds n rows of stride rowWidth whose first keyWidth bytes
// are the compared key.
func PlanFrontCoding(keys []byte, rowWidth, keyWidth, n int) float64 {
	if n < 2 || keyWidth <= 0 || rowWidth <= 0 {
		return 1
	}
	const samplePairs = 16
	step := max(1, n/samplePairs)
	limit := min(keyWidth, maxFrontCodePrefix)
	pairs, shared := 0, 0
	for i := step; i < n; i += step {
		a := keys[(i-1)*rowWidth : (i-1)*rowWidth+keyWidth]
		b := keys[i*rowWidth : i*rowWidth+keyWidth]
		shared += sharedPrefixLen(a, b, limit)
		pairs++
	}
	if pairs == 0 {
		return 1
	}
	avg := float64(shared) / float64(pairs)
	perRow := 1 + (float64(keyWidth) - avg) + float64(rowWidth-keyWidth)
	return perRow / float64(rowWidth)
}

// AppendFrontCoded appends the front-coded encoding of n key rows to dst
// and returns the extended slice. Per row: one byte of shared-key-prefix
// length against the previous row, the remaining key bytes, then the raw
// non-key tail. The first row's prefix length is 0 (stored whole).
func AppendFrontCoded(dst, keys []byte, rowWidth, keyWidth, n int) []byte {
	limit := min(keyWidth, maxFrontCodePrefix)
	prev := []byte(nil)
	for i := 0; i < n; i++ {
		row := keys[i*rowWidth : (i+1)*rowWidth]
		p := 0
		if prev != nil {
			p = sharedPrefixLen(prev, row, limit)
		}
		dst = append(dst, byte(p))
		dst = append(dst, row[p:]...)
		prev = row
	}
	return dst
}

// DecodeFrontCoded decodes n front-coded rows from enc into dst, which must
// hold n*rowWidth bytes. It is the exact inverse of AppendFrontCoded and
// errors on truncated or oversized input.
func DecodeFrontCoded(dst, enc []byte, rowWidth, keyWidth, n int) error {
	pos := 0
	for i := 0; i < n; i++ {
		if pos >= len(enc) {
			return fmt.Errorf("normkey: front-coded block truncated at row %d", i)
		}
		p := int(enc[pos])
		pos++
		if p > keyWidth || (i == 0 && p != 0) {
			return fmt.Errorf("normkey: front-coded row %d has invalid prefix length %d", i, p)
		}
		rest := rowWidth - p
		if pos+rest > len(enc) {
			return fmt.Errorf("normkey: front-coded block truncated at row %d", i)
		}
		row := dst[i*rowWidth : (i+1)*rowWidth]
		if p > 0 {
			copy(row[:p], dst[(i-1)*rowWidth:(i-1)*rowWidth+p])
		}
		copy(row[p:], enc[pos:pos+rest])
		pos += rest
	}
	if pos != len(enc) {
		return fmt.Errorf("normkey: front-coded block has %d trailing bytes", len(enc)-pos)
	}
	return nil
}
