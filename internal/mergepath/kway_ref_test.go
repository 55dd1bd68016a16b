package mergepath

import (
	"bytes"
	"fmt"
	"math/rand"
	"sort"
	"testing"
)

// The reference loser tree: the kernel as it stood before the tree was
// rewritten around packed code|run words (kway.go). Codes live in the
// cursors, come precomputed per run (refComputeOVC), and every match
// dereferences both cursors. It is kept test-only as the oracle the
// differential test compares the production Merger against — output bytes
// and every Stats counter. It follows the production tree in one change made
// since: a one-run tree plays no match and counts no duplicate-run hit.

// refComputeOVC returns the within-run codes of r: codes[i] is row i relative
// to row i-1. codes[0] is left zero — the tree never reads the code of a
// run's first row (the initial tournament is played with full comparisons);
// block readers overwrite it with the cross-block carry.
func refComputeOVC(r Run, keyWidth int) []uint32 {
	n := r.Len()
	codes := make([]uint32, n)
	for i := 1; i < n; i++ {
		codes[i] = OVCCode(r.Row(i-1), r.Row(i), keyWidth)
	}
	return codes
}

// refCursor is one run's read position in the tournament.
type refCursor struct {
	run   Run
	codes []uint32
	pos   int
	code  uint32 // current row's code relative to this path's last winner
	done  bool
}

// refMerger is a k-way loser-tree merge over sorted runs. With keyWidth > 0 it
// compares offset-value codes first and row bytes only on code ties, calling
// tie for byte-equal keys (nil means byte-equal rows are equal); with
// keyWidth == 0 it plays every match with tie as the full comparator (nil
// means bytes.Compare). Ties resolve to the lower run index, so the merge is
// stable across runs either way.
//
// keyWidth must be a byte-decisive prefix: whenever two rows differ within
// their first keyWidth bytes, that byte order must be the sort order, and
// tie must totally order byte-equal prefixes. A caller whose byte order
// stops being decisive mid-key (e.g. a truncated varchar segment followed
// by more key columns) must pass the width up to that segment's end, not
// the full key width, with tie as the remaining comparator.
type refMerger struct {
	cur      []refCursor
	tree     []int32 // tree[1..k-1]: losers; leaf of run r is node r+k
	k        int
	keyWidth int // 0 disables offset-value coding
	tie      CompareFunc
	refill   func(r int) (Run, []uint32, bool)
	stats    Stats
	winner   int
	started  bool
}

// newRefMerger builds the tournament over runs. codes may be nil when
// keyWidth == 0; otherwise codes[r] must be refComputeOVC(runs[r], keyWidth)
// (or a block's codes with the cross-block carry in codes[0]).
func newRefMerger(runs []Run, keyWidth int, codes [][]uint32, tie CompareFunc) *refMerger {
	m := &refMerger{k: len(runs), keyWidth: keyWidth, tie: tie, winner: -1}
	if keyWidth == 0 {
		m.tie = cmpOrDefault(tie)
	}
	m.cur = make([]refCursor, m.k)
	for i := range runs {
		c := refCursor{run: runs[i], done: runs[i].Len() == 0}
		if codes != nil {
			c.codes = codes[i]
		}
		m.cur[i] = c
	}
	if m.k == 0 {
		return m
	}
	m.tree = make([]int32, m.k)
	m.winner = m.build(1)
	return m
}

// SetRefill installs the streaming callback: when run r's current block is
// exhausted, refill may hand the merger r's next block (with codes[0] set
// relative to the block's last output row) instead of retiring the run.
func (m *refMerger) SetRefill(f func(r int) (Run, []uint32, bool)) { m.refill = f }

// Stats returns the merge counters accumulated so far.
func (m *refMerger) Stats() Stats { return m.stats }

// build plays the initial tournament under node with full comparisons,
// storing losers (with codes relative to their defeater) and returning the
// subtree winner. Leaves are nodes k..2k-1; node i's children are 2i, 2i+1.
func (m *refMerger) build(node int) int {
	if node >= m.k {
		return node - m.k
	}
	w, l := m.fullMatch(m.build(2*node), m.build(2*node+1))
	m.tree[node] = int32(l)
	return w
}

// Next returns the next output row: its run index, its position within that
// run's current block, and the row bytes (aliasing the run buffer — consume
// before the following Next, which may refill the block). The previous
// winner is advanced lazily here, so a streaming caller can flush work that
// references the old block from inside its refill callback.
func (m *refMerger) Next() (run, pos int, row []byte, ok bool) {
	if m.started {
		m.advance(m.winner)
	} else {
		m.started = true
	}
	if m.winner < 0 || m.cur[m.winner].done {
		return 0, 0, nil, false
	}
	c := &m.cur[m.winner]
	return m.winner, c.pos, c.run.Row(c.pos), true
}

// advance steps run r to its next row (refilling or retiring it at block
// end) and replays the matches from r's leaf to the root.
func (m *refMerger) advance(r int) {
	c := &m.cur[r]
	c.pos++
	if c.pos >= c.run.Len() {
		c.done = true
		if m.refill != nil {
			if nr, codes, ok := m.refill(r); ok && nr.Len() > 0 {
				c.run, c.codes, c.pos, c.done = nr, codes, 0, false
				if m.keyWidth > 0 {
					c.code = codes[0]
				}
			}
		}
	} else if m.keyWidth > 0 {
		c.code = c.codes[c.pos]
	}
	// One run: its next row wins with no match played and no hit counted.
	if m.k == 1 {
		m.winner = r
		return
	}
	// Duplicate-run fast path: a within-run (or cross-block carry) code of 0
	// means the new row is byte-equal to the row just emitted. That row beat
	// every other candidate, and with no tie-break byte-equal rows from a
	// higher run index cannot outrank it (ties go to the lower run), so the
	// winner keeps the tournament — no matches replayed. Loser codes stay
	// valid: they are relative to the old winner's bytes, which the new
	// winner repeats. With a tie-break installed byte-equal rows may still
	// order semantically, so the tree must replay.
	if m.keyWidth > 0 && m.tie == nil && !c.done && c.code == 0 {
		m.stats.DupRunHits++
		m.winner = r
		return
	}
	x := r
	for node := (r + m.k) / 2; node >= 1; node /= 2 {
		w, l := m.match(x, int(m.tree[node]))
		m.tree[node] = int32(l)
		x = w
	}
	m.winner = x
}

// match plays candidate a against stored loser b, both codes relative to
// the same base by the tree invariant. It returns (winner, loser) and
// updates the loser's code to be relative to the winner when the bytes
// decided or tied.
func (m *refMerger) match(a, b int) (w, l int) {
	ca, cb := &m.cur[a], &m.cur[b]
	if ca.done {
		return b, a
	}
	if cb.done {
		return a, b
	}
	if m.keyWidth == 0 {
		m.stats.Comparisons++
		m.stats.FullCompares++
		c := m.tie(ca.run.Row(ca.pos), cb.run.Row(cb.pos))
		if c < 0 || (c == 0 && a < b) {
			return a, b
		}
		return b, a
	}
	m.stats.Comparisons++
	if ca.code != cb.code {
		// Codes relative to a common base order like the rows: the loser
		// keeps its code, which stays valid relative to the new winner.
		m.stats.OVCHits++
		if ca.code < cb.code {
			return a, b
		}
		return b, a
	}
	m.stats.FullCompares++
	ra, rb := ca.run.Row(ca.pos), cb.run.Row(cb.pos)
	j := m.keyWidth // equal zero codes: both rows equal the base
	if ca.code != 0 {
		// Equal nonzero codes: both rows match the base up to and including
		// the offset byte, so they can first differ just past it.
		j = m.keyWidth - int(ca.code>>8) + 1
		for j < m.keyWidth && ra[j] == rb[j] {
			j++
		}
	}
	if j < m.keyWidth {
		if ra[j] < rb[j] {
			cb.code = uint32(m.keyWidth-j)<<8 | uint32(rb[j])
			return a, b
		}
		ca.code = uint32(m.keyWidth-j)<<8 | uint32(ra[j])
		return b, a
	}
	var c int
	if m.tie != nil {
		m.stats.TieBreaks++
		c = m.tie(ra, rb)
	}
	if c < 0 || (c == 0 && a < b) {
		cb.code = 0
		return a, b
	}
	ca.code = 0
	return b, a
}

// fullMatch is match with the codes ignored: the initial tournament has no
// common base yet, so it compares bytes from offset 0 and seeds the losers'
// codes relative to their defeaters.
func (m *refMerger) fullMatch(a, b int) (w, l int) {
	ca, cb := &m.cur[a], &m.cur[b]
	if ca.done {
		return b, a
	}
	if cb.done {
		return a, b
	}
	m.stats.Comparisons++
	m.stats.FullCompares++
	if m.keyWidth == 0 {
		c := m.tie(ca.run.Row(ca.pos), cb.run.Row(cb.pos))
		if c < 0 || (c == 0 && a < b) {
			return a, b
		}
		return b, a
	}
	ra, rb := ca.run.Row(ca.pos), cb.run.Row(cb.pos)
	j := 0
	for j < m.keyWidth && ra[j] == rb[j] {
		j++
	}
	if j < m.keyWidth {
		if ra[j] < rb[j] {
			cb.code = uint32(m.keyWidth-j)<<8 | uint32(rb[j])
			return a, b
		}
		ca.code = uint32(m.keyWidth-j)<<8 | uint32(ra[j])
		return b, a
	}
	var c int
	if m.tie != nil {
		m.stats.TieBreaks++
		c = m.tie(ra, rb)
	}
	if c < 0 || (c == 0 && a < b) {
		cb.code = 0
		return a, b
	}
	ca.code = 0
	return b, a
}

// refKWayMergeOVC is KWayMergeOVC over the reference tree.
func refKWayMergeOVC(dst []byte, runs []Run, keyWidth int, tie CompareFunc) Stats {
	var codes [][]uint32
	if keyWidth > 0 {
		codes = make([][]uint32, len(runs))
		for r := range runs {
			codes[r] = refComputeOVC(runs[r], keyWidth)
		}
	}
	m := newRefMerger(runs, keyWidth, codes, tie)
	w := runWidth(runs)
	k := 0
	for {
		_, _, row, ok := m.Next()
		if !ok {
			break
		}
		copy(dst[k*w:], row)
		k++
	}
	m.stats.BytesMoved += uint64(k * w)
	return m.stats
}

// diffRuns builds k runs of width-byte rows whose first kw bytes are keys
// over a small alphabet (long shared prefixes, many duplicates; one byte
// value when allEqual) and whose remaining bytes are random, each run sorted
// by the full row so it is sorted under every comparator the test installs.
// Run 0 is empty and run 1 has a single row when k allows.
func diffRuns(rng *rand.Rand, k, kw, width int, allEqual bool) []Run {
	runs := make([]Run, k)
	for r := range runs {
		n := rng.Intn(120)
		switch {
		case k > 2 && r == 0:
			n = 0
		case k > 2 && r == 1:
			n = 1
		}
		rows := make([][]byte, n)
		for i := range rows {
			row := make([]byte, width)
			rng.Read(row[kw:])
			for j := 0; j < kw; j++ {
				if !allEqual {
					row[j] = byte(rng.Intn(2)) * 0x80
				}
			}
			rows[i] = row
		}
		sort.Slice(rows, func(i, j int) bool { return bytes.Compare(rows[i], rows[j]) < 0 })
		runs[r] = Run{Data: bytes.Join(rows, nil), Width: width}
	}
	return runs
}

// TestMergerMatchesReference is the differential test for the packed-word
// tree: output bytes and all five counters equal the reference tree's, with
// the runs fed whole and in blocks, across fan-ins on both sides of a power
// of two, key widths on both sides of a word boundary, rows with and without
// slack after the key, the tie comparator on and off, and coding on and off.
func TestMergerMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(59))
	for _, k := range []int{1, 2, 3, 5, 16, 17, 64} {
		for _, kw := range []int{1, 7, 8, 9, 16, 17, 26} {
			for _, width := range []int{kw, (kw + 8 + 7) &^ 7} {
				for _, allEqual := range []bool{false, true} {
					runs := diffRuns(rng, k, kw, width, allEqual)
					total := 0
					for _, r := range runs {
						total += r.Len()
					}
					prefix := func(a, b []byte) int { return bytes.Compare(a[:kw], b[:kw]) }
					for _, tc := range []struct {
						name     string
						keyWidth int
						tie      CompareFunc
					}{
						{"ovc", kw, nil},
						{"ovc+tie", kw, bytes.Compare},
						{"plain", 0, prefix},
						{"plain+tie", 0, bytes.Compare},
					} {
						ctx := fmt.Sprintf("k=%d kw=%d width=%d allEqual=%v %s", k, kw, width, allEqual, tc.name)
						want := make([]byte, total*width)
						wantSt := refKWayMergeOVC(want, runs, tc.keyWidth, tc.tie)
						got := make([]byte, total*width)
						if st := KWayMergeOVC(got, runs, tc.keyWidth, nil, ByRows(tc.tie)); st != wantSt {
							t.Fatalf("%s: stats %+v, reference %+v", ctx, st, wantSt)
						}
						if !bytes.Equal(got, want) {
							t.Fatalf("%s: output differs from the reference tree", ctx)
						}
						for _, blockRows := range []int{1, 2, 4096} {
							got, st := blockedMerge(runs, tc.keyWidth, ByRows(tc.tie), blockRows)
							if st != wantSt {
								t.Fatalf("%s blockRows=%d: stats %+v, reference %+v", ctx, blockRows, st, wantSt)
							}
							if !bytes.Equal(got, want) {
								t.Fatalf("%s blockRows=%d: output differs from the reference tree", ctx, blockRows)
							}
						}
					}
				}
			}
		}
	}
}

// TestWordCompareMasksTrailingBytes: the word-wise code loads 8 bytes at a
// time and so reads past a key that does not end on a word boundary. Rows
// with equal keys and different trailing reference bytes must still code 0
// (every successor leaves through the duplicate-run fast path), for every
// position of the key's end within its last word.
func TestWordCompareMasksTrailingBytes(t *testing.T) {
	for kw := 1; kw <= 17; kw++ {
		width := (kw + 8 + 7) &^ 7
		const n = 9
		run := Run{Data: make([]byte, n*width), Width: width}
		for i := 0; i < n; i++ {
			row := run.Row(i)
			for j := 0; j < kw; j++ {
				row[j] = 0xA5
			}
			for j := kw; j < width; j++ {
				row[j] = byte(i*31 + j) // differs from the previous row at every trailing byte
			}
		}
		dst := make([]byte, n*width)
		st := KWayMergeOVC(dst, []Run{run, {Width: width}}, kw, nil, nil)
		if !bytes.Equal(dst, run.Data) {
			t.Fatalf("kw=%d: single-run merge changed the rows", kw)
		}
		if st.DupRunHits != n-1 {
			t.Fatalf("kw=%d: DupRunHits = %d, want %d — trailing bytes leaked into the code", kw, st.DupRunHits, n-1)
		}
	}
}

// TestNoSlackRowsStayInBounds: a run whose Width equals keyWidth has no
// bytes after the key, so an 8-byte load at the key's last word would leave
// the row and, for a block's last row, the buffer (a panic: the loads are
// bounds-checked). Such runs must take the byte-wise code and still merge
// like the reference.
func TestNoSlackRowsStayInBounds(t *testing.T) {
	rng := rand.New(rand.NewSource(60))
	for _, kw := range []int{1, 3, 7, 9, 13, 26} {
		runs := diffRuns(rng, 5, kw, kw, false)
		total := 0
		for _, r := range runs {
			total += r.Len()
		}
		want := make([]byte, total*kw)
		wantSt := refKWayMergeOVC(want, runs, kw, nil)
		got := make([]byte, total*kw)
		if st := KWayMergeOVC(got, runs, kw, nil, nil); st != wantSt || !bytes.Equal(got, want) {
			t.Fatalf("kw=%d: no-slack merge differs from the reference (stats %+v, want %+v)", kw, st, wantSt)
		}
	}
}
