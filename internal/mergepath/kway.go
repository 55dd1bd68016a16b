package mergepath

import (
	"bytes"
	"encoding/binary"
	"math/bits"
)

// This file implements the single-pass k-way merge: a tournament (loser)
// tree over k sorted runs, with offset-value coding (Do & Graefe) so that
// most tree matches resolve by comparing two integers instead of two
// full-width normalized keys. Its output can be cut into pieces merged
// independently: every run split at a bound row with LowerBound under the
// merge's whole order (see mergepath.go).
//
// Offset-value coding caches, per candidate row, where that row first
// differs from the key it most recently lost to (or followed within its
// run): code = (keyWidth-offset)<<8 | row[offset], and 0 when the rows are
// byte-equal. For rows that are >= the base in byte order, codes order
// exactly like the rows, so two candidates whose codes differ compare in
// O(1). Only equal codes — rows sharing their first difference against the
// common base — need bytes compared, and then only from that offset on.
//
// The tournament state is one []uint64: each entry packs a candidate as
// code<<32 | run, so a match between two candidates whose codes differ is
// one integer min/max over the packed words — no cursor is touched, no
// data-dependent branch is taken, and a run with no rows left carries the
// code ^uint32(0), above every real code, so "exhausted" needs no flag.
// Only a code tie leaves the replay loop for the row bytes. A row's
// within-run code is derived when the tree steps onto it, from the row just
// emitted (both are hot: they are about to be copied out), so callers hand
// the merger nothing but rows.
//
// The loser tree maintains the invariant that makes code comparisons valid:
// every match compares two rows whose codes are relative to the same base,
// namely the last winner that passed through that node. When a match is
// decided by code inequality the loser's code is unchanged relative to the
// new winner (the first-difference position and byte against the old base
// still hold against any row between the old base and itself); when rows tie
// on codes and the bytes decide, the loser's code is recomputed relative to
// the winner from the deciding byte.

// Stats counts merge work, exported alongside radix.Stats so ablations can
// attribute time to comparison work.
type Stats struct {
	// Comparisons is the number of two-row matches played in the tree.
	Comparisons uint64
	// OVCHits is how many matches were decided by offset-value codes alone.
	OVCHits uint64
	// FullCompares is how many matches needed row bytes (always, without OVC).
	FullCompares uint64
	// TieBreaks is how many matches fell through byte-equal keys into the
	// tie-break comparator (truncated varchar prefixes).
	TieBreaks uint64
	// DupRunHits is how many output rows were emitted by the duplicate-run
	// fast path: the winner's successor was byte-equal to the row just
	// emitted (within-run code 0), so the winner kept the tournament
	// without replaying a single match.
	DupRunHits uint64
	// BytesMoved is the output volume written by the merge.
	BytesMoved uint64
}

// Add accumulates o into s.
func (s *Stats) Add(o Stats) {
	s.Comparisons += o.Comparisons
	s.OVCHits += o.OVCHits
	s.FullCompares += o.FullCompares
	s.TieBreaks += o.TieBreaks
	s.DupRunHits += o.DupRunHits
	s.BytesMoved += o.BytesMoved
}

// OVCCode returns the offset-value code of row relative to base over the
// first keyWidth bytes: 0 when they are byte-equal, else
// (keyWidth-q)<<8 | row[q] where q is the first differing byte. For
// row >= base the code orders like the row.
func OVCCode(base, row []byte, keyWidth int) uint32 {
	for q := 0; q < keyWidth; q++ {
		if base[q] != row[q] {
			return uint32(keyWidth-q)<<8 | uint32(row[q])
		}
	}
	return 0
}

// exhausted is the code of a run with no current row. Real codes stay below
// it (keyWidth < 1<<24), so a retired run loses every match on the integer
// compare alone.
const exhausted = ^uint32(0)

// cursor is one run's read position: the current block and the row in it.
type cursor struct {
	run Run
	pos int
}

// Merger is a k-way loser-tree merge over sorted runs. With keyWidth > 0 it
// compares offset-value codes first and row bytes only on code ties, calling
// tie for byte-equal keys (nil means byte-equal rows are equal); with
// keyWidth == 0 every code is zero, so every match is a code tie played with
// tie as the full comparator (nil means bytes.Compare). tie is handed each
// candidate's run index beside its row: a caller whose rows do not carry
// their run finds what breaks the tie by it. Ties resolve to the lower run
// index, so the merge is stable across runs either way.
//
// keyWidth must be a byte-decisive prefix: whenever two rows differ within
// their first keyWidth bytes, that byte order must be the sort order, and
// tie must totally order byte-equal prefixes. A caller whose byte order
// stops being decisive mid-key (e.g. a truncated varchar segment followed
// by more key columns) must pass the width up to that segment's end, not
// the full key width, with tie as the remaining comparator.
type Merger struct {
	cur []cursor
	// tree[0] is the current winner, tree[1..k-1] each node's loser, packed
	// code<<32 | run with the code relative to the winner that last passed
	// the node. The leaf of run r is node r+k; node i's children are 2i, 2i+1.
	tree     []uint64
	k        int
	keyWidth int // 0 disables offset-value coding
	wordSpan int // keyWidth rounded up to whole 8-byte words
	tie      RunCompareFunc
	refill   func(r int) (Run, bool)
	carry    []byte // k × keyWidth: the last key of each run's previous block
	stats    Stats
	started  bool
}

// NewMerger builds the tournament over runs.
func NewMerger(runs []Run, keyWidth int, tie RunCompareFunc) *Merger {
	m := &Merger{k: len(runs), keyWidth: keyWidth, wordSpan: (keyWidth + 7) &^ 7, tie: tie}
	if keyWidth == 0 && tie == nil {
		m.tie = ByRows(bytes.Compare)
	}
	m.cur = make([]cursor, m.k)
	for i := range runs {
		m.cur[i].run = runs[i]
	}
	m.tree = make([]uint64, max(m.k, 1))
	m.tree[0] = uint64(exhausted) << 32
	if m.k > 0 {
		m.tree[0] = m.build(1)
	}
	return m
}

// SetRefill installs the streaming callback: when run r's current block is
// exhausted, refill may hand the merger r's next block (rows of the same
// width) instead of retiring the run. The merger keeps the exhausted
// block's last key itself, so the old block may be overwritten by refill.
func (m *Merger) SetRefill(f func(r int) (Run, bool)) {
	m.refill = f
	m.carry = make([]byte, m.k*m.keyWidth)
}

// Stats returns the merge counters accumulated so far.
func (m *Merger) Stats() Stats { return m.stats }

// build plays the initial tournament under node, storing losers (with codes
// relative to their defeater) and returning the subtree winner. No row has a
// base yet, so every first row enters with the code of a difference "before
// byte 0": all such codes tie, and the tie is played on the bytes from
// offset 0. A leaf without rows enters exhausted.
func (m *Merger) build(node int) uint64 {
	if node >= m.k {
		r := node - m.k
		if m.cur[r].run.Len() == 0 {
			return uint64(exhausted)<<32 | uint64(r)
		}
		return uint64(m.keyWidth+1)<<40 | uint64(r)
	}
	a, b := m.build(2*node), m.build(2*node+1)
	if (a^b)>>32 != 0 { // exactly one side has no rows
		m.tree[node] = max(a, b)
		return min(a, b)
	}
	w, l := m.byteMatch(a, b)
	m.tree[node] = l
	return w
}

// Next returns the next output row: its run index, its position within that
// run's current block, and the row bytes (aliasing the run buffer — consume
// before the following Next, which may refill the block). The previous
// winner is advanced lazily here, so a streaming caller can flush work that
// references the old block from inside its refill callback.
func (m *Merger) Next() (run, pos int, row []byte, ok bool) {
	switch {
	case !m.started:
		m.started = true
	case m.k == 1 && uint32(m.tree[0]>>32) != exhausted && (m.cur[0].pos+2)*m.cur[0].run.Width <= len(m.cur[0].run.Data):
		// One run, short of its block's end: its next row wins with no match
		// to play, and no code is derived for it.
		c := &m.cur[0]
		c.pos++
		return 0, c.pos, c.run.Row(c.pos), true
	default:
		m.advance()
	}
	win := m.tree[0]
	if uint32(win>>32) == exhausted {
		return 0, 0, nil, false
	}
	c := &m.cur[uint32(win)]
	return int(uint32(win)), c.pos, c.run.Row(c.pos), true
}

// advance steps the winner's run to its next row (refilling or retiring it
// at block end), derives that row's code from the row just emitted, and
// replays the matches from the run's leaf to the root.
func (m *Merger) advance() {
	win := m.tree[0]
	if uint32(win>>32) == exhausted {
		return
	}
	r := int(uint32(win))
	c := &m.cur[r]
	w := c.run.Width
	prev := c.run.Data[c.pos*w:]
	c.pos++
	if m.k == 1 {
		// One run at its block's end (Next steps within a block itself): the
		// code only says whether the run goes on.
		m.tree[0] = uint64(m.nextBlock(r, prev))<<32 | uint64(r)
		return
	}
	var code uint32
	switch {
	case len(prev) < 2*w:
		code = m.nextBlock(r, prev)
	case w >= m.wordSpan:
		// 8-byte big-endian words order like the bytes, and the first set
		// bit of a^b lies in the first differing byte. The last word may run
		// past the key into the row's trailing bytes (w >= wordSpan keeps
		// the load inside the row); a difference found there is not a key
		// difference.
		cur := prev[w:]
		for j := 0; j < m.keyWidth; j += 8 {
			a, b := binary.BigEndian.Uint64(prev[j:]), binary.BigEndian.Uint64(cur[j:])
			if a != b {
				if q := j + bits.LeadingZeros64(a^b)>>3; q < m.keyWidth {
					code = uint32(m.keyWidth-q)<<8 | uint32(cur[q])
				}
				break
			}
		}
	default:
		code = OVCCode(prev, prev[w:], m.keyWidth)
	}
	// Duplicate-run fast path: a within-run (or cross-block carry) code of 0
	// means the new row is byte-equal to the row just emitted. That row beat
	// every other candidate, and with no tie-break byte-equal rows from a
	// higher run index cannot outrank it (ties go to the lower run), so the
	// winner keeps the tournament — no matches replayed. Loser codes stay
	// valid: they are relative to the old winner's bytes, which the new
	// winner repeats. With a tie-break installed byte-equal rows may still
	// order semantically, so the tree must replay.
	if code == 0 && m.keyWidth > 0 && m.tie == nil {
		m.stats.DupRunHits++
		return
	}
	// Replay. Both codes at a node are relative to the same base (the last
	// winner through it), so differing codes order like the rows: the
	// smaller word moves up, the larger stays with its code unchanged —
	// still valid relative to the new winner. A match against an exhausted
	// run is not a comparison and is not counted.
	tree := m.tree
	x := uint64(code)<<32 | uint64(r)
	var hits uint64
	for node := (r + m.k) >> 1; node >= 1; node >>= 1 {
		y := tree[node]
		if (x^y)>>32 == 0 {
			x, tree[node] = m.byteMatch(x, y)
			continue
		}
		hi := max(x, y)
		x = min(x, y)
		tree[node] = hi
		hits += 1 - (hi>>32+1)>>32
	}
	tree[0] = x
	m.stats.Comparisons += hits
	m.stats.OVCHits += hits
}

// nextBlock retires run r's exhausted block, whose last row is last, and
// returns the code of the run's next row: relative to last when refill
// supplies another block, exhausted otherwise. The key is copied out before
// refill runs because refill may recycle the block's buffer.
func (m *Merger) nextBlock(r int, last []byte) uint32 {
	if m.refill == nil {
		return exhausted
	}
	carry := m.carry[r*m.keyWidth : (r+1)*m.keyWidth]
	copy(carry, last)
	nr, ok := m.refill(r)
	if !ok || nr.Len() == 0 {
		return exhausted
	}
	m.cur[r] = cursor{run: nr}
	return OVCCode(carry, nr.Data, m.keyWidth)
}

// byteMatch plays a match the codes could not decide. Equal codes relative
// to a common base mean both rows agree with the base — and each other —
// through the code's offset byte, so the bytes past it decide; byte-equal
// keys go to the tie-break and then to the lower run index. The loser
// leaves with its code relative to the winner; the winner keeps its own.
func (m *Merger) byteMatch(a, b uint64) (w, l uint64) {
	code := uint32(a >> 32)
	if code == exhausted {
		return a, b
	}
	m.stats.Comparisons++
	m.stats.FullCompares++
	ca, cb := &m.cur[uint32(a)], &m.cur[uint32(b)]
	ra, rb := ca.run.Row(ca.pos), cb.run.Row(cb.pos)
	kw := m.keyWidth
	j := kw // equal zero codes: both rows equal the base
	if code != 0 {
		j = kw - int(code>>8) + 1
		for j < kw && ra[j] == rb[j] {
			j++
		}
	}
	if j < kw {
		if ra[j] < rb[j] {
			return a, uint64(kw-j)<<40 | uint64(rb[j])<<32 | b&0xffffffff
		}
		return b, uint64(kw-j)<<40 | uint64(ra[j])<<32 | a&0xffffffff
	}
	var c int
	if m.tie != nil {
		if kw > 0 {
			m.stats.TieBreaks++
		}
		c = m.tie(ra, int(uint32(a)), rb, int(uint32(b)))
	}
	if c < 0 || (c == 0 && uint32(a) < uint32(b)) {
		return a, b & 0xffffffff
	}
	return b, a & 0xffffffff
}

// KWayMergeOVC merges k runs of normalized-key rows into dst with the
// offset-value-coded loser tree. Rows compare as their first keyWidth bytes;
// tie (may be nil) breaks byte-equal keys, and remaining ties resolve to the
// lower run index. dst must hold the total number of rows. codes is ignored:
// the merger derives every code from the rows.
func KWayMergeOVC(dst []byte, runs []Run, keyWidth int, codes [][]uint32, tie RunCompareFunc) Stats {
	m := NewMerger(runs, keyWidth, tie)
	drainMerger(m, dst, runWidth(runs))
	return m.stats
}

func runWidth(runs []Run) int {
	for _, r := range runs {
		if r.Width > 0 {
			return r.Width
		}
	}
	return 0
}

func drainMerger(m *Merger, dst []byte, w int) {
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
}
