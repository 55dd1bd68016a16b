package mergepath

import (
	"bytes"
	"encoding/binary"
	"math/rand"
	"slices"
	"sort"
	"testing"
)

func TestOVCCode(t *testing.T) {
	base := []byte{1, 2, 3, 4}
	if c := OVCCode(base, []byte{1, 2, 3, 4}, 4); c != 0 {
		t.Fatalf("equal rows: code %d, want 0", c)
	}
	// First difference at offset 2, byte 9: (4-2)<<8 | 9.
	if c := OVCCode(base, []byte{1, 2, 9, 0}, 4); c != 2<<8|9 {
		t.Fatalf("code %#x, want %#x", c, 2<<8|9)
	}
	// Codes of rows >= base order like the rows.
	rows := [][]byte{
		{1, 2, 3, 4}, {1, 2, 3, 5}, {1, 2, 4, 0}, {1, 3, 0, 0}, {2, 0, 0, 0},
	}
	for i := 1; i < len(rows); i++ {
		a, b := OVCCode(base, rows[i-1], 4), OVCCode(base, rows[i], 4)
		if a >= b {
			t.Fatalf("codes not increasing: %#x >= %#x at %d", a, b, i)
		}
	}
}

func TestKWayMergeOVCMatchesCascade(t *testing.T) {
	rng := rand.New(rand.NewSource(52))
	for _, numRuns := range []int{1, 2, 3, 8, 13} {
		var runs []Run
		total := 0
		for r := 0; r < numRuns; r++ {
			n := rng.Intn(400)
			runs = append(runs, sortedRun(randVals(n, 48, rng), 8, uint32(r)*100000))
			total += n
		}
		want := CascadeMerge(runs, cmpKey, 1)
		got := make([]byte, total*8)
		st := KWayMergeOVC(got, runs, 4, nil, nil)
		if !bytes.Equal(got, want.Data) {
			t.Fatalf("runs=%d: OVC k-way merge differs from cascade", numRuns)
		}
		if st.BytesMoved != uint64(total*8) {
			t.Fatalf("runs=%d: BytesMoved %d, want %d", numRuns, st.BytesMoved, total*8)
		}
		if st.Comparisons != st.OVCHits+st.FullCompares {
			t.Fatalf("runs=%d: Comparisons %d != OVCHits %d + FullCompares %d",
				numRuns, st.Comparisons, st.OVCHits, st.FullCompares)
		}
	}
}

// TestKWayMergeOVCTieComparator models truncated varchar prefixes: only the
// first 4 bytes are "encoded", the tie comparator sees the full 8-byte row.
// Duplicate-heavy keys force the tie path constantly.
func TestKWayMergeOVCTieComparator(t *testing.T) {
	rng := rand.New(rand.NewSource(53))
	var runs []Run
	var rows [][]byte
	total := 0
	for r := 0; r < 7; r++ {
		n := 100 + rng.Intn(200)
		run := sortedRun(randVals(n, 8, rng), 8, uint32(r)*100000)
		runs = append(runs, run)
		for i := 0; i < run.Len(); i++ {
			rows = append(rows, run.Row(i))
		}
		total += n
	}
	// Oracle: stable sort by the full row (prefix, then the tie bytes).
	sort.SliceStable(rows, func(i, j int) bool { return bytes.Compare(rows[i], rows[j]) < 0 })
	want := bytes.Join(rows, nil)

	got := make([]byte, total*8)
	st := KWayMergeOVC(got, runs, 4, nil, ByRows(bytes.Compare))
	if !bytes.Equal(got, want) {
		t.Fatal("tie-break merge differs from full-row stable sort")
	}
	if st.TieBreaks == 0 {
		t.Fatal("duplicate-heavy prefixes should exercise the tie comparator")
	}
	if st.OVCHits == 0 {
		t.Fatal("expected some matches to resolve on codes alone")
	}
}

// partitionedMerge merges runs into dst as p consecutive pieces, each merged
// by its own loser tree: what a caller that hands pieces to threads does, run
// on one. The pieces are cut at bound rows, the rows at ranks part×total/p of
// the merge, each found in every run by LowerBound under the merge's whole
// order: the key (keyWidth prefix bytes, then tie), then sortedRun's tag,
// which numbers a row by its run and its place there as core's payload
// reference does. With useOVC the trees compare offset-value codes (keyWidth
// prefix bytes, tie for byte-equal keys); without, every match compares
// keyWidth bytes and then tie.
func partitionedMerge(dst []byte, runs []Run, keyWidth int, tie CompareFunc, p int, useOVC bool) Stats {
	w := runWidth(runs)
	eff := func(a, b []byte) int {
		if c := bytes.Compare(a[:keyWidth], b[:keyWidth]); c != 0 {
			return c
		}
		if tie != nil {
			return tie(a, b)
		}
		return 0
	}
	whole := func(a, b []byte) int {
		if c := eff(a, b); c != 0 {
			return c
		}
		return bytes.Compare(a[4:8], b[4:8])
	}
	var rows [][]byte
	for _, r := range runs {
		for i := 0; i < r.Len(); i++ {
			rows = append(rows, r.Row(i))
		}
	}
	slices.SortFunc(rows, whole)
	total := len(rows)
	var st Stats
	prev := make([]int, len(runs))
	for part := 1; part <= p; part++ {
		start, end := (part-1)*total/p, part*total/p
		cut := make([]int, len(runs))
		sub := make([]Run, len(runs))
		for r, run := range runs {
			cut[r] = run.Len()
			if end < total {
				cut[r] = LowerBound(run, rows[end], whole)
			}
			sub[r] = Run{Data: run.Data[prev[r]*w : cut[r]*w], Width: w}
		}
		m := NewMerger(sub, 0, ByRows(eff))
		if useOVC {
			m = NewMerger(sub, keyWidth, ByRows(tie))
		}
		drainMerger(m, dst[start*w:end*w], w)
		st.Add(m.stats)
		prev = cut
	}
	return st
}

// TestPartitionedKWayMerge cuts merges of duplicate-heavy keys, of keys that
// are all equal and of runs some of which are empty into 1 to 16 pieces at
// bound rows: the pieces' merges concatenate to the scalar merge's output,
// so a bound's LowerBound in every run is its Merge Path rank, equal keys
// included.
func TestPartitionedKWayMerge(t *testing.T) {
	rng := rand.New(rand.NewSource(55))
	for _, mod := range []uint32{30, 1} {
		var runs []Run
		total := 0
		for r := 0; r < 10; r++ {
			n := rng.Intn(500)
			if r%4 == 3 {
				n = 0
			}
			runs = append(runs, sortedRun(randVals(n, mod, rng), 8, uint32(r)*100000))
			total += n
		}
		want := make([]byte, total*8)
		KWayMergeOVC(want, runs, 4, nil, ByRows(bytes.Compare))

		for _, useOVC := range []bool{true, false} {
			for p := 1; p <= 16; p++ {
				got := make([]byte, total*8)
				st := partitionedMerge(got, runs, 4, bytes.Compare, p, useOVC)
				if !bytes.Equal(got, want) {
					t.Fatalf("mod=%d useOVC=%v p=%d: partitioned merge differs from scalar", mod, useOVC, p)
				}
				if st.BytesMoved != uint64(total*8) {
					t.Fatalf("mod=%d useOVC=%v p=%d: BytesMoved %d", mod, useOVC, p, st.BytesMoved)
				}
				if useOVC && mod > 1 && st.OVCHits == 0 {
					t.Fatalf("p=%d: no OVC hits in OVC mode", p)
				}
				if !useOVC && st.OVCHits != 0 {
					t.Fatalf("p=%d: OVC hits counted without OVC", p)
				}
			}
		}
	}
}

// blockedMerge drains a Merger fed blockRows rows per refill. Every run's
// blocks pass through one recycled buffer, as the synchronous spill reader's
// do, so the exhausted block is gone by the time refill returns and only the
// carry the Merger kept itself can code the next block's first row.
func blockedMerge(full []Run, keyWidth int, tie RunCompareFunc, blockRows int) ([]byte, Stats) {
	width := runWidth(full)
	off := make([]int, len(full))
	bufs := make([][]byte, len(full))
	block := func(r int) (Run, bool) {
		if off[r] >= full[r].Len() {
			return Run{Width: width}, false
		}
		rows := min(blockRows, full[r].Len()-off[r])
		bufs[r] = append(bufs[r][:0], full[r].Data[off[r]*width:(off[r]+rows)*width]...)
		off[r] += rows
		return Run{Data: bufs[r], Width: width}, true
	}
	first := make([]Run, len(full))
	total := 0
	for r := range full {
		first[r], _ = block(r)
		total += full[r].Len()
	}
	m := NewMerger(first, keyWidth, tie)
	m.SetRefill(block)
	out := make([]byte, 0, total*width)
	for {
		_, _, row, ok := m.Next()
		if !ok {
			break
		}
		out = append(out, row...)
	}
	st := m.Stats()
	st.BytesMoved = uint64(len(out))
	return out, st
}

// TestMergerTieNamesRuns checks that the tie-break is handed each
// candidate's run index beside its row, through refills too: rows of 8 bytes
// carry a 2-byte key of few values, their run and their place in it, and the
// tie checks the runs it is told against the rows, then orders byte-equal
// keys by a rank of their runs that no row holds. The merge must come out as
// the stable sort by key, then run rank.
func TestMergerTieNamesRuns(t *testing.T) {
	rng := rand.New(rand.NewSource(53))
	const k, kw, width = 6, 2, 8
	rank := []int{3, 0, 5, 1, 4, 2}
	full := make([]Run, k)
	var rows [][]byte
	for r := range full {
		n := 50 + rng.Intn(100)
		data := make([]byte, 0, n*width)
		keys := make([]uint16, n)
		for i := range keys {
			keys[i] = uint16(rng.Intn(4))
		}
		slices.Sort(keys)
		for i, key := range keys {
			data = binary.BigEndian.AppendUint16(data, key)
			data = append(data, byte(r), 0)
			data = binary.BigEndian.AppendUint32(data, uint32(i))
		}
		full[r] = Run{Data: data, Width: width}
		for i := 0; i < n; i++ {
			rows = append(rows, full[r].Row(i))
		}
	}
	slices.SortStableFunc(rows, func(a, b []byte) int {
		if c := bytes.Compare(a[:kw], b[:kw]); c != 0 {
			return c
		}
		return rank[a[kw]] - rank[b[kw]]
	})
	want := bytes.Join(rows, nil)
	calls := 0
	tie := func(a []byte, ra int, b []byte, rb int) int {
		if int(a[kw]) != ra || int(b[kw]) != rb {
			t.Fatalf("tie told runs %d and %d for rows of runs %d and %d", ra, rb, a[kw], b[kw])
		}
		calls++
		return rank[ra] - rank[rb]
	}
	for _, blockRows := range []int{1, 7, 1 << 10} {
		if got, _ := blockedMerge(full, kw, tie, blockRows); !bytes.Equal(got, want) {
			t.Fatalf("blocks of %d rows: the merge does not order ties by the runs' rank", blockRows)
		}
	}
	dst := make([]byte, len(want))
	if KWayMergeOVC(dst, full, 0, nil, func(a []byte, ra int, b []byte, rb int) int {
		if c := bytes.Compare(a[:kw], b[:kw]); c != 0 {
			return c
		}
		return tie(a, ra, b, rb)
	}); !bytes.Equal(dst, want) {
		t.Fatal("with no coded prefix the merge does not order ties by the runs' rank")
	}
	if calls == 0 {
		t.Fatal("no match reached the tie-break")
	}
}

// TestMergerRefillBlocks streams each run through fixed-size blocks, as the
// external merge does, and checks the output and every counter match the
// whole-run merge: the carry makes a block boundary invisible to the codes.
func TestMergerRefillBlocks(t *testing.T) {
	rng := rand.New(rand.NewSource(56))
	const kw, width = 4, 8
	k := 5
	full := make([]Run, k)
	total := 0
	for r := 0; r < k; r++ {
		full[r] = sortedRun(randVals(150+rng.Intn(250), 24, rng), width, uint32(r)*100000)
		total += full[r].Len()
	}
	for _, tie := range []CompareFunc{nil, bytes.Compare} {
		want := make([]byte, total*width)
		wantSt := KWayMergeOVC(want, full, kw, nil, ByRows(tie))
		for _, blockRows := range []int{1, 7, 64, 1000} {
			got, st := blockedMerge(full, kw, ByRows(tie), blockRows)
			if !bytes.Equal(got, want) {
				t.Fatalf("tie=%v blockRows=%d: streamed merge differs from whole-run merge", tie != nil, blockRows)
			}
			if st != wantSt {
				t.Fatalf("tie=%v blockRows=%d: stats %+v, whole-run %+v", tie != nil, blockRows, st, wantSt)
			}
		}
	}
}

// TestDupRunAcrossBlockBoundary pins the carry's job: a duplicate key
// spanning a block boundary has cross-block code 0 and still leaves through
// the duplicate-run fast path, exactly as often as in the unblocked merge.
func TestDupRunAcrossBlockBoundary(t *testing.T) {
	// Two rows per block, runs of four equal keys: every second duplicate
	// pair straddles a boundary.
	runs := []Run{
		sortedRun([]uint32{5, 5, 5, 5, 9, 9, 9, 9}, 8, 0),
		sortedRun([]uint32{5, 5, 5, 5, 7, 7, 7, 7}, 8, 1000),
	}
	want := make([]byte, 16*8)
	wantSt := KWayMergeOVC(want, runs, 4, nil, nil)
	if wantSt.DupRunHits != 12 {
		t.Fatalf("unblocked DupRunHits = %d, want 12 (three per group of four)", wantSt.DupRunHits)
	}
	for _, blockRows := range []int{1, 2, 3} {
		got, st := blockedMerge(runs, 4, nil, blockRows)
		if !bytes.Equal(got, want) {
			t.Fatalf("blockRows=%d: output differs from the unblocked merge", blockRows)
		}
		if st != wantSt {
			t.Fatalf("blockRows=%d: stats %+v, unblocked %+v", blockRows, st, wantSt)
		}
	}
}

// FuzzKWayMerge drives the loser tree against a stable sort oracle with
// random run counts and sizes, duplicate-heavy keys, the tie-break
// comparator both off (run-index stability) and on (full-row order), and
// the runs fed whole or in blocks of 1, 2 or 4096 rows per refill.
func FuzzKWayMerge(f *testing.F) {
	f.Add(uint64(1), uint8(3), uint16(50), uint8(8), uint8(0))
	f.Add(uint64(7), uint8(1), uint16(0), uint8(1), uint8(1))
	f.Add(uint64(42), uint8(16), uint16(300), uint8(2), uint8(2))
	f.Add(uint64(99), uint8(9), uint16(77), uint8(255), uint8(3))
	f.Add(uint64(5), uint8(11), uint16(399), uint8(1), uint8(1))
	f.Fuzz(func(t *testing.T, seed uint64, k uint8, maxRun uint16, mod uint8, block uint8) {
		rng := rand.New(rand.NewSource(int64(seed)))
		numRuns := int(k)%12 + 1
		m := uint32(mod)%64 + 1
		blockRows := []int{0, 1, 2, 4096}[block%4] // 0: whole runs, no refill
		merge := func(dst []byte, runs []Run, tie CompareFunc) Stats {
			if blockRows == 0 {
				return KWayMergeOVC(dst, runs, 4, nil, ByRows(tie))
			}
			out, st := blockedMerge(runs, 4, ByRows(tie), blockRows)
			copy(dst, out)
			return st
		}
		runs := make([]Run, numRuns)
		total := 0
		for r := 0; r < numRuns; r++ {
			n := 0
			if maxRun > 0 {
				n = rng.Intn(int(maxRun)%400 + 1)
			}
			runs[r] = sortedRun(randVals(n, m, rng), 8, uint32(r)*100000)
			total += n
		}
		var rows [][]byte
		for r := range runs {
			for i := 0; i < runs[r].Len(); i++ {
				rows = append(rows, runs[r].Row(i))
			}
		}

		// No tie comparator: stable by run index, which a stable sort over
		// run-major row order reproduces.
		byPrefix := append([][]byte(nil), rows...)
		sort.SliceStable(byPrefix, func(i, j int) bool {
			return bytes.Compare(byPrefix[i][:4], byPrefix[j][:4]) < 0
		})
		want := bytes.Join(byPrefix, nil)
		got := make([]byte, total*8)
		st := merge(got, runs, nil)
		if !bytes.Equal(got, want) {
			t.Fatal("OVC k-way merge differs from stable sort oracle")
		}
		if st.Comparisons != st.OVCHits+st.FullCompares {
			t.Fatalf("stats inconsistent: %+v", st)
		}
		if ref := refKWayMergeOVC(make([]byte, total*8), runs, 4, nil); st != ref {
			t.Fatalf("stats %+v, reference tree %+v", st, ref)
		}

		// With the tie comparator: full-row order (tags make rows unique).
		byFull := append([][]byte(nil), rows...)
		sort.SliceStable(byFull, func(i, j int) bool {
			return bytes.Compare(byFull[i], byFull[j]) < 0
		})
		wantFull := bytes.Join(byFull, nil)
		gotFull := make([]byte, total*8)
		merge(gotFull, runs, bytes.Compare)
		if !bytes.Equal(gotFull, wantFull) {
			t.Fatal("tie-break k-way merge differs from full-row oracle")
		}

		// Merge Path partitioning must be byte-identical to the scalar merge.
		gotPar := make([]byte, total*8)
		partitionedMerge(gotPar, runs, 4, nil, 3, true)
		if !bytes.Equal(gotPar, want) {
			t.Fatal("partitioned k-way merge differs from scalar")
		}
	})
}

// TestOVCSkipsSharedPrefixes pins the point of the optimization: on long
// keys with a constant shared prefix, most matches resolve on codes alone.
func TestOVCSkipsSharedPrefixes(t *testing.T) {
	rng := rand.New(rand.NewSource(57))
	const width, kw = 24, 20
	var runs []Run
	total := 0
	for r := 0; r < 8; r++ {
		n := 500
		vals := randVals(n, 1<<16, rng)
		sort.Slice(vals, func(i, j int) bool { return vals[i] < vals[j] })
		data := make([]byte, n*width)
		for i, v := range vals {
			// 16 shared prefix bytes, then the value, then a tag.
			binary.BigEndian.PutUint32(data[i*width+16:], v)
			binary.BigEndian.PutUint32(data[i*width+20:], uint32(r*n+i))
		}
		runs = append(runs, Run{Data: data, Width: width})
		total += n
	}
	dst := make([]byte, total*width)
	st := KWayMergeOVC(dst, runs, kw, nil, nil)
	checkSortedByKey(t, dst[16:], width, "shared-prefix merge") // keys start at +16
	if st.OVCHits < st.FullCompares {
		t.Fatalf("long shared prefixes should be code-dominated: %+v", st)
	}
}

// TestMergerNextAllocates pins the loser tree's steady state at zero
// allocations per Next, on unique keys and on duplicate-heavy ones under a
// tie comparator (every match played on the bytes).
func TestMergerNextAllocates(t *testing.T) {
	for _, sh := range []struct {
		name                         string
		k, rows, width, kw, distinct int
		tie                          CompareFunc
	}{
		{"8x4Ki/w24/key9", 8, 1 << 12, 24, 9, 0, nil},
		{"8x4Ki/w32/key28/dup/tie", 8, 1 << 12, 32, 28, 64, bytes.Compare},
	} {
		m := NewMerger(benchKeyRuns(sh.k, sh.rows, sh.width, sh.kw, sh.distinct, 11), sh.kw, ByRows(sh.tie))
		for i := 0; i < 64; i++ {
			m.Next()
		}
		if allocs := testing.AllocsPerRun(16, func() { m.Next() }); allocs != 0 {
			t.Errorf("%s: %.2f allocations per Next", sh.name, allocs)
		}
	}
}

// TestMergerDupRunFastPath checks the duplicate-run fast path: with no tie
// comparator, a winner whose successor is byte-equal (within-run code 0)
// keeps the tournament without replaying matches — and the output must stay
// byte-identical to the stable merge order.
func TestMergerDupRunFastPath(t *testing.T) {
	rng := rand.New(rand.NewSource(58))
	type tagged struct {
		row []byte
		run int
	}
	var runs []Run
	var all []tagged
	total := 0
	for r := 0; r < 5; r++ {
		n := 200 + rng.Intn(200)
		// Domain of 8 distinct keys: long duplicate stretches inside runs.
		run := sortedRun(randVals(n, 8, rng), 8, uint32(r)*100000)
		runs = append(runs, run)
		for i := 0; i < run.Len(); i++ {
			all = append(all, tagged{run.Row(i), r})
		}
		total += n
	}
	// Oracle: stable sort by key prefix, ties to the lower run index,
	// within-run order preserved (SliceStable over rows listed in run order).
	sort.SliceStable(all, func(i, j int) bool {
		if c := bytes.Compare(all[i].row[:4], all[j].row[:4]); c != 0 {
			return c < 0
		}
		return all[i].run < all[j].run
	})
	want := make([]byte, 0, total*8)
	for _, tr := range all {
		want = append(want, tr.row...)
	}

	got := make([]byte, total*8)
	st := KWayMergeOVC(got, runs, 4, nil, nil)
	if !bytes.Equal(got, want) {
		t.Fatal("dup fast path changed the merge output")
	}
	if st.DupRunHits == 0 {
		t.Fatalf("duplicate-heavy runs never hit the fast path: %+v", st)
	}
	// Every fast-path emit skipped its tree replay entirely.
	if st.DupRunHits+st.Comparisons < uint64(total) {
		t.Fatalf("emits unaccounted for: %+v, total %d", st, total)
	}

	// With a tie comparator installed byte-equal rows may order
	// semantically: the fast path must stay off.
	got2 := make([]byte, total*8)
	st2 := KWayMergeOVC(got2, runs, 4, nil, ByRows(bytes.Compare))
	if st2.DupRunHits != 0 {
		t.Fatalf("fast path fired with a tie comparator: %+v", st2)
	}
}
