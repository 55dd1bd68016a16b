package radix

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"math/rand"
	"sort"
	"testing"
	"testing/quick"
)

// makeRows builds n rows of rowW bytes whose first keyW bytes are random key
// material and whose remaining bytes are a per-row payload marker derived
// from the key, so tests can verify that payload travels with its key.
func makeRows(n, rowW, keyW int, rng *rand.Rand) []byte {
	data := make([]byte, n*rowW)
	for i := 0; i < n; i++ {
		row := data[i*rowW : (i+1)*rowW]
		rng.Read(row[:keyW])
		sum := byte(0)
		for _, b := range row[:keyW] {
			sum += b
		}
		for j := keyW; j < rowW; j++ {
			row[j] = sum
		}
	}
	return data
}

func sortedOracle(data []byte, rowW, keyW int) []byte {
	n := len(data) / rowW
	rows := make([][]byte, n)
	for i := range rows {
		rows[i] = append([]byte(nil), data[i*rowW:(i+1)*rowW]...)
	}
	sort.SliceStable(rows, func(i, j int) bool {
		return bytes.Compare(rows[i][:keyW], rows[j][:keyW]) < 0
	})
	out := make([]byte, 0, len(data))
	for _, r := range rows {
		out = append(out, r...)
	}
	return out
}

func checkSorted(t *testing.T, data []byte, rowW, keyW int, ctx string) {
	t.Helper()
	n := len(data) / rowW
	for i := 1; i < n; i++ {
		prev := data[(i-1)*rowW : (i-1)*rowW+keyW]
		cur := data[i*rowW : i*rowW+keyW]
		if bytes.Compare(prev, cur) > 0 {
			t.Fatalf("%s: rows %d,%d out of order", ctx, i-1, i)
		}
	}
}

func TestSortMatchesOracle(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	shapes := []struct{ rowW, keyW int }{
		{4, 4}, {8, 4}, {8, 8}, {16, 8}, {16, 12}, {24, 17}, {12, 1},
	}
	for _, sz := range []int{0, 1, 2, 24, 25, 100, 1000, 5000} {
		for _, sh := range shapes {
			data := makeRows(sz, sh.rowW, sh.keyW, rng)
			want := sortedOracle(data, sh.rowW, sh.keyW)
			Sort(data, sh.rowW, sh.keyW)
			if !bytes.Equal(data, want) {
				t.Fatalf("n=%d rowW=%d keyW=%d: mismatch with oracle", sz, sh.rowW, sh.keyW)
			}
		}
	}
}

func TestLSDIsStable(t *testing.T) {
	// Keys with few distinct values; payload records original index. LSD
	// radix sort must preserve input order among equal keys.
	rng := rand.New(rand.NewSource(12))
	const n, rowW, keyW = 2000, 8, 2
	data := make([]byte, n*rowW)
	for i := 0; i < n; i++ {
		row := data[i*rowW:]
		row[0] = byte(rng.Intn(3))
		row[1] = byte(rng.Intn(3))
		binary.BigEndian.PutUint32(row[4:], uint32(i))
	}
	SortOpts(data, rowW, keyW, Options{ForceLSD: true})
	for i := 1; i < n; i++ {
		prev, cur := data[(i-1)*rowW:(i-1)*rowW+rowW], data[i*rowW:i*rowW+rowW]
		c := bytes.Compare(prev[:keyW], cur[:keyW])
		if c > 0 {
			t.Fatalf("not sorted at %d", i)
		}
		if c == 0 && binary.BigEndian.Uint32(prev[4:]) > binary.BigEndian.Uint32(cur[4:]) {
			t.Fatalf("LSD unstable at %d", i)
		}
	}
}

func TestMSDForcedMatchesOracle(t *testing.T) {
	rng := rand.New(rand.NewSource(13))
	data := makeRows(3000, 8, 4, rng) // keyW=4 would normally pick LSD
	want := sortedOracle(data, 8, 4)
	st := SortOpts(data, 8, 4, Options{ForceMSD: true})
	if !st.UsedMSD {
		t.Fatal("ForceMSD ignored")
	}
	if !bytes.Equal(data, want) {
		t.Fatal("forced MSD mismatch")
	}
}

func TestSelectionRule(t *testing.T) {
	rng := rand.New(rand.NewSource(14))
	d4 := makeRows(500, 8, 4, rng)
	if st := Sort(d4, 8, 4); st.UsedMSD {
		t.Fatal("keyW=4 should select LSD")
	}
	d5 := makeRows(500, 8, 5, rng)
	if st := Sort(d5, 8, 5); !st.UsedMSD {
		t.Fatal("keyW=5 should select MSD")
	}
}

func TestSingleBucketSkip(t *testing.T) {
	// All rows share the first 6 key bytes: MSD should skip those levels
	// without scatter passes.
	rng := rand.New(rand.NewSource(15))
	const n, rowW, keyW = 5000, 8, 8
	data := make([]byte, n*rowW)
	for i := 0; i < n; i++ {
		row := data[i*rowW:]
		copy(row, []byte{1, 2, 3, 4, 5, 6})
		row[6] = byte(rng.Intn(256))
		row[7] = byte(rng.Intn(256))
	}
	st := Sort(data, rowW, keyW)
	if st.SkippedPasses < 6 {
		t.Fatalf("expected >=6 skipped passes, got %d", st.SkippedPasses)
	}
	checkSorted(t, data, rowW, keyW, "with skip")
}

func TestLSDSkipOnConstantBytes(t *testing.T) {
	// 4-byte keys whose middle two bytes are constant: two LSD passes must
	// be skipped.
	rng := rand.New(rand.NewSource(16))
	const n, rowW, keyW = 1000, 4, 4
	data := make([]byte, n*rowW)
	for i := 0; i < n; i++ {
		row := data[i*rowW:]
		row[0] = byte(rng.Intn(256))
		row[1] = 0xAA
		row[2] = 0xBB
		row[3] = byte(rng.Intn(256))
	}
	st := Sort(data, rowW, keyW)
	if st.SkippedPasses != 2 {
		t.Fatalf("expected 2 skipped passes, got %d", st.SkippedPasses)
	}
	checkSorted(t, data, rowW, keyW, "lsd skip")
}

func TestPayloadTravelsWithKey(t *testing.T) {
	rng := rand.New(rand.NewSource(17))
	for _, force := range []Options{{ForceLSD: true}, {ForceMSD: true}} {
		data := makeRows(2000, 12, 6, rng)
		SortOpts(data, 12, 6, force)
		for i := 0; i < len(data)/12; i++ {
			row := data[i*12 : (i+1)*12]
			sum := byte(0)
			for _, b := range row[:6] {
				sum += b
			}
			for j := 6; j < 12; j++ {
				if row[j] != sum {
					t.Fatalf("payload separated from key at row %d (force=%+v)", i, force)
				}
			}
		}
	}
}

func TestInsertionCutoffOption(t *testing.T) {
	rng := rand.New(rand.NewSource(18))
	data := makeRows(4000, 8, 8, rng)
	want := sortedOracle(data, 8, 8)
	SortOpts(data, 8, 8, Options{InsertionCutoff: 128})
	if !bytes.Equal(data, want) {
		t.Fatal("custom cutoff mismatch")
	}
}

func TestSortPanicsOnBadArgs(t *testing.T) {
	mustPanic := func(f func()) {
		t.Helper()
		defer func() {
			if recover() == nil {
				t.Fatal("expected panic")
			}
		}()
		f()
	}
	mustPanic(func() { Sort(make([]byte, 7), 4, 4) })
	mustPanic(func() { Sort(make([]byte, 8), 4, 5) })
	mustPanic(func() { Sort(make([]byte, 8), 0, 0) })
}

func TestSortQuick(t *testing.T) {
	rng := rand.New(rand.NewSource(19))
	f := func(nRows uint16, keySel uint8) bool {
		n := int(nRows) % 3000
		keyW := 1 + int(keySel)%12
		rowW := keyW + 4
		if rowW%2 == 1 {
			rowW++
		}
		data := makeRows(n, rowW, keyW, rng)
		want := sortedOracle(data, rowW, keyW)
		Sort(data, rowW, keyW)
		return bytes.Equal(data, want)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}

// TestSortStable pins the stability guarantee the duplicate-group run sort
// depends on: rows with byte-equal key prefixes keep their input order, in
// both the LSD and MSD variants and through the insertion fallback, whichever
// row mover the stride selects.
func TestSortStable(t *testing.T) {
	rng := rand.New(rand.NewSource(77))
	for _, tc := range []struct {
		name     string
		keyWidth int
		opt      Options
	}{
		{"lsd", 4, Options{}},
		{"msd", 8, Options{}},
		{"msd-insertion", 8, Options{InsertionCutoff: 64}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			for _, rowWidth := range testStrides {
				if rowWidth < tc.keyWidth+4 {
					continue
				}
				const n = 3000
				data := make([]byte, n*rowWidth)
				for i := 0; i < n; i++ {
					row := data[i*rowWidth : (i+1)*rowWidth]
					// Tiny key domain: massive duplicate groups.
					row[tc.keyWidth-1] = byte(rng.Intn(7))
					binary.BigEndian.PutUint32(row[rowWidth-4:], uint32(i)) // input order tag
				}
				SortOpts(data, rowWidth, tc.keyWidth, tc.opt)
				for i := 1; i < n; i++ {
					prev, cur := data[(i-1)*rowWidth:i*rowWidth], data[i*rowWidth:(i+1)*rowWidth]
					c := bytes.Compare(prev[:tc.keyWidth], cur[:tc.keyWidth])
					if c > 0 {
						t.Fatalf("stride %d: out of order at %d", rowWidth, i)
					}
					if c == 0 && binary.BigEndian.Uint32(prev[rowWidth-4:]) > binary.BigEndian.Uint32(cur[rowWidth-4:]) {
						t.Fatalf("stride %d: stability violated at %d", rowWidth, i)
					}
				}
			}
		})
	}
}

// testStrides are the row widths the property tests run at: the four with an
// unrolled mover, another multiple of 8 and strides that are none.
var testStrides = []int{8, 12, 16, 20, 24, 32, 40, 48}

// keyPatterns fill the key bytes of n rows so as to drive Sort down its
// different branches.
var keyPatterns = []struct {
	name string
	fill func(key []byte, row int, rng *rand.Rand)
}{
	{"random", func(key []byte, _ int, rng *rand.Rand) { rng.Read(key) }},
	// Every byte one of three values: long recursions, duplicate keys, and
	// branches that end at every depth.
	{"lowcard", func(key []byte, _ int, rng *rand.Rand) {
		for i := range key {
			key[i] = byte(rng.Intn(3))
		}
	}},
	{"all-equal", func(key []byte, _ int, _ *rand.Rand) {
		for i := range key {
			key[i] = 0x5A
		}
	}},
	// A shared prefix longer than a word, ending inside one.
	{"prefix-11", func(key []byte, _ int, rng *rand.Rand) { prefixed(key, 11, rng) }},
	{"prefix-17", func(key []byte, _ int, rng *rand.Rand) { prefixed(key, 17, rng) }},
	// All but one byte shared: the only scatter happens at that depth, an
	// even one and an odd one, so the last pass lands in either buffer.
	{"only-last-byte", func(key []byte, _ int, rng *rand.Rand) { key[len(key)-1] = byte(rng.Intn(256)) }},
	{"only-two-bytes", func(key []byte, _ int, rng *rand.Rand) {
		key[len(key)-1] = byte(rng.Intn(256))
		key[max(len(key)-2, 0)] = byte(rng.Intn(256))
	}},
	{"sorted", func(key []byte, row int, _ *rand.Rand) {
		for i := len(key) - 1; i >= 0 && row > 0; i, row = i-1, row>>8 {
			key[i] = byte(row)
		}
	}},
}

func prefixed(key []byte, shared int, rng *rand.Rand) {
	shared = min(shared, len(key)-1)
	for i := range key[:shared] {
		key[i] = byte(0xC0 + i)
	}
	rng.Read(key[shared:])
}

// patternRows builds n rows of the pattern, the bytes behind each key holding
// the row's input position so that a stable sort has one right answer.
func patternRows(n, rowW, keyW int, fill func([]byte, int, *rand.Rand), rng *rand.Rand) []byte {
	data := make([]byte, n*rowW)
	for i := 0; i < n; i++ {
		row := data[i*rowW : (i+1)*rowW]
		fill(row[:keyW], i, rng)
		for j, tag := keyW, i; j < rowW; j, tag = j+1, tag>>8 {
			row[j] = byte(tag)
		}
	}
	return data
}

// checkAgainstOracle sorts copies of data into a scratch buffer full of
// garbage and into none, and requires each result to equal the stable
// oracle's byte for byte.
func checkAgainstOracle(t *testing.T, ctx string, data []byte, rowW, keyW int, opt Options) {
	t.Helper()
	want := sortedOracle(data, rowW, keyW)
	for _, scratch := range [][]byte{nil, bytes.Repeat([]byte{0xCC}, len(data)+rowW)} {
		got := append([]byte(nil), data...)
		opt.Scratch = scratch
		st := SortOpts(got, rowW, keyW, opt)
		if !bytes.Equal(got, want) {
			t.Fatalf("%s scratch=%d: differs from the stable oracle (stats %+v)", ctx, len(scratch), st)
		}
	}
}

// TestSortMatchesStableOracle is the property the rewrite must keep: for every
// stride, key width, size around the insertion cutoff and key pattern, under
// both digit orders, Sort's output is the stable oracle's.
func TestSortMatchesStableOracle(t *testing.T) {
	rng := rand.New(rand.NewSource(24))
	sizes := []int{0, 1, 2, DefaultInsertionCutoff, DefaultInsertionCutoff + 1, 300}
	for _, rowW := range testStrides {
		for keyW := 1; keyW <= rowW; keyW++ {
			for _, pat := range keyPatterns {
				for _, n := range sizes {
					data := patternRows(n, rowW, keyW, pat.fill, rng)
					for _, opt := range []Options{{}, {InsertionCutoff: 2}, {ForceLSD: true}, {ForceMSD: true}} {
						if opt.ForceLSD && keyW > 8 {
							continue // a pass per byte: covered at the widths LSD serves
						}
						ctx := fmt.Sprintf("row=%d key=%d %s n=%d %+v", rowW, keyW, pat.name, n, opt)
						checkAgainstOracle(t, ctx, data, rowW, keyW, opt)
					}
				}
			}
		}
	}
}

// TestSortOptsAllocs pins what a sort allocates once the caller supplies the
// scratch: the row insertion sort holds out, and nothing per pass or per
// bucket. A [256]int table handed to a func value rather than through the
// scatter switch escapes to the heap, once per MSD call (259 allocations at
// 2^16 rows).
func TestSortOptsAllocs(t *testing.T) {
	rng := rand.New(rand.NewSource(26))
	for _, sh := range []struct{ rowW, keyW int }{{24, 16}, {8, 4}} {
		for _, n := range []int{1 << 10, 1 << 16} {
			data := makeRows(n, sh.rowW, sh.keyW, rng)
			work := make([]byte, len(data))
			opt := Options{Scratch: make([]byte, len(data))}
			var st Stats
			allocs := testing.AllocsPerRun(5, func() {
				copy(work, data)
				st = SortOpts(work, sh.rowW, sh.keyW, opt)
			})
			if allocs > 1 {
				t.Errorf("row=%d key=%d n=%d (msd=%v): %.0f allocations per sort, want at most 1", sh.rowW, sh.keyW, n, st.UsedMSD, allocs)
			}
		}
	}
}

// FuzzRadixSort checks Sort against the stable oracle on arbitrary bytes cut
// into rows of an arbitrary stride and key width.
func FuzzRadixSort(f *testing.F) {
	// Seeds are a few rows each: the engine minimises every input that adds
	// coverage a byte at a time.
	f.Add(uint8(23), uint8(8), bytes.Repeat([]byte{3, 1, 2, 2}, 36))
	f.Add(uint8(39), uint8(25), bytes.Repeat([]byte("Smith\x00\x00Jones\x00"), 12))
	f.Add(uint8(15), uint8(15), []byte("the quick brown fox jumps over the lazy dog, twice over"))
	f.Add(uint8(12), uint8(4), bytes.Repeat([]byte{0}, 13*30))
	f.Add(uint8(0), uint8(0), []byte{9, 8, 7, 7, 7, 1})
	f.Fuzz(func(t *testing.T, rowW, keyW uint8, data []byte) {
		rw := 1 + int(rowW)%64
		kw := 1 + int(keyW)%rw
		data = data[:len(data)/rw*rw]
		for _, opt := range []Options{{}, {InsertionCutoff: 2}} {
			checkAgainstOracle(t, fmt.Sprintf("row=%d key=%d n=%d %+v", rw, kw, len(data)/rw, opt), data, rw, kw, opt)
		}
	})
}
