package core

import (
	"bytes"
	"cmp"
	"fmt"
	"strings"
	"testing"

	"rowsort/internal/mem"
	"rowsort/internal/normkey"
	"rowsort/internal/row"
	"rowsort/internal/vector"
	"rowsort/internal/workload"
)

// customerRows is workload.Customer's table with an id column appended that
// numbers the rows, as checkOracle wants; longer, when positive, lengthens
// every name by that many bytes.
func customerRows(n int, seed uint64, longer int) *vector.Table {
	src := workload.Customer(n, seed)
	schema := append(append(vector.Schema{}, src.Schema...), vector.Column{Name: "id", Type: vector.Int32})
	tbl := vector.NewTable(schema)
	id := int32(0)
	for _, c := range src.Chunks {
		vecs := append([]*vector.Vector{}, c.Vectors...)
		for _, col := range []int{4, 5} {
			if longer > 0 {
				v := vector.New(vector.Varchar, c.Len())
				for r := 0; r < c.Len(); r++ {
					if !c.Vectors[col].Valid(r) {
						v.AppendNull()
						continue
					}
					v.AppendString(c.Vectors[col].Strings()[r] + strings.Repeat("~", longer))
				}
				vecs[col] = v
			}
		}
		ids := vector.New(vector.Int32, c.Len())
		for r := 0; r < c.Len(); r++ {
			ids.AppendInt32(id)
			id++
		}
		tbl.Chunks = append(tbl.Chunks, &vector.Chunk{Vectors: append(vecs, ids)})
	}
	return tbl
}

// TestFittingNamesLeaveTheHeapEmpty pins the saving of leaving strings in
// their keys on the customer shape at the default prefix, whose names all
// fit it: every run's payload heap is empty, and the result is the oracle's.
// On disk, the same sort with every name 13 bytes longer — past the prefix,
// so in each row's overflow record — writes exactly those names' bytes more,
// and the two length words, 8 bytes, of each row with a name: the fitting
// names' spill files hold none of theirs, and their rows no record. In a chunk
// that mixes the two, whose keys therefore tie, each name is decided on its
// own: the heap holds the overflowing names' bytes and the records' length
// words, and nothing of the others'.
func TestFittingNamesLeaveTheHeapEmpty(t *testing.T) {
	const n = 5*vector.DefaultVectorSize + 300
	keys := []SortColumn{{Column: 4}, {Column: 5}}
	opt := Options{Threads: 1, RunSize: 2 * vector.DefaultVectorSize}
	fit, long := customerRows(n, 5, 0), customerRows(n, 5, 13)

	s := finalizedSorter(t, fit, keys, opt)
	defer s.Close()
	if len(s.runs) != 3 {
		t.Fatalf("%d runs, want 3", len(s.runs))
	}
	for _, r := range s.runs {
		if r.tieBreak || r.payload.HeapLen() != 0 {
			t.Errorf("run %d: tie-break %v and a %d-byte heap, want neither", r.id, r.tieBreak, r.payload.HeapLen())
		}
	}
	checkOracle(t, "in memory", fit, resultChecked(t, s), keys, true)

	spilled := func(tbl *vector.Table) int64 {
		t.Helper()
		opt := opt
		opt.SpillDir = t.TempDir()
		s := finalizedSorter(t, tbl, keys, opt)
		defer s.Close()
		checkOracle(t, "on disk", tbl, drainAll(t, s), keys, true)
		return s.Stats().SpillBytesWritten
	}
	fitBytes, longBytes := spilled(fit), spilled(long)
	names := int64(0)
	for _, c := range long.Chunks {
		for r := 0; r < c.Len(); r++ {
			named := false
			for _, col := range []int{4, 5} {
				if c.Vectors[col].Valid(r) {
					names, named = names+int64(len(c.Vectors[col].Strings()[r])), true
				}
			}
			if named {
				names += 8
			}
		}
	}
	if longBytes-fitBytes != names {
		t.Errorf("spilled %d bytes with names that fit and %d with longer ones, %d apart; want the longer names' and their records' %d",
			fitBytes, longBytes, longBytes-fitBytes, names)
	}

	// Every seventh last name and every eighth first name of the one chunk
	// overflows the prefix.
	mix := customerRows(vector.DefaultVectorSize, 6, 0)
	over, records := int64(0), make([]bool, vector.DefaultVectorSize)
	for _, col := range []int{4, 5} {
		v, src := vector.New(vector.Varchar, vector.DefaultVectorSize), mix.Chunks[0].Vectors[col]
		for r, name := range src.Strings()[:src.Len()] {
			switch {
			case !src.Valid(r):
				v.AppendNull()
				continue
			case r%(col+3) == 0:
				name += strings.Repeat("~", 13)
				over += int64(len(name))
				records[r] = true
			}
			v.AppendString(name)
		}
		mix.Chunks[0].Vectors[col] = v
	}
	for _, rec := range records {
		if rec {
			over += 8
		}
	}
	s = finalizedSorter(t, mix, keys, opt)
	defer s.Close()
	if r := s.runs[0]; len(s.runs) != 1 || !r.tieBreak || int64(r.payload.HeapLen()) != over {
		t.Errorf("%d runs, the first with tie-break %v and a %d-byte heap; want 1, a tie-break and the overflowing names' and their records' %d bytes",
			len(s.runs), r.tieBreak, r.payload.HeapLen(), over)
	}
	checkOracle(t, "a chunk of names that fit and names that overflow", mix, resultChecked(t, s), keys, true)
}

// TestHeldKeysNarrowThePayload pins the payload the keys leave: a column a
// Bool or integer key holds, in any order and NULL placement, is stored once,
// in the key, and the payload row holds only the other columns — a mask byte
// and an Int32, 5 bytes, for catalog_sales on its four Int32 keys, 9 for
// IntKeySchema on its Int64 key, both inline in their key rows, none for a
// schema whose every column is a key, 112 for the wide row on its Int32 key
// (a 2-byte mask, twelve Int64s and a string slot) — while a float or string
// key holds no column. A string keyed ASC has no slot: the row carries one
// 4-byte overflow reference for all such strings instead, so customer on its
// two names takes 24 bytes (a mask byte, four Int32s, the reference) where two
// slots took 40, and the float and string keys' row 24 (a mask byte, the
// Float32, the Float64, the reference). On disk, catalog_sales' spill files are exactly their key rows,
// each file's header and each block's, and an empty payload set a block:
// 200,032 bytes, where a payload reference and 8-byte payload rows took
// 249,984. The sort is the oracle's.
func TestHeldKeysNarrowThePayload(t *testing.T) {
	allKeys := vector.Schema{{Name: "b", Type: vector.Bool}, {Name: "u", Type: vector.Uint8}, {Name: "i", Type: vector.Int16}, {Name: "id", Type: vector.Int32}}
	lossy := vector.Schema{{Name: "f", Type: vector.Float32}, {Name: "d", Type: vector.Float64}, {Name: "s", Type: vector.Varchar}}
	for _, tc := range []struct {
		name   string
		schema vector.Schema
		keys   []SortColumn
		width  int
	}{
		{"catalog_sales", workload.CatalogSalesSchema, []SortColumn{{Column: 0}, {Column: 1}, {Column: 2}, {Column: 3}}, 5},
		{"IntKeySchema", workload.IntKeySchema, []SortColumn{{Column: 0}}, 9},
		{"every column a key", allKeys, []SortColumn{{Column: 3, Descending: true}, {Column: 0, NullsLast: true},
			{Column: 2, Descending: true, NullsLast: true}, {Column: 1}}, 0},
		{"float and string keys", lossy, []SortColumn{{Column: 0}, {Column: 1, Descending: true}, {Column: 2}}, 24},
		{"customer names", workload.CustomerSchema, []SortColumn{{Column: 4}, {Column: 5}}, 24},
		{"the wide row", widePayloadTable(0, 1).Schema, []SortColumn{{Column: 0}}, 112},
	} {
		s, err := NewSorter(tc.schema, tc.keys, Options{})
		if err != nil {
			t.Fatal(err)
		}
		if got := s.place.layout.Width(); got != tc.width {
			t.Errorf("%s: payload rows of %d bytes, want %d", tc.name, got, tc.width)
		}
		s.Close()
	}

	// catalog_sales with its last column, the payload's one, numbering the
	// rows, as checkOracle wants.
	const n = 3*vector.DefaultVectorSize + 100
	tbl := workload.CatalogSales(n, 10, 3)
	id := int32(0)
	for _, c := range tbl.Chunks {
		ids := c.Vectors[4].Int32s()[:c.Len()]
		for r := range ids {
			ids[r], id = id, id+1
		}
	}
	keys := []SortColumn{{Column: 0}, {Column: 1, Descending: true}, {Column: 2, NullsLast: true}, {Column: 3}}
	opt := Options{Threads: 2, RunSize: 2 * vector.DefaultVectorSize, SpillDir: t.TempDir()}
	s := finalizedSorter(t, tbl, keys, opt, pinBlockRows(1000))
	defer s.Close()
	checkOracle(t, "catalog_sales on disk", tbl, drainAll(t, s), keys, true)
	const fileHeader, blockHeader = 16, 20 + 4 // the file's; a block's row set header and checksum
	want := int64(0)
	for _, r := range s.runs {
		want += fileHeader + int64((r.rows+999)/1000*blockHeader) + int64(r.rows*s.place.rowWidth)
	}
	if got := s.Stats().SpillBytesWritten; got != want || got != 200_032 {
		t.Errorf("catalog_sales spilled %d bytes, want %d: %d-byte key rows and no payload rows", got, want, s.place.rowWidth)
	}
}

// TestPayloadRidesInlineWhereItFits pins NewSorter's one decision of where
// the payload lives, and the key row's stride: inline, behind the key, when no
// key can tie and the payload, fixed-width and packed unaligned, reaches no
// more than inlineBytes past the key, to the stride — IntKeySchema 24 bytes,
// catalog_sales 32, an Int64 key over an Int8 16, every column a key the key
// alone, 16 — and else in a payload set, behind a 4-byte reference:
// customer's varchar keys 32, the wide row's string column 16, an Int64 key
// over two Int64s, which do not fit, 16. The inline rule does not follow the
// reference: IntKeySchema and catalog_sales ride inline in rows a word wider
// than a reference row of their keys, and would lose inline under a rule
// that did. Each row pins where one column lives too (place): a varchar keyed
// only DESC, or only NOCASE, keeps its strings in the payload set, with no key
// segment; one keyed ASC at the default and at PrefixLen 4 leaves them in the
// shorter, second key's segment, and one keyed DESC at 4 and ASC at the
// default keeps them in the set; an integer keyed twice is held by the first
// key. An
// inline sort, in memory, spilled and through a merge pass, keeps no payload
// set — no sink's, no run's — and is the oracle's.
func TestPayloadRidesInlineWhereItFits(t *testing.T) {
	int8Pay := vector.Schema{{Name: "k", Type: vector.Int64}, {Name: "v", Type: vector.Int8}}
	twoInts := vector.Schema{{Name: "k", Type: vector.Int64}, {Name: "a", Type: vector.Int64}, {Name: "b", Type: vector.Int64}}
	allKeys := vector.Schema{{Name: "b", Type: vector.Bool}, {Name: "u", Type: vector.Uint8}, {Name: "i", Type: vector.Int16}, {Name: "id", Type: vector.Int32}}
	wide := vector.Schema{{Name: "k", Type: vector.Int32}}
	for c := 0; c < 12; c++ {
		wide = append(wide, vector.Column{Name: "v", Type: vector.Int64})
	}
	wide = append(wide, vector.Column{Name: "s", Type: vector.Varchar})
	named := vector.Schema{{Name: "k", Type: vector.Int64}, {Name: "s", Type: vector.Varchar}, {Name: "id", Type: vector.Int32}}
	for _, tc := range []struct {
		name     string
		schema   vector.Schema
		keys     []SortColumn
		inline   bool
		rowWidth int
		col      int // and where it lives
		place    colPlace
	}{
		{"IntKeySchema", workload.IntKeySchema, []SortColumn{{Column: 0}}, true, 24,
			1, colPlace{where: inRow, key: -1, pay: 0}},
		{"catalog_sales", workload.CatalogSalesSchema, []SortColumn{{Column: 0}, {Column: 1}, {Column: 2}, {Column: 3}}, true, 32,
			4, colPlace{where: inRow, key: -1, pay: 0}},
		{"an Int64 key over an Int8", int8Pay, []SortColumn{{Column: 0}}, true, 16,
			1, colPlace{where: inRow, key: -1, pay: 0}},
		{"every column a key", allKeys, []SortColumn{{Column: 3}, {Column: 0}, {Column: 2}, {Column: 1}}, true, 16,
			3, colPlace{where: heldByKey, key: 0, pay: -1}},
		{"customer", workload.CustomerSchema, []SortColumn{{Column: 4}, {Column: 5}}, false, 32,
			5, colPlace{where: inSegment, key: 1, pay: 5}},
		{"the wide row", wide, []SortColumn{{Column: 0}}, false, 16,
			13, colPlace{where: inSet, key: -1, pay: 12}},
		{"an Int64 key over two Int64s", twoInts, []SortColumn{{Column: 0}}, false, 16,
			1, colPlace{where: inSet, key: -1, pay: 0}},
		{"a varchar keyed only DESC", named, []SortColumn{{Column: 1, Descending: true}, {Column: 0}}, false, 32,
			1, colPlace{where: inSet, key: -1, pay: 0}},
		{"a varchar keyed only NOCASE", named, []SortColumn{{Column: 1, CaseInsensitive: true}, {Column: 0}}, false, 32,
			1, colPlace{where: inSet, key: -1, pay: 0}},
		{"a varchar keyed ASC at PrefixLen 4 and at the default", named, []SortColumn{{Column: 1}, {Column: 1, PrefixLen: 4}}, false, 24,
			1, colPlace{where: inSegment, key: 1, pay: 1}},
		{"a varchar keyed DESC at PrefixLen 4 and ASC at the default", named, []SortColumn{{Column: 1, Descending: true, PrefixLen: 4}, {Column: 1}}, false, 24,
			1, colPlace{where: inSet, key: -1, pay: 1}},
		{"an integer keyed twice", workload.IntKeySchema, []SortColumn{{Column: 0, Descending: true}, {Column: 0}}, true, 32,
			0, colPlace{where: heldByKey, key: 0, pay: -1}},
	} {
		s, err := NewSorter(tc.schema, tc.keys, Options{})
		if err != nil {
			t.Fatal(err)
		}
		if s.place.inline != tc.inline || s.place.rowWidth != tc.rowWidth {
			t.Errorf("%s: inline %v in %d-byte key rows, want %v in %d", tc.name, s.place.inline, s.place.rowWidth, tc.inline, tc.rowWidth)
		}
		if got := s.place.cols[tc.col]; got != tc.place {
			t.Errorf("%s: column %d placed %+v, want %+v", tc.name, tc.col, got, tc.place)
		}
		if refRow := (s.keyWidth + refBytes + 7) &^ 7; (tc.name == "IntKeySchema" || tc.name == "catalog_sales") && s.place.rowWidth <= refRow {
			t.Errorf("%s: inline in %d-byte key rows, which a %d-byte reference row would hold: the case no longer tells the inline rule from the reference's width",
				tc.name, s.place.rowWidth, refRow)
		}
		s.Close()
	}

	// An Int64 key over a Float64, a Bool, both with NULLs, and the row's id,
	// in chunks of 256 rows, cut into 25 runs by one sink: in memory, spilled
	// as cut, and merged to disk by a budget that cannot stream them all.
	const n = 3*vector.DefaultVectorSize + 100
	schema := vector.Schema{{Name: "k", Type: vector.Int64}, {Name: "f", Type: vector.Float64}, {Name: "b", Type: vector.Bool}, {Name: "id", Type: vector.Int32}}
	tbl := vector.NewTable(schema)
	for start := 0; start < n; start += 256 {
		count := min(256, n-start)
		c := vector.NewChunk(schema, count)
		for r := start; r < start+count; r++ {
			c.Vectors[0].AppendInt64(int64(r*7919%97) - 40)
			if r%5 == 0 {
				c.Vectors[1].AppendNull()
			} else {
				c.Vectors[1].AppendFloat64(float64(r) / 4)
			}
			if r%3 == 0 {
				c.Vectors[2].AppendNull()
			} else {
				c.Vectors[2].AppendBool(r%2 == 0)
			}
			c.Vectors[3].AppendInt32(int32(r))
		}
		tbl.Chunks = append(tbl.Chunks, c)
	}
	keys := []SortColumn{{Column: 0, Descending: true}}
	for _, tc := range []struct {
		name string
		opt  Options
	}{
		{"in memory", Options{Threads: 1, RunSize: 256}},
		{"spilled", Options{Threads: 1, RunSize: 256, SpillDir: t.TempDir()}},
		{"merged to disk", Options{Threads: 1, RunSize: 256, Broker: mem.NewBroker("tight", 64<<10)}},
	} {
		s, err := NewSorter(schema, keys, tc.opt)
		if err != nil {
			t.Fatal(err)
		}
		s.pinBlockRows = 100
		k := s.NewSink()
		if !s.place.inline || k.payload != nil {
			t.Fatalf("%s: inline %v, the sink holds a payload set %v", tc.name, s.place.inline, k.payload != nil)
		}
		for _, c := range tbl.Chunks {
			if err := k.Append(c); err != nil {
				t.Fatal(err)
			}
		}
		if err := k.Close(); err != nil {
			t.Fatal(err)
		}
		for _, r := range s.runs {
			if r.payload != nil {
				t.Errorf("%s: run %d holds a payload set", tc.name, r.id)
			}
		}
		if err := s.Finalize(); err != nil {
			t.Fatal(err)
		}
		if tc.opt.Broker != nil && s.Stats().MergePasses == 0 {
			t.Errorf("%s: no merge pass", tc.name)
		}
		checkOracle(t, tc.name, tbl, resultChecked(t, s), keys, true)
		s.Close()
	}
}

// TestAppendFailureLeavesSinkAsItWas pins Sink.Append's two steps — keys
// encoded, then the payload scattered — as one: a chunk that fails either,
// with a key column of the wrong type, a payload column of the wrong type or
// one shorter than the rest, leaves the pending keys, payload rows and heap
// as they were, and the sort goes on to the oracle's result over the chunks
// that went in.
func TestAppendFailureLeavesSinkAsItWas(t *testing.T) {
	schema := vector.Schema{{Name: "name", Type: vector.Varchar}, {Name: "n", Type: vector.Int64}, {Name: "id", Type: vector.Int32}}
	keys := []SortColumn{{Column: 0}}
	chunk := func(first, rows int) *vector.Chunk {
		c := vector.NewChunk(schema, rows)
		for r := first; r < first+rows; r++ {
			name := []string{"fits", "", "exactly12byt", "past the twelve-byte prefix"}[r%4]
			if r < 8 {
				name = name[:min(len(name), 12)] // the first chunk leaves its names in the keys
			}
			c.Vectors[0].AppendString(name)
			c.Vectors[1].AppendInt64(int64(r % 3))
			c.Vectors[2].AppendInt32(int32(r))
		}
		return c
	}
	good := []*vector.Chunk{chunk(0, 8), chunk(8, 8)}
	s, err := NewSorter(schema, keys, Options{Threads: 1})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	k := s.NewSink()
	if err := k.Append(good[0]); err != nil {
		t.Fatal(err)
	}
	if k.payload.HeapLen() != 0 {
		t.Fatalf("a chunk of names that fit put %d bytes on the heap", k.payload.HeapLen())
	}
	if err := k.Append(good[1]); err != nil {
		t.Fatal(err)
	}
	// The sink's pending state: its key rows, and its payload's rows and heap
	// as WriteTo lays them out.
	image := func() (keys, payload []byte, n int, tieBreak bool) {
		var b bytes.Buffer
		if _, err := k.payload.WriteTo(&b); err != nil {
			t.Fatal(err)
		}
		return bytes.Clone(k.keys), b.Bytes(), k.n, k.tieBreak
	}
	keys0, payload0, n0, tie0 := image()
	if n0 != 16 || !tie0 {
		t.Fatalf("%d rows pending, tie-break %v; want 16 and a tie-break", n0, tie0)
	}
	badKey, badPayload, short := chunk(16, 4), chunk(16, 4), chunk(16, 4)
	badKey.Vectors[0] = vector.New(vector.Int64, 4)
	badPayload.Vectors[1] = vector.New(vector.Int32, 4)
	for r := 0; r < 4; r++ {
		badKey.Vectors[0].AppendInt64(int64(r))
		badPayload.Vectors[1].AppendInt32(int32(r))
	}
	short.Vectors[2] = vector.New(vector.Int32, 3)
	for r := 0; r < 3; r++ {
		short.Vectors[2].AppendInt32(int32(r))
	}
	for name, c := range map[string]*vector.Chunk{"a key column of the wrong type": badKey,
		"a payload column of the wrong type": badPayload, "a short payload column": short} {
		if err := k.Append(c); err == nil {
			t.Fatalf("a chunk with %s went in", name)
		}
		keys1, payload1, n1, tie1 := image()
		if !bytes.Equal(keys1, keys0) || !bytes.Equal(payload1, payload0) || n1 != n0 || tie1 != tie0 {
			t.Fatalf("a chunk with %s changed the sink: %d key bytes (were %d), %d payload bytes (were %d), %d rows (were %d)",
				name, len(keys1), len(keys0), len(payload1), len(payload0), n1, n0)
		}
	}
	last := chunk(16, 8)
	if err := k.Append(last); err != nil {
		t.Fatal(err)
	}
	if err := k.Close(); err != nil {
		t.Fatal(err)
	}
	if err := s.Finalize(); err != nil {
		t.Fatal(err)
	}
	in := vector.NewTable(schema)
	in.Chunks = append(good, last)
	checkOracle(t, "after the failures", in, resultChecked(t, s), keys, true)
}

// TestDrainEstimateHoldsAGatheredChunk pins drainClaimants' output-row
// estimate (outputRowBytes) at no less than what a drained chunk holds — each
// fixed-width value's bytes, each string's 16-byte header and bytes — where
// the output holds columns the spill files do not: catalog_sales' four Int32
// keys, and integer keys beside a varchar key whose strings overflow it.
func TestDrainEstimateHoldsAGatheredChunk(t *testing.T) {
	const n = 4 * vector.DefaultVectorSize
	held, heldKeys := heldTable(schemaHeldMix, n, vector.DefaultVectorSize, keysDupHeavy, 1)
	for _, tc := range []struct {
		name string
		tbl  *vector.Table
		keys []SortColumn
	}{
		{"catalog_sales", workload.CatalogSales(n, 10, 4), []SortColumn{{Column: 0}, {Column: 1}, {Column: 2}, {Column: 3}}},
		{"integer keys beside a varchar", held, heldKeys},
	} {
		s := finalizedSorter(t, tc.tbl, tc.keys, Options{Threads: 1, RunSize: vector.DefaultVectorSize, SpillDir: t.TempDir()})
		var diskBytes int64
		diskRows := 0
		for _, r := range s.runs {
			diskBytes, diskRows = diskBytes+r.spill.Size(), diskRows+r.rows
		}
		est := s.outputRowBytes(diskBytes, diskRows)
		for i, c := range drainAll(t, s).Chunks {
			bytes := int64(0)
			for _, v := range c.Vectors {
				if v.Type() != vector.Varchar {
					bytes += int64(v.Type().Width() * v.Len())
					continue
				}
				for _, str := range v.Strings()[:v.Len()] {
					bytes += 16 + int64(len(str))
				}
			}
			if bytes > est*int64(c.Len()) {
				t.Errorf("%s: chunk %d holds %d bytes in %d rows, over the estimate's %d a row", tc.name, i, bytes, c.Len(), est)
			}
		}
		s.Close()
	}
}

// TestTieBreakFetchesOnlyOverflowingPairs counts the full-string fetches of
// the merge's comparator (mergeOrder's lookup) over every pair of key rows of
// a sort whose chunks mix names that fit the 12-byte prefix — the empty
// string, exactly 12 bytes, a NOCASE twin — with names that overflow it or
// hold a NUL, and NULLs, under ASC, DESC and NOCASE and both NULL placements.
// A pair where either side fits, or is NULL, is decided by its key bytes
// alone, the residence byte included: no fetch. Pairs of overflowing names
// that tie on their prefixes are fetched, and every pair compares as the
// oracle does. The sort equals the stable oracle order.
func TestTieBreakFetchesOnlyOverflowingPairs(t *testing.T) {
	names := []string{"", "a", "Ab", "ab\x00", "abcdefghijkl", "ABCDEFGHIJKL", "abcdefghijklm", "abcdefghijklz",
		"ABCDEFGHIJKLM", "abcdefghijkl\x00", "zz", "abcdefghijk"}
	schema := vector.Schema{{Name: "s", Type: vector.Varchar}, {Name: "id", Type: vector.Int32}}
	tbl := vector.NewTable(schema)
	var vals []*string // by id: nil for NULL
	for chunk := 0; chunk < 4; chunk++ {
		c := vector.NewChunk(schema, 48)
		for r := 0; r < 48; r++ {
			id := len(vals)
			switch name := names[(id*7+chunk)%len(names)]; {
			case r%11 == 3:
				c.Vectors[0].AppendNull()
				vals = append(vals, nil)
			case chunk == 0 && !normkey.FitsPrefix(name, normkey.DefaultStringPrefixLen):
				c.Vectors[0].AppendString(name[:2]) // the first chunk's names all fit
				vals = append(vals, &[]string{name[:2]}[0])
			default:
				c.Vectors[0].AppendString(name)
				vals = append(vals, &[]string{name}[0])
			}
			c.Vectors[1].AppendInt32(int32(id))
		}
		tbl.Chunks = append(tbl.Chunks, c)
	}
	fits := func(id int32) bool {
		return vals[id] == nil || normkey.FitsPrefix(*vals[id], normkey.DefaultStringPrefixLen)
	}
	show := func(id int32) string {
		if vals[id] == nil {
			return "NULL"
		}
		return fmt.Sprintf("%q", *vals[id])
	}
	fetched := 0
	for _, desc := range []bool{false, true} {
		for _, nocase := range []bool{false, true} {
			for _, last := range []bool{false, true} {
				keys := []SortColumn{{Column: 0, Descending: desc, CaseInsensitive: nocase, NullsLast: last}}
				ctx := fmt.Sprintf("%+v", keys[0])
				s := finalizedSorter(t, tbl, keys, Options{Threads: 1, RunSize: 96})
				idPay := s.place.cols[1].pay
				type keyRow struct {
					run int
					row []byte
				}
				id := func(r keyRow) int32 {
					return s.runs[r.run].payload.Value(int(s.getRef(r.row)), idPay).(int32)
				}
				calls := 0
				_, order := s.mergeOrder(true, func(run int, idx uint32) (*row.RowSet, int) {
					calls++
					return s.payloadOf(&mergePlan{ids: s.resultIDs}, nil)(run, idx)
				})
				var rows []keyRow
				for i, r := range s.runs {
					for o := 0; o < len(r.keys); o += s.place.rowWidth {
						rows = append(rows, keyRow{i, r.keys[o : o+s.place.rowWidth]})
					}
				}
				col := tbl.Column(0)
				for _, a := range rows {
					for _, b := range rows {
						before := calls
						got := order(a.row, a.run, b.row, b.run)
						ia, ib := id(a), id(b)
						if calls > before && (fits(ia) || fits(ib)) {
							t.Fatalf("%s: comparing %s with %s fetched %d full strings", ctx, show(ia), show(ib), calls-before)
						}
						if want := normkey.CompareValues(s.enc.Keys()[0], col, int(ia), col, int(ib)); cmp.Compare(got, 0) != cmp.Compare(want, 0) {
							t.Fatalf("%s: rows %d and %d compare %d, want %d", ctx, ia, ib, got, want)
						}
					}
				}
				fetched += calls
				checkOracle(t, ctx, tbl, resultChecked(t, s), keys, true)
				s.Close()
			}
		}
	}
	if fetched == 0 {
		t.Error("no pair of overflowing names was fetched: the tie path went untested")
	}
}
