package core

import (
	"bytes"
	"strings"
	"testing"

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
// so on the heap — writes exactly those names' bytes more: the fitting
// names' spill files hold none of theirs.
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
	checkOracle(t, "in memory", fit, resultChecked(t, s), keys, nil, true)

	spilled := func(tbl *vector.Table, stable bool) int64 {
		t.Helper()
		opt := opt
		opt.SpillDir = t.TempDir()
		s := finalizedSorter(t, tbl, keys, opt)
		defer s.Close()
		checkOracle(t, "on disk", tbl, drainAll(t, s), keys, nil, stable)
		return s.Stats().SpillBytesWritten
	}
	fitBytes, longBytes := spilled(fit, true), spilled(long, false)
	names := int64(0)
	for _, c := range long.Chunks {
		for _, col := range []int{4, 5} {
			for r, name := range c.Vectors[col].Strings()[:c.Len()] {
				if c.Vectors[col].Valid(r) {
					names += int64(len(name))
				}
			}
		}
	}
	if longBytes-fitBytes != names {
		t.Errorf("spilled %d bytes with names that fit and %d with longer ones, %d apart; want the longer names' %d",
			fitBytes, longBytes, longBytes-fitBytes, names)
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
	checkOracle(t, "after the failures", in, resultChecked(t, s), keys, nil, false)
}
