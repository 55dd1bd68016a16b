package core

import (
	"bytes"
	"fmt"
	"testing"

	"rowsort/internal/mergepath"
	"rowsort/internal/row"
	"rowsort/internal/vector"
	"rowsort/internal/workload"
)

// mixedTable builds a table with strings and NULLs across several chunks so
// the gather kernels see every access pattern: multiple runs, varchar heap
// compaction, and NULL validity.
func mixedTable(n int, seed uint64) *vector.Table {
	rng := workload.NewRNG(seed)
	schema := vector.Schema{
		{Name: "id", Type: vector.Int32},
		{Name: "grp", Type: vector.Int16},
		{Name: "name", Type: vector.Varchar},
		{Name: "score", Type: vector.Float64},
	}
	tbl := vector.NewTable(schema)
	for start := 0; start < n; start += vector.DefaultVectorSize {
		count := min(vector.DefaultVectorSize, n-start)
		c := vector.NewChunk(schema, count)
		for r := 0; r < count; r++ {
			c.Vectors[0].AppendInt32(int32(rng.Uint32()))
			if rng.Float64() < 0.1 {
				c.Vectors[1].AppendNull()
			} else {
				c.Vectors[1].AppendInt16(int16(rng.Intn(50)))
			}
			if rng.Float64() < 0.15 {
				c.Vectors[2].AppendNull()
			} else {
				c.Vectors[2].AppendString(fmt.Sprintf("name-%04d-%s", rng.Intn(400),
					"xyzpad"[:rng.Intn(6)]))
			}
			c.Vectors[3].AppendFloat64(rng.Float64())
		}
		if err := tbl.AppendChunk(c); err != nil {
			panic(err)
		}
	}
	return tbl
}

// rowify flattens a table into the row format so two tables can be compared
// byte for byte (values, validity, and string contents all land in the flat
// buffers deterministically when append order is fixed).
func rowify(t testing.TB, tbl *vector.Table) *row.RowSet {
	t.Helper()
	rs := row.NewRowSet(row.NewLayout(tbl.Schema.Types()))
	for _, c := range tbl.Chunks {
		if err := rs.AppendChunk(c.Vectors); err != nil {
			t.Fatal(err)
		}
	}
	return rs
}

// oracleResult is the reference result of a finalized sorter whose runs are
// all in memory, built with none of the machinery Rows uses: one
// single-threaded loser tree over the runs under the sort's whole-row
// comparator (mergepath.NewMerger at key width 0: no tasks, no bounds, no
// offset-value codes, no goroutines) into one key array, each row beside its
// run, then a value-at-a-time gather through RowSet.AppendTo (no
// typed kernels) of the payload's columns — through Layout.AppendValue of the
// key row, for an inline payload — and of a column a key holds, or of a
// string its key's residence byte says the key holds, Encoder.DecodeValue of
// the key row. A sort with a run on disk has only the streaming iterator to offer.
func oracleResult(t testing.TB, s *Sorter) *vector.Table {
	t.Helper()
	if !s.finalized {
		t.Fatal("oracleResult before Finalize")
	}
	if s.onDisk {
		out, err := s.Result()
		if err != nil {
			t.Fatal(err)
		}
		return out
	}
	runs := make([]mergepath.Run, len(s.runs))
	ids := make([]uint32, len(s.runs))
	anyTie := false
	for i, r := range s.runs {
		runs[i], ids[i] = mergepath.Run{Data: r.keys, Width: s.place.rowWidth}, uint32(i)
		anyTie = anyTie || r.tieBreak
	}
	_, cmp := s.mergeOrder(anyTie, s.payloadOf(&mergePlan{ids: ids}, nil))
	keys := make([]byte, 0, s.resultRows*s.place.rowWidth)
	from := make([]int, 0, s.resultRows) // each merged row's run
	for m := mergepath.NewMerger(runs, 0, cmp); ; {
		run, _, keyRow, ok := m.Next()
		if !ok {
			break
		}
		keys, from = append(keys, keyRow...), append(from, run)
	}
	out := vector.NewTable(s.schema)
	for start := 0; start < s.resultRows; start += vector.DefaultVectorSize {
		count := min(vector.DefaultVectorSize, s.resultRows-start)
		chunk := vector.NewChunk(s.schema, count)
		for c := range s.schema {
			for r := start; r < start+count; r++ {
				keyRow := keys[r*s.place.rowWidth : (r+1)*s.place.rowWidth]
				switch cp := s.place.cols[c]; cp.where {
				case heldByKey:
					v, err := s.enc.DecodeValue(cp.key, keyRow)
					if err != nil {
						t.Fatal(err)
					}
					appendAny(chunk.Vectors[c], v)
				case inRow:
					s.place.layout.AppendValue(chunk.Vectors[c], keyRow[s.keyWidth:], cp.pay)
				case inSegment:
					if keyRow[s.enc.Offset(cp.key)+1+s.enc.Keys()[cp.key].Prefix()] == 0 {
						v, err := s.enc.DecodeValue(cp.key, keyRow)
						if err != nil {
							t.Fatal(err)
						}
						appendAny(chunk.Vectors[c], v)
						break
					}
					fallthrough
				default:
					s.runs[from[r]].payload.AppendTo(chunk.Vectors[c], int(s.getRef(keyRow)), cp.pay)
				}
			}
		}
		if err := out.AppendChunk(chunk); err != nil {
			t.Fatal(err)
		}
	}
	return out
}

// appendAny appends v, a value as DecodeValue returns it (nil for NULL), to a
// vector of its type.
func appendAny(vec *vector.Vector, v any) {
	switch x := v.(type) {
	case nil:
		vec.AppendNull()
	case bool:
		vec.AppendBool(x)
	case int8:
		vec.AppendInt8(x)
	case int16:
		vec.AppendInt16(x)
	case int32:
		vec.AppendInt32(x)
	case int64:
		vec.AppendInt64(x)
	case uint8:
		vec.AppendUint8(x)
	case uint16:
		vec.AppendUint16(x)
	case uint32:
		vec.AppendUint32(x)
	case uint64:
		vec.AppendUint64(x)
	case string:
		vec.AppendString(x)
	default:
		panic(fmt.Sprintf("appendAny: a held key decoded to %T", v))
	}
}

// resultChecked drains the sorter through Result — the production path —
// and, when the runs are all in memory, checks the table against
// oracleResult before returning it.
func resultChecked(t testing.TB, s *Sorter) *vector.Table {
	t.Helper()
	got, err := s.Result()
	if err != nil {
		t.Fatal(err)
	}
	if !s.onDisk {
		if want := oracleResult(t, s); !bytes.Equal(rowify(t, got).Bytes(), rowify(t, want).Bytes()) {
			t.Fatalf("Result (threads=%d) differs from the scalar-merge, value-at-a-time oracle", s.opt.threads())
		}
	}
	return got
}

// TestResultEmptyAndErrors covers the degenerate paths of the result scan.
func TestResultEmptyAndErrors(t *testing.T) {
	schema := vector.Schema{{Name: "x", Type: vector.Int64}}
	s, err := NewSorter(schema, []SortColumn{{Column: 0}}, Options{Threads: 8})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := s.Result(); err == nil {
		t.Fatal("Result before Finalize should error")
	}
	sink := s.NewSink()
	if err := sink.Close(); err != nil {
		t.Fatal(err)
	}
	if err := s.Finalize(); err != nil {
		t.Fatal(err)
	}
	got := resultChecked(t, s)
	if got.NumRows() != 0 || len(got.Chunks) != 0 {
		t.Fatal("empty sorter should produce an empty table")
	}
}
