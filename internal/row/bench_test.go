package row

import (
	"encoding/hex"
	"fmt"
	"math/rand"
	"testing"

	"rowsort/internal/normkey"
	"rowsort/internal/vector"
	"rowsort/internal/workload"
)

// The row kernels timed out of cache, at the benchmark's three payload
// shapes: the wide row of mem-wide-payload (an Int32 key, twelve Int64 and a
// 24-byte string: 112-byte rows), the customer row of mem-customer-str (four
// Int32, three with NULLs, and two name strings: 40-byte rows) and the int
// row of mem-uniform-int (two Int64: 24-byte rows, the stride of
// ext-catalog-spill's five Int32 too). The customer row is timed twice: with
// its names on the heap ("customer"), and with them left in the keys of a
// sort on them ("customer-inkey": every name fits the 12-byte prefix, so the
// sorter stores none on the heap, its rows have no name slot — 24 bytes, the
// overflow reference in place of two slots — and its drain gathers them from
// the key rows). The int row is also timed as the sorter lays out mem-uniform-int's
// payload: v alone, a mask byte and 8 bytes unaligned, riding inline behind
// a 9-byte key in 24-byte key rows ("int-inline": scattered into the key
// rows, gathered from them in the merge's order). Each round moves one run of
// benchRunRows rows; the time is reported per row.

const (
	benchRunRows = 1 << 17
	benchRuns    = 8       // the runs a merge's references interleave
	benchBlock   = 1 << 12 // a spill block's rows
	benchChunk   = vector.DefaultVectorSize
)

// wideTable generates n rows of the wide payload shape.
func wideTable(n int) *vector.Table {
	schema := vector.Schema{{Name: "k", Type: vector.Int32}}
	for i := 0; i < 12; i++ {
		schema = append(schema, vector.Column{Name: fmt.Sprintf("p%d", i), Type: vector.Int64})
	}
	schema = append(schema, vector.Column{Name: "s", Type: vector.Varchar})
	rng := workload.NewRNG(1)
	t := vector.NewTable(schema)
	var raw [12]byte
	for done := 0; done < n; done += benchChunk {
		c := vector.NewChunk(schema, benchChunk)
		for r := 0; r < min(benchChunk, n-done); r++ {
			c.Vectors[0].AppendInt32(int32(rng.Uint32()))
			for p := 1; p <= 12; p++ {
				c.Vectors[p].AppendInt64(int64(rng.Uint64()))
			}
			for i := range raw {
				raw[i] = byte(rng.Uint32())
			}
			c.Vectors[13].AppendString(hex.EncodeToString(raw[:]))
		}
		t.Chunks = append(t.Chunks, c)
	}
	return t
}

// customerTable generates n rows of the customer shape.
func customerTable(n int) *vector.Table { return workload.Customer(n, 1) }

// benchShape is one payload shape's run, scattered, and what moves it: a
// random permutation of its rows (a sorted run's reorder or index gather)
// and references merged from benchRuns runs cut from it, each read in order.
type benchShape struct {
	name        string
	table       *vector.Table
	run         *RowSet
	runs        []*RowSet
	perm        []uint32
	which, idxs []uint32

	// A shape sorted on string keys leaves those that fit in its key rows,
	// as the sorter does: keyCols are the key columns, chunkKeys each
	// chunk's key rows, of keyStride bytes, segs where the key rows hold the
	// strings and refKeys the key row of each reference.
	keyCols   []int
	chunkKeys [][]byte
	keyStride int
	segs      []KeySegment
	refKeys   [][]byte
}

// inlineKeyWidth and inlineRowWidth are mem-uniform-int's key row: a 9-byte
// Int64 key and, behind it, its v column riding inline.
const inlineKeyWidth, inlineRowWidth = 9, 24

// inlineShape is the int shape's v column laid out inline: keyRows, the
// run's key rows with v behind each 9-byte key (which stays zero), and refs,
// those key rows in the order of the int shape's merged references.
type inlineShape struct {
	layout  *Layout
	table   *vector.Table
	keyRows []byte
	refs    [][]byte
}

// scatter writes the shape's v column behind the keys of keyRows.
func (in *inlineShape) scatter(b *testing.B, keyRows []byte) {
	for i, c := range in.table.Chunks {
		at := i * benchChunk * inlineRowWidth
		if err := in.layout.ScatterRows(keyRows[at+inlineKeyWidth:], inlineRowWidth, c.Len(), c.Vectors[1:]); err != nil {
			b.Fatal(err)
		}
	}
}

// newInlineShape lays out sh, the int shape, inline.
func newInlineShape(b *testing.B, sh *benchShape) *inlineShape {
	in := &inlineShape{layout: NewLayoutAligned([]vector.Type{vector.Int64}, 1), table: sh.table,
		keyRows: make([]byte, benchRunRows*inlineRowWidth)}
	in.scatter(b, in.keyRows)
	per := len(sh.table.Chunks) / benchRuns * benchChunk
	for o, r := range sh.which {
		at := (int(r)*per + int(sh.idxs[o])) * inlineRowWidth
		in.refs = append(in.refs, in.keyRows[at:at+inlineRowWidth])
	}
	return in
}

func benchShapes(b *testing.B) []*benchShape {
	b.Helper()
	rng := rand.New(rand.NewSource(1))
	var shapes []*benchShape
	for _, sh := range []*benchShape{
		{name: "wide", table: wideTable(benchRunRows)},
		{name: "customer", table: customerTable(benchRunRows)},
		{name: "customer-inkey", table: customerTable(benchRunRows), keyCols: []int{4, 5}},
		{name: "int", table: workload.UniformInt64s(benchRunRows, 1)},
	} {
		runKeys := sh.encodeKeys(b)
		l := NewLayout(sh.table.Schema.Types()).WithKeySegments(sh.segs)
		sh.run = NewRowSet(l)
		per := len(sh.table.Chunks) / benchRuns
		for i, c := range sh.table.Chunks {
			if err := sh.run.AppendChunkKeyed(c.Len(), c.Vectors, sh.chunkKey(i), sh.keyStride); err != nil {
				b.Fatal(err)
			}
			if i%per == 0 {
				sh.runs = append(sh.runs, NewRowSet(l))
			}
			if err := sh.runs[len(sh.runs)-1].AppendChunkKeyed(c.Len(), c.Vectors, sh.chunkKey(i), sh.keyStride); err != nil {
				b.Fatal(err)
			}
		}
		for _, p := range rng.Perm(benchRunRows) {
			sh.perm = append(sh.perm, uint32(p))
		}
		next := make([]uint32, benchRuns)
		for len(sh.idxs) < benchRunRows {
			r := rng.Intn(benchRuns)
			if int(next[r]) == sh.runs[r].Len() {
				continue
			}
			sh.which, sh.idxs = append(sh.which, uint32(r)), append(sh.idxs, next[r])
			if runKeys != nil {
				sh.refKeys = append(sh.refKeys, runKeys[r*per*benchChunk+int(next[r])])
			}
			next[r]++
		}
		shapes = append(shapes, sh)
	}
	return shapes
}

// encodeKeys encodes the shape's key columns, ASC, into one key row per input
// row, keeping each chunk's; nil for a shape with no keys.
func (sh *benchShape) encodeKeys(b *testing.B) [][]byte {
	if sh.keyCols == nil {
		return nil
	}
	keys := make([]normkey.SortKey, len(sh.keyCols))
	for i, c := range sh.keyCols {
		keys[i] = normkey.SortKey{Column: c, Type: sh.table.Schema[c].Type}
	}
	enc, err := normkey.NewEncoder(keys)
	if err != nil {
		b.Fatal(err)
	}
	sh.segs = make([]KeySegment, len(sh.table.Schema))
	for i, c := range sh.keyCols {
		sh.segs[c] = KeySegment{Off: enc.Offset(i) + 1, Prefix: keys[i].Prefix()}
	}
	rw := enc.Width() + 8
	sh.keyStride = rw
	var rows [][]byte
	cols := make([]*vector.Vector, len(sh.keyCols))
	for _, c := range sh.table.Chunks {
		for i, kc := range sh.keyCols {
			cols[i] = c.Vectors[kc]
		}
		buf := make([]byte, c.Len()*rw)
		if _, err := enc.EncodeChunk(cols, buf, rw, 0); err != nil {
			b.Fatal(err)
		}
		sh.chunkKeys = append(sh.chunkKeys, buf)
		for o := 0; o < len(buf); o += rw {
			rows = append(rows, buf[o:o+rw])
		}
	}
	return rows
}

// chunkKey returns chunk i's key rows, as AppendChunkKeyed takes them; nil
// for a shape with no keys.
func (sh *benchShape) chunkKey(i int) []byte {
	if sh.chunkKeys == nil {
		return nil
	}
	return sh.chunkKeys[i]
}

// perRow reports the round's time per row moved.
func perRow(b *testing.B) {
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N)/benchRunRows, "ns/row")
}

// BenchmarkScatter times AppendChunk over a run's chunks into a set reserved
// once and emptied between rounds, as a sink's pending set is, and ScatterRows
// of the int shape's v into key rows ("int-inline").
func BenchmarkScatter(b *testing.B) {
	shapes := benchShapes(b)
	b.Run("int-inline", func(b *testing.B) {
		in := newInlineShape(b, shapes[len(shapes)-1])
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			in.scatter(b, in.keyRows)
		}
		perRow(b)
	})
	for _, sh := range shapes {
		b.Run(sh.name, func(b *testing.B) {
			rs := NewRowSet(sh.run.Layout())
			rs.Reserve(sh.run.Len())
			rs.ReserveHeap(sh.run.HeapLen())
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				rs.Reset()
				for ci, c := range sh.table.Chunks {
					if err := rs.AppendChunkKeyed(c.Len(), c.Vectors, sh.chunkKey(ci), sh.keyStride); err != nil {
						b.Fatal(err)
					}
				}
			}
			perRow(b)
		})
	}
}

// BenchmarkGather times Gather in its three shapes, a chunk at a time: a
// sequential scan of the run, its rows in a random order, and references
// merged from benchRuns runs (the drain's shape). A shape with strings left
// in its keys has only the last: the drain's, which has the key rows. The int
// shape laid out inline is gathered from its key rows, in the order of the
// same merged references (the drain's shape for an inline payload).
func BenchmarkGather(b *testing.B) {
	shapes := benchShapes(b)
	b.Run("int-inline/inline", func(b *testing.B) {
		in := newInlineShape(b, shapes[len(shapes)-1])
		g := NewGather(in.layout)
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			for at := 0; at < benchRunRows; at += benchChunk {
				g.Inline(in.refs[at:at+benchChunk], inlineKeyWidth)
				g.Vectors()
			}
		}
		perRow(b)
	})
	for _, sh := range shapes {
		g := NewGather(sh.run.Layout())
		refKeys := func(at, n int) [][]byte {
			if sh.refKeys == nil {
				return nil
			}
			return sh.refKeys[at : at+n]
		}
		for _, shape := range []struct {
			name    string
			resolve func(at, n int)
		}{
			{"range", func(at, n int) { g.Range(sh.run, at, n) }},
			{"index", func(at, n int) { g.Index(sh.run, sh.perm[at:at+n]) }},
			{"refs", func(at, n int) { g.Refs(sh.runs, sh.which[at:at+n], sh.idxs[at:at+n], refKeys(at, n)) }},
		} {
			if sh.keyCols != nil && shape.name != "refs" {
				continue
			}
			b.Run(sh.name+"/"+shape.name, func(b *testing.B) {
				b.ReportAllocs()
				for i := 0; i < b.N; i++ {
					for at := 0; at < benchRunRows; at += benchChunk {
						shape.resolve(at, benchChunk)
						g.Vectors()
					}
				}
				perRow(b)
			})
		}
	}
}

// BenchmarkReorder times the payload reorder: a run's rows permuted into a
// set with room for them (Sink.flush), and references merged from benchRuns
// runs gathered a spill block at a time into one staging set
// (spill.Writer.Flush).
func BenchmarkReorder(b *testing.B) {
	for _, sh := range benchShapes(b) {
		dst := NewRowSet(sh.run.Layout())
		dst.Reserve(sh.run.Len())
		dst.ReserveHeap(sh.run.HeapLen())
		b.Run(sh.name+"/index", func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				dst.Reset()
				dst.AppendPermuted(sh.run, sh.perm)
			}
			perRow(b)
		})
		b.Run(sh.name+"/refs", func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				for at := 0; at < benchRunRows; at += benchBlock {
					dst.Reset()
					dst.AppendRowsGather(sh.runs, sh.which[at:at+benchBlock], sh.idxs[at:at+benchBlock])
				}
			}
			perRow(b)
		})
	}
}
