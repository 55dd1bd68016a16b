package core

import (
	"slices"

	"rowsort/internal/normkey"
	"rowsort/internal/row"
	"rowsort/internal/vector"
)

// where is the one place a schema column's values live (see place).
type where uint8

const (
	inSet     where = iota // a payload column, in the payload's row sets, behind the row's reference
	inRow                  // a payload column, packed behind the key in the key row
	heldByKey              // held exactly by a key: the payload does not store it
	inSegment              // a string in the payload's sets that stays in a key's segment when it fits
)

// colPlace is where one schema column lives: the key that holds it, or whose
// segment may hold its strings (-1 for neither), and its place in the payload
// row (-1 for a held column).
type colPlace struct {
	where    where
	key, pay int
}

// placement is where a sort keeps each column's values, and what follows from
// it, decided once by place. It is the one map between schema columns and
// payload columns: every other reader takes a number or a kernel's choice
// from it.
type placement struct {
	cols  []colPlace // per schema column
	byKey []colPlace // per key: its column's, for the tie comparator's lookup

	layout    *row.Layout // the payload row, of the columns no key holds, in schema order
	setLayout *row.Layout // the payload sets' rows: layout, or no column for an inline payload
	inline    bool        // the payload rides in the key row, which then carries no reference
	rowWidth  int         // key row stride, 8-aligned
	padded    bool        // a key row has padding behind its reference or inline payload
	readsKeys bool        // the drain reads an output row's key row: some column lives outside the payload's sets

	// A pending row's fixed bytes: its key row, a radix-scratch row and, with
	// a set, its payload row and a permutation entry. And what an output row
	// holds that a spilled one, less its key row, does not: a string's 16-byte
	// header where the row has an 8-byte reference, and all of it beside a key
	// segment's bytes where the row has no slot; an inline payload's bytes; and
	// a held column's vector slot.
	pendingRow, outputRow int64
}

// inlineBytes is how far past the key, to the next 8-byte boundary, a payload
// may reach and ride inline: a key row at most one word wider than the
// reference's, which costs run generation and the merge less than the payload
// set, its reorder and the drain's second fetch that it saves (EXPERIMENTS.md,
// "A small payload rides in its key row"). It is not the reference's width.
const inlineBytes = 8

// place decides, once for the sort, where each of schema's columns lives.
//
// A Bool or integer key holds its column exactly (normkey's Exact, in any
// order and NULL placement): the first such key holds it, and the drain
// decodes it from the key rows (outputVectors). The payload is the other
// columns. By default a key row is the key and a 4-byte payload reference,
// and the payload rows live in row sets of the aligned layout. The payload
// rides inline instead — mask and values packed unaligned behind the key,
// within inlineBytes of it — when no key can tie, so the comparator never
// looks for a payload, and it has no string, which would want a heap. A
// string column keyed ASC under binary collation has a segment
// that is the string's own bytes, zero-padded, behind the validity byte and
// ahead of the residence byte that says whether they are the whole string
// (normkey.FitsPrefix): a string that fits stays there, and the payload row
// has no slot for the column — a string that overflows lies in the row's
// overflow record (row.Layout.WithKeySegments). The segment is that of the column's
// shortest key, which must be such a key: a string that overflows any key of
// the column then overflows that one, and lies on the heap, where the tie-break
// reads it. DESC inverts a segment and NOCASE folds it, so a column whose
// shortest key is keyed so keeps its strings on the heap.
func place(schema vector.Schema, enc *normkey.Encoder) placement {
	keys, kw := enc.Keys(), enc.Width()
	p := placement{cols: slices.Repeat([]colPlace{{key: -1, pay: -1}}, len(schema))}
	for k, key := range keys {
		switch c := &p.cols[key.Column]; {
		case key.Exact() && c.key < 0:
			c.where, c.key = heldByKey, k
		case key.Type == vector.Varchar && (c.key < 0 || key.Prefix() < keys[c.key].Prefix()):
			c.key = k // the column's shortest key, the first of them
		}
	}
	var types []vector.Type
	var segs []row.KeySegment
	for i := range p.cols {
		c := &p.cols[i]
		if c.where == heldByKey {
			continue
		}
		var seg row.KeySegment
		if k := c.key; k >= 0 && keys[k].Order == normkey.Ascending && keys[k].Collation == normkey.CollationBinary {
			c.where, seg = inSegment, row.KeySegment{Off: enc.Offset(k) + 1, Prefix: keys[k].Prefix()}
		} else {
			c.key = -1
		}
		c.pay = len(types)
		types = append(types, schema[i].Type)
		segs = append(segs, seg)
	}
	p.rowWidth = (kw + refBytes + 7) &^ 7
	p.layout = row.NewLayoutAligned(types, 1)
	p.inline = !enc.TiesPossible() && !slices.Contains(types, vector.Varchar) && kw+p.layout.Width() <= (kw+inlineBytes+7)&^7
	if p.inline {
		p.rowWidth = (kw + p.layout.Width() + 7) &^ 7
		p.padded = kw+p.layout.Width() < p.rowWidth
		p.setLayout = row.NewLayout(nil)
		p.pendingRow, p.outputRow = int64(2*p.rowWidth), int64(p.layout.Width())
	} else {
		p.layout = row.NewLayout(types).WithKeySegments(segs)
		p.setLayout = p.layout
		p.padded = kw+refBytes < p.rowWidth
		p.pendingRow = int64(2*p.rowWidth + p.layout.Width() + 4)
	}
	for i, c := range p.cols {
		switch {
		case c.where == heldByKey:
			p.outputRow += int64(schema[i].Type.Width())
		case p.inline:
			p.cols[i].where = inRow
		case c.where == inSegment:
			p.outputRow += int64(keys[c.key].Prefix()) + 16
		case schema[i].Type == vector.Varchar:
			p.outputRow += 8
		}
		p.readsKeys = p.readsKeys || p.cols[i].where != inSet
	}
	for _, key := range keys {
		p.byKey = append(p.byKey, p.cols[key.Column])
	}
	return p
}

// payloadVectors fills dst with the payload's columns of a chunk's vectors.
func (p *placement) payloadVectors(dst, vecs []*vector.Vector) {
	for i, c := range p.cols {
		if c.pay >= 0 {
			dst[c.pay] = vecs[i]
		}
	}
}

// outputVectors returns an output chunk's vectors in schema order: the
// payload's, gathered, and each column a key holds decoded from the chunk's
// key rows.
func (p *placement) outputVectors(enc *normkey.Encoder, payload []*vector.Vector, keys [][]byte) []*vector.Vector {
	if len(payload) == len(p.cols) {
		return payload
	}
	out := make([]*vector.Vector, len(p.cols))
	for i, c := range p.cols {
		if c.where == heldByKey {
			out[i] = enc.DecodeColumn(c.key, keys)
		} else {
			out[i] = payload[c.pay]
		}
	}
	return out
}
