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
// segment may hold its strings (-1 for neither); its place in the payload row
// (-1 for a held column); and where its strings start in a key row, for
// inSegment.
type colPlace struct {
	where         where
	key, pay, seg int
}

// keySegment returns the key row from where the column's key-resident string
// starts, for RowSet.StringIn; nil when it has none.
func (c colPlace) keySegment(keyRow []byte) []byte {
	if c.where != inSegment {
		return nil
	}
	return keyRow[c.seg:]
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
	segs      []int       // per payload column, its seg: -1 unless inSegment
	readsKeys bool        // the drain reads an output row's key row: some column lives outside the payload's sets

	// A pending row's fixed bytes: its key row, a radix-scratch row and, with
	// a set, its payload row and a permutation entry. And what an output row
	// holds that a spilled one, less its key row, does not: a string's 16-byte
	// header where the row has an 8-byte reference, an inline payload's bytes,
	// a key segment's bytes and a held column's vector slot.
	pendingRow, outputRow int64
}

// place decides, once for the sort, where each of schema's columns lives.
//
// A Bool or integer key holds its column exactly (normkey's Exact, in any
// order and NULL placement): the first such key holds it, and the drain
// decodes it from the key rows (outputVectors). The payload is the other
// columns. By default a key row is the key and an 8-byte payload reference,
// and the payload rows live in row sets of the aligned layout. The payload
// rides inline instead — mask and values packed unaligned behind the key, in
// a key row no wider than the reference makes it — when no key can tie, so
// the comparator never looks for a payload, and it has no string, which would
// want a heap. A string column keyed ASC under binary collation has a segment
// that is the string's own bytes, zero-padded, behind the validity byte — the
// longest such prefix's, where the column is keyed so more than once: a
// string that fits it (normkey.FitsPrefix) stays there, and its payload slot
// holds only its length (Sink.Append). DESC inverts a segment and NOCASE
// folds it, so a column keyed only so keeps its strings on the heap.
func place(schema vector.Schema, enc *normkey.Encoder) placement {
	keys, kw := enc.Keys(), enc.Width()
	p := placement{cols: slices.Repeat([]colPlace{{key: -1, pay: -1, seg: -1}}, len(schema))}
	for k, key := range keys {
		switch c := &p.cols[key.Column]; {
		case key.Exact() && c.key < 0:
			c.where, c.key = heldByKey, k
		case key.Type == vector.Varchar && key.Order == normkey.Ascending && key.Collation == normkey.CollationBinary &&
			(c.key < 0 || keys[c.key].Prefix() < key.Prefix()):
			c.where, c.key, c.seg = inSegment, k, enc.Offset(k)+1
		}
	}
	var types []vector.Type
	for i, c := range p.cols {
		if c.where != heldByKey {
			p.cols[i].pay = len(types)
			types = append(types, schema[i].Type)
			p.segs = append(p.segs, c.seg)
		}
	}
	p.rowWidth = (kw + refBytes + 7) &^ 7
	p.layout = row.NewLayoutAligned(types, 1)
	p.inline = !enc.TiesPossible() && !slices.Contains(types, vector.Varchar) && kw+p.layout.Width() <= p.rowWidth
	if p.inline {
		p.rowWidth = (kw + p.layout.Width() + 7) &^ 7
		p.padded = kw+p.layout.Width() < p.rowWidth
		p.setLayout = row.NewLayout(nil)
		p.pendingRow, p.outputRow = int64(2*p.rowWidth), int64(p.layout.Width())
	} else {
		p.layout = row.NewLayout(types)
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
			p.outputRow += int64(keys[c.key].Prefix())
		}
		if schema[i].Type == vector.Varchar {
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

// keyResident fills inKey, per payload column, with the strings a chunk's keys
// just encoded (st) leave there, as row.RowSet.AppendChunkKeyed takes them:
// all of a column whose key did not tie, and where it did, each that fits the
// key's prefix.
func (p *placement) keyResident(inKey []int, st normkey.EncodeStats, keys []normkey.SortKey) []int {
	for _, c := range p.cols {
		if c.where == inSegment {
			inKey[c.pay] = row.AllInKey
			if st.Tied(c.key) {
				inKey[c.pay] = keys[c.key].Prefix()
			}
		}
	}
	return inKey
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
