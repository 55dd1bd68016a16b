// Package spill is the one module that knows a spill file: a sorted run —
// flat key rows plus a row-format payload — offloaded to secondary storage in
// one unified format with no conversion (the paper's §IX). It holds the
// format and its block codec, the writer, the index a written file leaves in
// memory (block offsets and fences), the stage that reads the blocks back for
// a merge, and the planner that cuts a merge into tasks at the fences. It
// knows nothing of the sorter: key and payload shapes, a broker reservation
// and the counter block come in as values, and the disk is reached only
// through FS. What to spill and when, and the merge itself, are the
// sorter's.
package spill

import (
	"encoding/binary"
	"fmt"
	"io"

	"rowsort/internal/normkey"
	"rowsort/internal/obs"
	"rowsort/internal/row"
)

// A spill file is a header — magic, rows per block, rows in all — and then
// its blocks, each a key section followed by the payload rows as
// row.RowSet.WriteTo lays them out (with a block-local string heap, so a
// reader needs only that block resident to resolve a tie-break lookup). A key
// section opens with a tag byte: tagRaw, then the key rows as they are, or
// tagFrontCoded, then a little-endian uint32 length and that many bytes of
// normkey.AppendFrontCoded's encoding. A spill file is a temp file read back
// by the process that wrote it: there is no other format to stay compatible
// with.
const (
	magic     = 0x52534233 // "RSB3": row-sort blocks, format 3
	headerLen = 16

	tagRaw        = 0
	tagFrontCoded = 1
)

// fcPlanCutoff is the sampled encoded-to-raw ratio below which a block of a
// run whose plan asked for front-coding attempts it; blocks predicted to
// shrink by less than a fifth skip the encode work entirely. A plan asks
// whenever the key's first byte is constant (any NOT NULL leading column), so
// this is what keeps high-cardinality keys raw: sorted uniform int64 keys
// predict 0.92, and at the former cutoff of 0.95 coding them saved 2.4 % of
// the spill bytes for 15 % more wall time (EXPERIMENTS.md "Every run is
// planned"); duplicate-heavy keys predict 0.5–0.75.
const fcPlanCutoff = 0.8

// Format is the shape of the rows in a sort's spill files.
type Format struct {
	RowWidth int         // key row stride: the key, the payload reference, padding
	KeyWidth int         // normalized key bytes at the head of a key row
	Layout   *row.Layout // payload rows
}

// File is a run on disk: its name and the block index recorded while it was
// written — the byte offset of every block and the block's first key row (the
// fences, concatenated at the key-row stride so they form a mergepath.Run the
// task planner can search directly), and the file's length, which ends the
// last block. The offsets let a merge read any block with one positioned
// read; the fences bound each block's key range without reading it. The index
// costs one key row plus one offset per block and is part of the sorter's
// documented budget slack.
type File struct {
	name      string
	format    Format
	blockRows int // rows in every block but the last
	rows      int
	offs      []int64
	fences    []byte
	size      int64
}

// NumBlocks returns how many blocks the file holds.
func (f *File) NumBlocks() int { return len(f.offs) }

// Size returns the file's length in bytes.
func (f *File) Size() int64 { return f.size }

// blockEnd returns the offset block b ends at.
func (f *File) blockEnd(b int) int64 {
	if b+1 < len(f.offs) {
		return f.offs[b+1]
	}
	return f.size
}

// blockLen returns the rows of block b.
func (f *File) blockLen(b int) int { return min(f.blockRows, f.rows-b*f.blockRows) }

// fence returns block b's first key row.
func (f *File) fence(b int) []byte {
	return f.fences[b*f.format.RowWidth : (b+1)*f.format.RowWidth]
}

// header returns the file's first bytes.
func (f *File) header() (hdr [headerLen]byte) {
	binary.LittleEndian.PutUint32(hdr[0:], magic)
	binary.LittleEndian.PutUint32(hdr[4:], uint32(f.blockRows))
	binary.LittleEndian.PutUint64(hdr[8:], uint64(f.rows))
	return hdr
}

// open opens the file and checks its header against the index kept in memory.
func (f *File) open(d *Dir) (ReadAtCloser, error) {
	r, err := d.fs.Open(f.name)
	if err != nil {
		return nil, fmt.Errorf("spill: opening spill file: %w", err)
	}
	var hdr [headerLen]byte
	n, err := r.ReadAt(hdr[:], 0)
	d.ctr.Add(obs.SpillBytesRead, int64(n))
	if err == nil && hdr != f.header() {
		err = fmt.Errorf("header says magic %#x and %d rows in blocks of %d, the run has %d in blocks of %d",
			binary.LittleEndian.Uint32(hdr[0:]), binary.LittleEndian.Uint64(hdr[8:]), binary.LittleEndian.Uint32(hdr[4:]), f.rows, f.blockRows)
	}
	if err != nil {
		r.Close()
		return nil, fmt.Errorf("spill: reading spill header of %s: %w", f.name, err)
	}
	return r, nil
}

// Block is one decoded block of a spilled run.
type Block struct {
	Keys    []byte      // the block's key rows
	Payload *row.RowSet // its payload rows: row i of the run is row i-Start
	Start   int         // the run's row index of the block's first row
	bytes   int64       // accounted footprint
}

// read reads blocks [first, first+n) with one positioned read and decodes
// them in place: key rows and payloads alias the read buffer (which lives
// until the last of them is freed; each is accounted its share), except a
// front-coded key section, which decodes into a buffer of its own. Whatever
// does not add up to exactly the blocks the index promised is an error.
func (f *File) read(r io.ReaderAt, first, n int, ctr *obs.Block) ([]*Block, error) {
	raw := make([]byte, f.blockEnd(first+n-1)-f.offs[first])
	got, err := r.ReadAt(raw, f.offs[first])
	ctr.Add(obs.SpillBytesRead, int64(got))
	if got < len(raw) {
		if err == nil || err == io.EOF {
			err = io.ErrUnexpectedEOF
		}
		return nil, fmt.Errorf("spill: reading block %d of %s: %w", first, f.name, err)
	}
	blks := make([]*Block, n)
	for i := range blks {
		b := first + i
		from, to := f.offs[b]-f.offs[first], f.blockEnd(b)-f.offs[first]
		if blks[i], err = f.decode(raw[from:to:to], b); err != nil {
			return nil, fmt.Errorf("spill: block %d of %s: %w", b, f.name, err)
		}
	}
	return blks, nil
}

// decode decodes block b from the bytes the index says are its.
func (f *File) decode(rest []byte, b int) (*Block, error) {
	rows, rw := f.blockLen(b), f.format.RowWidth
	blk := &Block{Start: b * f.blockRows, bytes: int64(len(rest))}
	if len(rest) == 0 {
		return nil, fmt.Errorf("no key-section tag")
	}
	tag, rest := rest[0], rest[1:]
	switch tag {
	case tagRaw:
		if len(rest) < rows*rw {
			return nil, fmt.Errorf("shorter than its %d key rows", rows)
		}
		blk.Keys, rest = rest[:rows*rw:rows*rw], rest[rows*rw:]
	case tagFrontCoded:
		if len(rest) < 4 {
			return nil, fmt.Errorf("no front-coded length")
		}
		encLen := int(binary.LittleEndian.Uint32(rest))
		if rest = rest[4:]; encLen <= 0 || encLen > len(rest) {
			return nil, fmt.Errorf("front-coded key section of %d bytes for %d rows", encLen, rows)
		}
		blk.Keys = make([]byte, rows*rw)
		blk.bytes += int64(len(blk.Keys))
		if err := normkey.DecodeFrontCoded(blk.Keys, rest[:encLen], rw, f.format.KeyWidth, rows); err != nil {
			return nil, fmt.Errorf("decoding keys: %w", err)
		}
		rest = rest[encLen:]
	default:
		return nil, fmt.Errorf("unknown key-section tag %d", tag)
	}
	var err error
	if blk.Payload, err = row.ViewRowSet(rest, f.format.Layout); err != nil {
		return nil, fmt.Errorf("payload: %w", err)
	}
	if blk.Payload.Len() != rows {
		return nil, fmt.Errorf("%d payload rows for %d key rows", blk.Payload.Len(), rows)
	}
	return blk, nil
}
