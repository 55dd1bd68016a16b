// Package spill is the one module that knows a spill file: a sorted run —
// flat key rows plus a row-format payload — offloaded to secondary storage in
// one unified format with no conversion (the paper's §IX). It holds the
// format and its checksummed block, the writer, the index a written file
// leaves in memory (block offsets and fences: each block's first key row and
// its payload row), the stage that reads the blocks back for a merge, and the
// planner that cuts a merge into tasks at the fences, in the merge's whole
// order. It knows nothing of the sorter: key and payload shapes, a
// broker reservation and the counter block come in as values, and the disk
// is reached only through FS. What to spill and when, and the merge itself,
// are the sorter's.
package spill

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io"

	"rowsort/internal/obs"
	"rowsort/internal/row"
)

// A spill file is a header — magic, rows per block, rows in all — and then
// its blocks, each the block's key rows as they are, then its payload rows as
// row.RowSet.WriteTo lays them out (with a block-local string heap, so a
// reader needs only that block resident to resolve a tie-break lookup), then
// the CRC-32C of those two sections, little-endian. Every block but the last
// holds the header's rows per block. A spill file is a temp file read back by
// the process that wrote it: there is no other format to stay compatible
// with.
const (
	magic       = 0x52534233 // "RSB3": row-sort blocks, format 3
	headerLen   = 16
	checksumLen = 4
)

// castagnoli is the checksum's polynomial table: CRC-32C, which the hardware
// computes at memory speed.
var castagnoli = crc32.MakeTable(crc32.Castagnoli)

// ErrCorrupt is what a read of a spill file whose bytes are not those written
// returns, wrapped: a header that disagrees with the run's index, or a block
// that does not match its checksum.
var ErrCorrupt = errors.New("corrupt spill file")

// Format is the shape of the rows in a sort's spill files. A payload that
// rides inline in its key rows is written with them, and its blocks' payload
// sets have a layout of no column.
type Format struct {
	RowWidth int         // key row stride: the key, then its payload reference or inline payload, padding
	Layout   *row.Layout // payload set rows
}

// File is a run on disk: its name and the block index recorded while it was
// written — the byte offset of every block and the block's first row (the
// fences: key rows concatenated at the key-row stride, so they form a
// mergepath.Run the task planner can search directly, and their payload
// rows, strings and all, so a fence compares in the merge's whole order even
// where its key ties), and the file's length, which ends the last block. The
// offsets let a merge read any block with one positioned read; the fences
// bound each block's key range without reading it. The index costs one row
// plus one offset per block, lives only in memory, and is part of the
// sorter's documented budget slack.
type File struct {
	name         string
	format       Format
	blockRows    int // rows in every block but the last
	rows         int
	offs         []int64
	fences       []byte
	fencePayload *row.RowSet // row b is block b's first payload row
	size         int64
}

// NumBlocks returns how many blocks the file holds.
func (f *File) NumBlocks() int { return len(f.offs) }

// BlockRows returns the rows of every block but the last.
func (f *File) BlockRows() int { return f.blockRows }

// FencePayload returns the payload rows of the fences: row b is the payload
// of block b's first row, which is the run's row b*BlockRows.
func (f *File) FencePayload() *row.RowSet { return f.fencePayload }

// Size returns the file's length in bytes.
func (f *File) Size() int64 { return f.size }

// MaxBlockBytes returns the length of the file's largest block: what a
// merge holds, decoded, for one block of the run at most — its key rows, its
// payload and the payload's string heap.
func (f *File) MaxBlockBytes() int64 {
	var most int64
	for b := range f.offs {
		most = max(most, f.blockEnd(b)-f.offs[b])
	}
	return most
}

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
		err = fmt.Errorf("%w: header says magic %#x and %d rows in blocks of %d, the run has %d in blocks of %d", ErrCorrupt,
			binary.LittleEndian.Uint32(hdr[0:]), binary.LittleEndian.Uint64(hdr[8:]), binary.LittleEndian.Uint32(hdr[4:]), f.rows, f.blockRows)
	}
	if err != nil {
		r.Close()
		return nil, fmt.Errorf("spill: reading spill header of %s: %w", f.name, err)
	}
	return r, nil
}

// Block is one decoded block of a spilled run. Its key rows and payload alias
// buf, the read buffer it was read into, which the stage that read it reuses
// once the block is freed.
type Block struct {
	Keys    []byte      // the block's key rows
	Payload *row.RowSet // its payload rows: row i of the run is row i-Start
	Start   int         // the run's row index of the block's first row
	buf     []byte      // the read buffer: its capacity is what the block is charged
}

// read reads block b into buf, which must hold the block's bytes within its
// capacity, with one positioned read, checks it against its checksum and
// decodes it in place: its key rows and payload alias buf. Bytes that are not
// those the block was written with are ErrCorrupt.
func (f *File) read(r io.ReaderAt, b int, buf []byte, ctr *obs.Block) (*Block, error) {
	n := f.blockEnd(b) - f.offs[b]
	raw := buf[:n:n]
	got, err := r.ReadAt(raw, f.offs[b])
	ctr.Add(obs.SpillBytesRead, int64(got))
	if got < len(raw) {
		if err == nil || err == io.EOF {
			err = io.ErrUnexpectedEOF
		}
		return nil, fmt.Errorf("spill: reading block %d of %s: %w", b, f.name, err)
	}
	blk, err := f.decode(raw, b)
	if err != nil {
		return nil, fmt.Errorf("spill: block %d of %s: %w: %w", b, f.name, ErrCorrupt, err)
	}
	blk.buf = buf
	return blk, nil
}

// decode checks and decodes block b from the bytes the index says are its.
func (f *File) decode(raw []byte, b int) (*Block, error) {
	rows, rw := f.blockLen(b), f.format.RowWidth
	if len(raw) < rows*rw+checksumLen {
		return nil, fmt.Errorf("shorter than its %d key rows", rows)
	}
	body := raw[:len(raw)-checksumLen]
	if want, got := binary.LittleEndian.Uint32(raw[len(body):]), crc32.Checksum(body, castagnoli); got != want {
		return nil, fmt.Errorf("checksum %#08x, written as %#08x", got, want)
	}
	blk := &Block{Keys: body[: rows*rw : rows*rw], Start: b * f.blockRows}
	var err error
	if blk.Payload, err = row.ViewRowSet(body[rows*rw:], f.format.Layout); err != nil {
		return nil, fmt.Errorf("payload: %w", err)
	}
	if blk.Payload.Len() != rows {
		return nil, fmt.Errorf("%d payload rows for %d key rows", blk.Payload.Len(), rows)
	}
	return blk, nil
}
