package spill

import (
	"bufio"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io"

	"rowsort/internal/obs"
	"rowsort/internal/row"
)

// Writer writes one run's spill file, a row at a time, and cuts it into
// blocks: whoever has sorted rows to put on disk — a run leaving memory, a
// merge pass — names rows by their key rows and where their payloads are, one
// at a time (Add) or a block at once (AddRows), and says what those places
// are once a block's worth is named (Flush). The
// payload rows move once, from where they are into the block. The writer
// records the file's block index as the blocks stream out.
//
// A write that fails removes the partial file and fails the writer: nothing
// is left on disk by a writer that did not Finish.
type Writer struct {
	d  *Dir
	f  *File
	wc io.WriteCloser
	bw *bufio.Writer
	cw countingWriter // over bw: the file's length so far, and the block's checksum

	flushed int  // rows written so far
	done    bool // Finish returned the file, or the writer gave it up
	// One block under construction: its pending rows' key rows — in buf,
	// which the first Add makes, or where AddRows found them — and payload
	// references (a full block's worth of room), and the set their payload is
	// gathered into.
	pending     int
	keys, buf   []byte
	which, idxs []uint32
	staging     *row.RowSet
	sum         [checksumLen]byte // the block's checksum, as written
}

// NewWriter creates the file of run id — rows rows of shape format, in blocks
// of blockRows — and writes its header. staging is an empty row set of the
// format's layout that is the writer's until Finish or a failure.
func (d *Dir) NewWriter(id uint32, format Format, blockRows, rows int, staging *row.RowSet) (*Writer, error) {
	name, wc, err := d.create(id)
	if err != nil {
		return nil, err
	}
	numBlocks := (rows + blockRows - 1) / blockRows
	w := &Writer{d: d, wc: wc, bw: bufio.NewWriter(wc), staging: staging,
		f: &File{name: name, format: format, blockRows: blockRows, rows: rows,
			offs: make([]int64, 0, numBlocks), fences: make([]byte, 0, numBlocks*format.RowWidth), fencePayload: row.NewRowSet(format.Layout)},
		which: make([]uint32, blockRows), idxs: make([]uint32, blockRows)}
	w.cw.w = w.bw
	hdr := w.f.header()
	if _, err := w.cw.Write(hdr[:]); err != nil {
		return nil, w.fail(err)
	}
	return w, nil
}

// Add names the run's next row: keyRow is its key row, and its payload is row
// idx of the which-th of the sets the next Flush is given. It returns the key
// row's copy in the block, which the caller may still write to (a merge
// points the row's payload reference at its place in the new run). A block
// with no Room left must be flushed first.
func (w *Writer) Add(keyRow []byte, which, idx uint32) []byte {
	rw := w.f.format.RowWidth
	if w.buf == nil {
		w.buf = make([]byte, w.f.blockRows*rw)
	}
	dst := w.buf[w.pending*rw : (w.pending+1)*rw]
	row.MoveRow(dst, keyRow[:rw])
	w.which[w.pending], w.idxs[w.pending] = which, idx
	w.pending++
	w.keys = w.buf[:w.pending*rw]
	return dst
}

// AddRows names a whole block, or the run's last rows, at once: keyRows holds
// the key rows back to back — no more than the empty block has Room for —
// and their payloads are rows idx, idx+1, … of the which-th set or, given a
// permutation perm, its rows perm[idx], perm[idx+1], …. The key rows are not
// copied: they must stay as they are until the Flush that has to follow.
func (w *Writer) AddRows(keyRows []byte, which, idx uint32, perm []uint32) {
	w.keys, w.pending = keyRows, len(keyRows)/w.f.format.RowWidth
	for i := 0; i < w.pending; i++ {
		w.which[i], w.idxs[i] = which, idx+uint32(i)
	}
	if perm != nil {
		copy(w.idxs[:w.pending], perm[idx:])
	}
}

// Room returns how many more rows the block under construction takes before
// Flush is due.
func (w *Writer) Room() int { return w.f.blockRows - w.pending }

// Flush writes the rows added since the last as one block, their payload
// gathered from sets, keeps the block's first row — key row and payload — as
// its fence, and reports how many there were. After it the caller may let go
// of what the references pointed into.
func (w *Writer) Flush(sets []*row.RowSet) (int, error) {
	rows, rw := w.pending, w.f.format.RowWidth
	if rows == 0 {
		return 0, nil
	}
	w.staging.Reset()
	w.staging.AppendRowsGather(sets, w.which[:rows], w.idxs[:rows])
	w.f.offs = append(w.f.offs, w.cw.n)
	w.f.fences = append(w.f.fences, w.keys[:rw]...)
	w.f.fencePayload.AppendRowsGather([]*row.RowSet{w.staging}, nil, firstRow)
	w.cw.sum = 0
	_, err := w.cw.Write(w.keys)
	if err == nil {
		_, err = w.staging.WriteTo(&w.cw)
	}
	if err == nil {
		binary.LittleEndian.PutUint32(w.sum[:], w.cw.sum)
		_, err = w.cw.Write(w.sum[:])
	}
	if err != nil {
		return rows, w.fail(err)
	}
	w.flushed += rows
	w.pending, w.keys = 0, nil
	return rows, nil
}

// firstRow names a block's fence payload: its staging's first row.
var firstRow = []uint32{0}

// Finish closes the file, which must have been fed every row its header
// promised and flushed, and returns its index.
func (w *Writer) Finish() (*File, error) {
	if w.flushed != w.f.rows || w.pending != 0 {
		return nil, w.Abort(fmt.Errorf("spill: %s was fed %d of its %d rows", w.f.name, w.flushed, w.f.rows))
	}
	if err := w.bw.Flush(); err != nil {
		return nil, w.fail(err)
	}
	wc := w.wc
	w.wc = nil
	if err := wc.Close(); err != nil {
		return nil, w.fail(err)
	}
	w.d.ctr.Add(obs.SpillBytesWritten, w.cw.n)
	w.f.size, w.done = w.cw.n, true
	return w.f, nil
}

// Abort gives up on the file: it is removed, and err returned — joined with
// the removal's own failure if it has one, which leaves the file to
// Dir.Close. For the caller whose own source of rows failed, and for an
// owner's defer, which a panic unwinds through too: once Finish has returned
// the file, or the writer has given it up, Abort only returns err.
func (w *Writer) Abort(err error) error {
	if w.done {
		return err
	}
	w.done = true
	if w.wc != nil {
		w.wc.Close()
		w.wc = nil
	}
	return errors.Join(err, w.d.remove(w.f.name))
}

// fail is Abort for a failure of the file itself.
func (w *Writer) fail(err error) error {
	return w.Abort(fmt.Errorf("spill: writing %s: %w", w.f.name, err))
}

// countingWriter counts the bytes written through it, and checksums them
// from wherever its sum was last set to 0.
type countingWriter struct {
	w   io.Writer
	n   int64
	sum uint32
}

func (c *countingWriter) Write(p []byte) (int, error) {
	n, err := c.w.Write(p)
	c.n += int64(n)
	c.sum = crc32.Update(c.sum, castagnoli, p[:n])
	return n, err
}
