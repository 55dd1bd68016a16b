package spill

import (
	"bufio"
	"encoding/binary"
	"errors"
	"fmt"
	"io"

	"rowsort/internal/normkey"
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
	cw countingWriter // over bw: the file's length so far
	fc bool           // blocks try front-coding (the caller's choice)

	flushed int // rows written so far
	// One block under construction: its pending rows' key rows — in buf,
	// which the first Add makes, or where AddRows found them — and payload
	// references (a full block's worth of room), and the set their payload is
	// gathered into.
	pending     int
	keys, buf   []byte
	which, idxs []uint32
	staging     *row.RowSet
	// fcScratch is the reusable front-coding encode buffer; pre the key
	// section's tag byte and encoded length.
	fcScratch []byte
	pre       [5]byte
}

// NewWriter creates the file of run id — rows rows of shape format, in blocks
// of blockRows, whose keys are front-coded where that pays if frontCode says
// to try — and writes its header. staging is an empty row set of the format's
// layout that is the writer's until Finish or a failure.
func (d *Dir) NewWriter(id uint32, format Format, blockRows, rows int, frontCode bool, staging *row.RowSet) (*Writer, error) {
	name, wc, err := d.create(id)
	if err != nil {
		return nil, err
	}
	numBlocks := (rows + blockRows - 1) / blockRows
	w := &Writer{d: d, wc: wc, bw: bufio.NewWriter(wc), fc: frontCode, staging: staging,
		f: &File{name: name, format: format, blockRows: blockRows, rows: rows,
			offs: make([]int64, 0, numBlocks), fences: make([]byte, 0, numBlocks*format.RowWidth)},
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
	copy(dst, keyRow)
	w.which[w.pending], w.idxs[w.pending] = which, idx
	w.pending++
	w.keys = w.buf[:w.pending*rw]
	return dst
}

// AddRows names a whole block, or the run's last rows, at once: keyRows holds
// the key rows back to back — no more than the empty block has Room for —
// and their payloads are rows idx, idx+1, … of the which-th set. The key rows
// are not copied: they must stay as they are until the Flush that has to
// follow.
func (w *Writer) AddRows(keyRows []byte, which, idx uint32) {
	w.keys, w.pending = keyRows, len(keyRows)/w.f.format.RowWidth
	for i := 0; i < w.pending; i++ {
		w.which[i], w.idxs[i] = which, idx+uint32(i)
	}
}

// Room returns how many more rows the block under construction takes before
// Flush is due.
func (w *Writer) Room() int { return w.f.blockRows - w.pending }

// Flush writes the rows added since the last as one block, their payload
// gathered from sets, and reports how many there were. After it the caller
// may let go of what the references pointed into.
func (w *Writer) Flush(sets []*row.RowSet) (int, error) {
	rows, rw := w.pending, w.f.format.RowWidth
	if rows == 0 {
		return 0, nil
	}
	w.staging.Reset()
	w.staging.AppendRowsGather(sets, w.which[:rows], w.idxs[:rows])
	w.f.offs = append(w.f.offs, w.cw.n)
	w.f.fences = append(w.f.fences, w.keys[:rw]...)
	err := w.writeKeySection(w.keys, rows)
	if err == nil {
		_, err = w.staging.WriteTo(&w.cw)
	}
	if err != nil {
		return rows, w.fail(err)
	}
	w.flushed += rows
	w.pending, w.keys = 0, nil
	return rows, nil
}

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
	w.f.size = w.cw.n
	return w.f, nil
}

// Abort gives up on the file: it is removed, and err returned — joined with
// the removal's own failure if it has one, which leaves the file to
// Dir.Close. For the caller whose own source of rows failed.
func (w *Writer) Abort(err error) error {
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

// countingWriter counts the bytes written through it.
type countingWriter struct {
	w io.Writer
	n int64
}

func (c *countingWriter) Write(p []byte) (int, error) {
	n, err := c.w.Write(p)
	c.n += int64(n)
	return n, err
}

// writeKeySection writes one block's key rows: a tag byte, then either the
// raw rows or a length-prefixed front-coded encoding. The encode is attempted
// only when the writer's caller asked for it, and then only when a sample of
// the block predicts a saving (checked per block, so a merge pass's output is
// judged by what the merge produced), and kept only when the block really
// shrank.
func (w *Writer) writeKeySection(keys []byte, rows int) error {
	rw, kw := w.f.format.RowWidth, w.f.format.KeyWidth
	section := keys
	w.pre[0] = tagRaw
	tagged := w.pre[:1]
	if w.fc && normkey.PlanFrontCoding(keys, rw, kw, rows) < fcPlanCutoff {
		w.fcScratch = normkey.AppendFrontCoded(w.fcScratch[:0], keys, rw, kw, rows)
		if len(w.fcScratch) < len(keys) {
			w.pre[0] = tagFrontCoded
			binary.LittleEndian.PutUint32(w.pre[1:], uint32(len(w.fcScratch)))
			section, tagged = w.fcScratch, w.pre[:]
			w.d.ctr.Add(obs.SpillFCBlocks, 1)
		}
	}
	if _, err := w.cw.Write(tagged); err != nil {
		return err
	}
	_, err := w.cw.Write(section)
	return err
}
