package core

import (
	"bufio"
	"bytes"
	"encoding/binary"
	"fmt"
	"io"
	"os"
	"time"

	"rowsort/internal/mem"
	"rowsort/internal/mergepath"
	"rowsort/internal/normkey"
	"rowsort/internal/obs"
	"rowsort/internal/row"
)

// Spill read-ahead: each merge reader can run its block decoding on a
// bounded prefetch goroutine, so the next block's file read and payload
// decode overlap the loser tree's compute on the current block (the tree
// derives its offset-value codes itself, from the rows it steps over). The
// prefetcher charges every decoded block to the merge's reservation before
// queuing it, so under a budget read-ahead is planned as
// (1 + Options.ReadAhead) blocks per run and never busts the limit.

// spillBlock is one decoded block of a spilled run. keys may be a
// sub-slice of buf when the reader is bounded to a key range
// (the partitioned merge trims partition-edge blocks); payload always
// holds the full block, so a served key at position p resolves to payload
// row p+padOff, and a key-row reference with absolute run index i to
// payload row i-payloadStart.
type spillBlock struct {
	buf          []byte // full decoded key rows (recycled in sync mode)
	keys         []byte // served key rows
	payload      *row.RowSet
	payloadStart int    // absolute run index of payload's first row
	padOff       uint32 // keys[0]'s payload offset within the block
	bytes        int64  // accounted footprint (buffer capacities)
}

// blockDecoder sequentially decodes a spilled run's blocks, optionally
// bounded to the key range [lo, hi) on the safeWidth-byte prefix: the
// block index locates the first block that can hold a row >= lo (skipped
// blocks are never read), the fences stop the scan at the first block
// wholly >= hi, and partition-edge blocks are trimmed by binary search.
// It is confined to one goroutine — the merge thread (synchronous mode) or
// a prefetcher.
type blockDecoder struct {
	s     *Sorter
	run   *sortedRun
	f     *os.File
	cr    *countingReader
	br    *bufio.Reader
	ow    *obs.Worker // the decoding goroutine's trace lane
	phase obs.Phase   // PhaseSpillRead (sync) or PhasePrefetch

	safeWidth int
	lo, hi    []byte

	blockRows  int
	numRows    int
	startBlock int
	readRows   int // absolute row cursor
	done       bool

	fc     bool   // format-3 file: key sections carry a tag byte
	encBuf []byte // scratch for front-coded key sections
}

// openBlockDecoder opens r's spill file, validates its header, and seeks
// to the first block that can hold a row >= lo (per the fence index).
func (s *Sorter) openBlockDecoder(r *sortedRun, lo, hi []byte, safeWidth int) (*blockDecoder, error) {
	sf := r.spill
	f, err := os.Open(sf.path)
	if err != nil {
		return nil, fmt.Errorf("core: opening spill file: %w", err)
	}
	d := &blockDecoder{s: s, run: r, f: f, safeWidth: safeWidth, lo: lo, hi: hi}
	d.cr = &countingReader{r: f, s: s}
	d.br = bufio.NewReader(d.cr)
	var hdr [spillHeaderLen]byte
	if _, err := io.ReadFull(d.br, hdr[:]); err != nil {
		f.Close()
		return nil, fmt.Errorf("core: reading spill header: %w", err)
	}
	switch binary.LittleEndian.Uint32(hdr[0:]) {
	case spillMagic:
	case spillMagicFC:
		d.fc = true
	default:
		f.Close()
		return nil, fmt.Errorf("core: bad spill magic in %s", sf.path)
	}
	d.blockRows = int(binary.LittleEndian.Uint32(hdr[4:]))
	d.numRows = int(binary.LittleEndian.Uint64(hdr[8:]))
	if d.blockRows <= 0 {
		f.Close()
		return nil, fmt.Errorf("core: bad spill block size in %s", sf.path)
	}
	if lo != nil && sf.numBlocks() > 0 {
		// The first row >= lo is in the last block whose fence is < lo
		// (every earlier block is wholly < lo), or at a later block's start.
		fences := mergepath.Run{Data: sf.fences, Width: s.rowWidth}
		if j := safeLowerBound(fences, lo, safeWidth); j > 0 {
			d.startBlock = j - 1
		}
		if d.startBlock > 0 {
			if _, err := f.Seek(sf.offs[d.startBlock], io.SeekStart); err != nil {
				f.Close()
				return nil, fmt.Errorf("core: seeking spill block: %w", err)
			}
			d.br.Reset(d.cr)
			d.readRows = d.startBlock * d.blockRows
		}
	}
	return d, nil
}

// decode reads and decodes the run's next served block, recycling reuse's
// buffers when it can. It returns (nil, nil) at end of the (bounded) run.
func (d *blockDecoder) decode(reuse *spillBlock) (*spillBlock, error) {
	rw := d.s.rowWidth
	for {
		if d.done || d.readRows >= d.numRows {
			return nil, nil
		}
		blockIdx := d.readRows / d.blockRows
		if d.hi != nil && compareSafe(d.run.spill.fence(blockIdx, rw), d.hi, d.safeWidth) >= 0 {
			// Every row of this block (and all later ones) is >= hi.
			d.done = true
			return nil, nil
		}
		sp := d.ow.Begin(d.phase)
		rows := min(d.blockRows, d.numRows-d.readRows)
		b := reuse
		reuse = nil
		if b == nil {
			b = &spillBlock{}
		}
		buf := b.buf
		if cap(buf) < rows*rw {
			buf = make([]byte, rows*rw)
		} else {
			buf = buf[:rows*rw]
		}
		b.buf = buf
		if err := d.readKeySection(buf, rows, rw); err != nil {
			sp.End()
			return nil, err
		}
		payload, err := row.ReadRowSet(d.br, d.s.layout)
		if err != nil {
			sp.End()
			return nil, fmt.Errorf("core: reading spill block payload: %w", err)
		}
		blk := mergepath.Run{Data: buf, Width: rw}
		a, e := 0, rows
		if d.lo != nil && blockIdx == d.startBlock {
			a = safeLowerBound(blk, d.lo, d.safeWidth)
		}
		if d.hi != nil {
			if e = safeLowerBound(blk, d.hi, d.safeWidth); e < rows {
				d.done = true
			}
		}
		payloadStart := d.readRows
		d.readRows += rows
		sp.End()
		if a >= e {
			if d.done {
				return nil, nil
			}
			reuse = b // whole block below lo: recycle and read the next
			continue
		}
		b.keys = buf[a*rw : e*rw]
		b.payload = payload
		b.payloadStart = payloadStart
		b.padOff = uint32(a)
		b.bytes = int64(cap(buf)) + payload.CapBytes()
		return b, nil
	}
}

// readKeySection reads one block's key rows into buf (rows rows of stride
// rw). Format-2 files store them raw; format-3 files prefix a tag byte —
// raw rows (0) or a length-prefixed front-coded section (1) that decodes in
// place through the scratch buffer. Everything downstream (the merge,
// fences, partition trims) sees the same decoded rows either way.
func (d *blockDecoder) readKeySection(buf []byte, rows, rw int) error {
	if !d.fc {
		if _, err := io.ReadFull(d.br, buf); err != nil {
			return fmt.Errorf("core: reading spill block keys: %w", err)
		}
		return nil
	}
	tag, err := d.br.ReadByte()
	if err != nil {
		return fmt.Errorf("core: reading spill block key tag: %w", err)
	}
	switch tag {
	case 0:
		if _, err := io.ReadFull(d.br, buf); err != nil {
			return fmt.Errorf("core: reading spill block keys: %w", err)
		}
		return nil
	case 1:
		var lenBuf [4]byte
		if _, err := io.ReadFull(d.br, lenBuf[:]); err != nil {
			return fmt.Errorf("core: reading spill block key length: %w", err)
		}
		encLen := int(binary.LittleEndian.Uint32(lenBuf[:]))
		if encLen <= 0 || encLen > rows*rw {
			return fmt.Errorf("core: front-coded key section of %d bytes for %d rows", encLen, rows)
		}
		if cap(d.encBuf) < encLen {
			d.encBuf = make([]byte, encLen)
		}
		enc := d.encBuf[:encLen]
		if _, err := io.ReadFull(d.br, enc); err != nil {
			return fmt.Errorf("core: reading spill block keys: %w", err)
		}
		if err := normkey.DecodeFrontCoded(buf, enc, rw, d.s.keyWidth, rows); err != nil {
			return fmt.Errorf("core: decoding spill block keys: %w", err)
		}
		return nil
	default:
		return fmt.Errorf("core: unknown spill key-section tag %d", tag)
	}
}

// close releases the decoder's file handle.
func (d *blockDecoder) close() {
	if d.f != nil {
		d.f.Close()
		d.f = nil
	}
}

// prefetcher runs a blockDecoder on its own goroutine, keeping up to depth
// decoded blocks queued ahead of the consumer. Every queued block's bytes
// are charged to res before it is enqueued; the consumer releases a
// block's share when it retires it, and close drains and releases
// whatever is still in flight.
type prefetcher struct {
	dec  *blockDecoder
	res  *mem.Reservation
	out  chan *spillBlock
	stop chan struct{}
	done chan struct{}
	err  error // set before out closes; read only after out is drained
}

// startPrefetcher launches the read-ahead goroutine over dec.
//
//rowsort:pipeline
func startPrefetcher(dec *blockDecoder, depth int, res *mem.Reservation) *prefetcher {
	pf := &prefetcher{dec: dec, res: res,
		out:  make(chan *spillBlock, depth),
		stop: make(chan struct{}),
		done: make(chan struct{}),
	}
	go pf.run()
	return pf
}

// run decodes ahead until end of run, error, or stop. The decoder (and its
// file handle) is owned by this goroutine; close(out) publishes err.
func (pf *prefetcher) run() {
	defer close(pf.done)
	defer pf.dec.close()
	defer close(pf.out)
	for {
		select {
		case <-pf.stop:
			return
		default:
		}
		b, err := pf.dec.decode(nil)
		if err != nil {
			pf.err = err
			return
		}
		if b == nil {
			return
		}
		pf.res.Grow(b.bytes)
		pf.dec.s.prefetchBlocks.Add(1)
		pf.dec.s.prog.PrefetchedBlocks.Add(1)
		select {
		case pf.out <- b:
		case <-pf.stop:
			pf.res.Shrink(b.bytes)
			return
		}
	}
}

// next returns the next decoded block, nil at end of run or error (check
// pf.err then). A block already queued counts as a read-ahead hit; an
// empty queue blocks the merge, and the wait is accounted as stall time.
func (pf *prefetcher) next(s *Sorter) *spillBlock {
	select {
	case b, ok := <-pf.out:
		if ok {
			s.prefetchHits.Add(1)
			s.prog.PrefetchHits.Add(1)
			return b
		}
		return nil
	default:
	}
	t0 := time.Now()
	b, ok := <-pf.out
	s.prefetchStallNs.Add(int64(time.Since(t0)))
	if !ok {
		return nil
	}
	return b
}

// close stops the goroutine and releases every block still queued. After
// it returns the decoder's file is closed and no charge remains for
// undelivered blocks (the consumer still owns its current block's share).
func (pf *prefetcher) close() {
	close(pf.stop)
	for b := range pf.out {
		pf.res.Shrink(b.bytes)
	}
	<-pf.done
}

// compareSafe compares two key rows on the byte-decisive safe prefix —
// the only region where plain byte order is guaranteed to agree with the
// sort's total order (see Sorter.ovcSafeWidth).
//
//rowsort:hotpath
//rowsort:pure
func compareSafe(a, b []byte, safeWidth int) int {
	return bytes.Compare(a[:safeWidth], b[:safeWidth])
}

// safeLowerBound returns the first index in r whose row's safe prefix is
// not below key's. Rows tying on the safe prefix stay together on one side
// of every bound, which is what keeps range partitioning consistent with
// the tie-broken total order.
//
//rowsort:hotpath
func safeLowerBound(r mergepath.Run, key []byte, safeWidth int) int {
	lo, hi := 0, r.Len()
	for lo < hi {
		m := int(uint(lo+hi) >> 1)
		if compareSafe(r.Row(m), key, safeWidth) < 0 {
			lo = m + 1
		} else {
			hi = m
		}
	}
	return lo
}
