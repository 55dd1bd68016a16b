package row

import (
	"encoding/binary"
	"fmt"
	"io"
)

// serializeMagic guards against reading unrelated files as row sets.
const serializeMagic = uint32(0x524F5753) // "ROWS"

// WriteTo serializes the row set (row count, row bytes, heap) to w. The
// layout itself is not serialized; the reader must supply an identical one.
// This is the unified on-disk form that lets sorted runs spill to secondary
// storage (the paper's future-work direction).
func (rs *RowSet) WriteTo(w io.Writer) (int64, error) {
	var hdr [20]byte
	binary.LittleEndian.PutUint32(hdr[0:], serializeMagic)
	binary.LittleEndian.PutUint32(hdr[4:], uint32(rs.n))
	binary.LittleEndian.PutUint64(hdr[8:], uint64(len(rs.data)))
	binary.LittleEndian.PutUint32(hdr[16:], uint32(len(rs.heap)))
	written := int64(0)
	for _, buf := range [][]byte{hdr[:], rs.data, rs.heap} {
		n, err := w.Write(buf)
		written += int64(n)
		if err != nil {
			return written, err
		}
	}
	return written, nil
}

// ViewRowSet decodes a row set serialized by WriteTo from buf, which must
// hold exactly that, using the given layout (which must match the writer's).
// Nothing is copied: the set's rows and heap alias buf, so a spill block read
// in one piece is decoded where it landed. buf must not be written while the
// set is in use, and the set must not be appended to.
func ViewRowSet(buf []byte, layout *Layout) (*RowSet, error) {
	const hdr = 20
	if len(buf) < hdr {
		return nil, fmt.Errorf("row: serialized row set of %d bytes has no header", len(buf))
	}
	if binary.LittleEndian.Uint32(buf[0:]) != serializeMagic {
		return nil, fmt.Errorf("row: bad magic in serialized row set")
	}
	n := int(binary.LittleEndian.Uint32(buf[4:]))
	dataLen := binary.LittleEndian.Uint64(buf[8:])
	heapLen := uint64(binary.LittleEndian.Uint32(buf[16:]))
	if dataLen != uint64(n)*uint64(layout.Width()) {
		return nil, fmt.Errorf("row: serialized data length %d does not match %d rows of width %d",
			dataLen, n, layout.Width())
	}
	if dataLen+heapLen != uint64(len(buf)-hdr) {
		return nil, fmt.Errorf("row: serialized row set holds %d bytes, its header says %d",
			len(buf)-hdr, dataLen+heapLen)
	}
	end := hdr + int(dataLen)
	return &RowSet{layout: layout, n: n, data: buf[hdr:end:end], heap: buf[end:]}, nil
}
