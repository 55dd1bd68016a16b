package spill

import (
	"bytes"
	"context"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"sync"
	"testing"

	"rowsort/internal/mem"
	"rowsort/internal/mergepath"
	"rowsort/internal/obs"
	"rowsort/internal/row"
	"rowsort/internal/vector"
)

// testFormat is a sort of one int64 key over an (int64, varchar) payload: a
// testKeyWidth-byte normalized key in 24-byte key rows.
var testFormat = Format{RowWidth: 24, Layout: row.NewLayout([]vector.Type{vector.Int64, vector.Varchar})}

const testKeyWidth = 9

// testRun returns n sorted key rows and their payload: row i's key is
// key(i), big-endian behind a validity byte, its payload reference (id, i),
// and its payload (key(i), "row <i>").
func testRun(id uint32, n int, key func(i int) uint64) ([]byte, *row.RowSet) {
	keys := make([]byte, n*testFormat.RowWidth)
	ints, strs := vector.New(vector.Int64, n), vector.New(vector.Varchar, n)
	for i := 0; i < n; i++ {
		kr := keys[i*testFormat.RowWidth:]
		kr[0] = 1
		binary.BigEndian.PutUint64(kr[1:], key(i))
		binary.LittleEndian.PutUint32(kr[9:], id)
		binary.LittleEndian.PutUint32(kr[13:], uint32(i))
		ints.AppendInt64(int64(key(i)))
		strs.AppendString(fmt.Sprintf("row %d", i))
	}
	payload := row.NewRowSet(testFormat.Layout)
	if err := payload.AppendChunk([]*vector.Vector{ints, strs}); err != nil {
		panic(err)
	}
	return keys, payload
}

// writeRun writes keys and payload as run id's file in blocks of blockRows.
func writeRun(t *testing.T, d *Dir, id uint32, keys []byte, payload *row.RowSet, blockRows int) *File {
	t.Helper()
	n := len(keys) / testFormat.RowWidth
	w, err := d.NewWriter(id, testFormat, blockRows, n, row.NewRowSet(testFormat.Layout))
	if err != nil {
		t.Fatal(err)
	}
	// Even blocks a row at a time, as a merge names them; odd ones at once, as
	// a run leaving memory does.
	sets := []*row.RowSet{payload}
	rw := testFormat.RowWidth
	for i, b := 0, 0; i < n; b++ {
		take := min(w.Room(), n-i)
		if b%2 == 1 {
			w.AddRows(keys[i*rw:(i+take)*rw], 0, uint32(i), nil)
		} else {
			for j := i; j < i+take; j++ {
				w.Add(keys[j*rw:(j+1)*rw], 0, uint32(j))
			}
		}
		if _, err := w.Flush(sets); err != nil {
			t.Fatal(err)
		}
		i += take
	}
	f, err := w.Finish()
	if err != nil {
		t.Fatal(err)
	}
	return f
}

// TestFileFormat pins the bytes on disk: the header ("RSB3", rows per block,
// rows), every block at the offset the index says, its raw key rows followed
// by its payload and the CRC-32C of both, and the file ending where the index
// says; that the index in memory keeps each block's first row, key row and
// payload row, strings included; and that a stage hands back, block by block,
// exactly the rows that went in.
func TestFileFormat(t *testing.T) {
	const n, blockRows = 1000, 256
	ctr := obs.NewBlock(nil)
	d := NewDir(OS(), t.TempDir(), ctr, nil)
	keys, payload := testRun(3, n, func(i int) uint64 { return uint64(i / 125) })
	f := writeRun(t, d, 3, keys, payload, blockRows)

	data, err := os.ReadFile(f.name)
	if err != nil {
		t.Fatal(err)
	}
	if string(data[:4]) != "3BSR" || binary.LittleEndian.Uint32(data[4:]) != blockRows || binary.LittleEndian.Uint64(data[8:]) != n {
		t.Fatalf("header % x", data[:headerLen])
	}
	if f.NumBlocks() != 4 || f.BlockRows() != blockRows || f.Size() != int64(len(data)) || ctr.Value(obs.SpillBytesWritten) != f.Size() {
		t.Fatalf("%d blocks of %d rows, index says %d bytes, counter %d, file has %d",
			f.NumBlocks(), f.BlockRows(), f.Size(), ctr.Value(obs.SpillBytesWritten), len(data))
	}
	for b, off := range f.offs {
		rawKeys := keys[b*blockRows*testFormat.RowWidth:][:f.blockLen(b)*testFormat.RowWidth]
		block := data[off:f.blockEnd(b)]
		body := block[:len(block)-checksumLen]
		if !bytes.Equal(body[:len(rawKeys)], rawKeys) {
			t.Errorf("block %d does not open with its raw key rows", b)
		}
		if sum := binary.LittleEndian.Uint32(block[len(body):]); sum != crc32.Checksum(body, crc32.MakeTable(crc32.Castagnoli)) {
			t.Errorf("block %d: trailer %#08x is not the CRC-32C of its keys and payload", b, sum)
		}
		if !bytes.Equal(f.fence(b), rawKeys[:testFormat.RowWidth]) {
			t.Errorf("block %d: fence is not its first key row", b)
		}
	}
	fp := f.FencePayload()
	if fp.Len() != f.NumBlocks() {
		t.Fatalf("%d fence payload rows for %d blocks", fp.Len(), f.NumBlocks())
	}
	for b := 0; b < fp.Len(); b++ {
		first := b * blockRows
		if k, s := fp.Value(b, 0), fp.String(b, 1); k != payload.Value(first, 0) || s != fmt.Sprintf("row %d", first) {
			t.Errorf("block %d: fence payload (%v, %q), want its first row's (%v, %q)", b, k, s, payload.Value(first, 0), fmt.Sprintf("row %d", first))
		}
	}

	// Read it back, without read-ahead: every block on demand.
	st, err := d.NewStage(PlanTasks([]*File{f}, nil, 0, keyOrder, 0), nil, 0, 1)
	if err != nil {
		t.Fatal(err)
	}
	for b := 0; b < f.NumBlocks(); b++ {
		ref := BlockRef{Run: 0, Blk: int32(b)}
		blk, err := st.Acquire(context.Background(), ref, nil)
		if err != nil {
			t.Fatal(err)
		}
		rows := f.blockLen(b)
		if blk.Start != b*blockRows || !bytes.Equal(blk.Keys, keys[b*blockRows*testFormat.RowWidth:][:rows*testFormat.RowWidth]) {
			t.Errorf("block %d: decoded keys differ from those written", b)
		}
		for i := 0; i < rows; i++ {
			if got, want := blk.Payload.String(i, 1), fmt.Sprintf("row %d", blk.Start+i); got != want {
				t.Fatalf("block %d row %d: payload %q, want %q", b, i, got, want)
			}
		}
		st.Release(ref)
	}
	st.Close(true)
	if read := ctr.Value(obs.SpillBytesRead); read != f.Size() {
		t.Errorf("read %d bytes of %d", read, f.Size())
	}
	if _, err := os.Stat(f.name); !os.IsNotExist(err) {
		t.Errorf("the file outlived the stage that consumed it: %v", err)
	}
	if err := d.Close(); err != nil {
		t.Fatal(err)
	}
}

// flippedFS serves every file as data, and removes nothing.
type flippedFS struct {
	FS
	data []byte
}

func (f flippedFS) Open(string) (ReadAtCloser, error) {
	return flippedFile{bytes.NewReader(f.data)}, nil
}

func (flippedFS) Remove(string) error { return nil }

type flippedFile struct{ *bytes.Reader }

func (flippedFile) Close() error { return nil }

// TestEveryBitFlipIsCaught flips each bit of a three-block file in turn: the
// read that covers it — the header's when the file is opened, else the
// block's — fails with ErrCorrupt, never with a panic or wrong rows, and
// every other read succeeds.
func TestEveryBitFlipIsCaught(t *testing.T) {
	d := NewDir(OS(), t.TempDir(), obs.NewBlock(nil), nil)
	defer d.Close()
	keys, payload := testRun(0, 10, func(i int) uint64 { return uint64(i) })
	f := writeRun(t, d, 0, keys, payload, 4)
	data, err := os.ReadFile(f.name)
	if err != nil || f.NumBlocks() != 3 {
		t.Fatalf("%d blocks: %v", f.NumBlocks(), err)
	}
	buf := make([]byte, f.MaxBlockBytes())
	for bit := 0; bit < 8*len(data); bit++ {
		flipped := bytes.Clone(data)
		flipped[bit/8] ^= 1 << (bit % 8)
		fd := NewDir(flippedFS{OS(), flipped}, "", obs.NewBlock(nil), nil)
		r, err := f.open(fd)
		if bit < 8*headerLen {
			if !errors.Is(err, ErrCorrupt) {
				t.Fatalf("bit %d of the header: open returned %v", bit, err)
			}
			continue
		}
		if err != nil {
			t.Fatalf("bit %d: open: %v", bit, err)
		}
		for b := range f.NumBlocks() {
			covers := int64(bit/8) >= f.offs[b] && int64(bit/8) < f.blockEnd(b)
			if _, err := f.read(r, b, buf, fd.ctr); covers && !errors.Is(err, ErrCorrupt) || !covers && err != nil {
				t.Fatalf("bit %d, block %d of [%d, %d): %v", bit, b, f.offs[b], f.blockEnd(b), err)
			}
		}
	}
}

// stubbornFS is the operating system's filesystem, except that while stuck it
// removes nothing and while full it writes nothing.
type stubbornFS struct {
	FS
	stuck, full bool
}

func (s *stubbornFS) Remove(name string) error {
	if s.stuck {
		return errors.New("stuck")
	}
	return s.FS.Remove(name)
}

func (s *stubbornFS) Create(name string) (io.WriteCloser, error) {
	w, err := s.FS.Create(name)
	if err == nil && s.full {
		return fullWriter{w}, nil
	}
	return w, err
}

type fullWriter struct{ io.WriteCloser }

func (fullWriter) Write([]byte) (int, error) { return 0, errors.New("disk full") }

// TestDirLifecycle pins who owns what: a Dir given no directory names a
// private one, which the first file creates and Close removes; a directory it
// was given is never removed; a removal that fails is counted, leaves the file
// tracked, is reported by Close and retried by the next; a Close with nothing
// to do returns nil.
func TestDirLifecycle(t *testing.T) {
	keys, payload := testRun(0, 100, func(i int) uint64 { return uint64(i) })

	ctr := obs.NewBlock(nil)
	fsys := &stubbornFS{FS: OS()}
	d := NewDir(fsys, "", ctr, nil)
	if d.Root() != "" {
		t.Fatalf("a private directory, %s, before any file", d.Root())
	}
	if err := d.Close(); err != nil {
		t.Fatalf("Close of a Dir that made nothing: %v", err)
	}
	f := writeRun(t, d, 0, keys, payload, 32)
	root := d.Root()
	if fi, err := os.Stat(root); err != nil || !fi.IsDir() || fi.Mode().Perm() != 0o700 || filepath.Dir(f.name) != root {
		t.Fatalf("private directory %s: %v, %v; the file is %s", root, fi, err, f.name)
	}
	fsys.stuck = true
	for try := int64(1); try <= 2; try++ {
		if err := d.Close(); err == nil || !strings.Contains(err.Error(), "removing spill file") {
			t.Fatalf("Close %d with a file that cannot be removed: %v", try, err)
		}
		if got := ctr.Value(obs.SpillRemoveErrors); got != try || ctr.Value(obs.SpillFilesRemoved) != 0 {
			t.Fatalf("Close %d: %d removal errors, %d removals counted", try, got, ctr.Value(obs.SpillFilesRemoved))
		}
	}
	fsys.stuck = false
	if err := d.Close(); err != nil {
		t.Fatalf("Close once the file can go: %v", err)
	}
	if _, err := os.Stat(root); !os.IsNotExist(err) || d.Root() != "" || ctr.Value(obs.SpillFilesRemoved) != 1 {
		t.Fatalf("after Close: stat %v, root %q, %d removals counted", err, d.Root(), ctr.Value(obs.SpillFilesRemoved))
	}
	if err := d.Close(); err != nil {
		t.Fatalf("Close again: %v", err)
	}

	given := t.TempDir()
	d = NewDir(OS(), given, obs.NewBlock(nil), nil)
	writeRun(t, d, 7, keys, payload, 32)
	if err := d.Close(); err != nil {
		t.Fatal(err)
	}
	if ents, err := os.ReadDir(given); err != nil || len(ents) != 0 {
		t.Fatalf("the directory the Dir was given: %v, %d entries left", err, len(ents))
	}
}

// TestFailedWriteLeavesNoFile pins the writer's promise: whichever call hits
// the failure — the header's, a block's, the final flush's — the partial file
// is gone, and nothing stays tracked, when it returns.
func TestFailedWriteLeavesNoFile(t *testing.T) {
	keys, payload := testRun(0, 100, func(i int) uint64 { return uint64(i) })
	dir := t.TempDir()
	ctr := obs.NewBlock(nil)
	d := NewDir(&stubbornFS{FS: OS(), full: true}, dir, ctr, nil)
	// The header fits the writer's buffer; a block does not.
	w, err := d.NewWriter(0, testFormat, 100, 100, row.NewRowSet(testFormat.Layout))
	if err != nil {
		t.Fatal(err)
	}
	w.AddRows(keys, 0, 0, nil)
	if _, err := w.Flush([]*row.RowSet{payload}); err == nil || !strings.Contains(err.Error(), "disk full") {
		t.Fatalf("Flush to a full disk: %v", err)
	}
	// A file that was fed too few rows is a failure too, found at Finish.
	w, err = d.NewWriter(1, testFormat, 100, 100, row.NewRowSet(testFormat.Layout))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := w.Finish(); err == nil || !strings.Contains(err.Error(), "0 of its 100 rows") {
		t.Fatalf("Finish of an empty writer: %v", err)
	}
	if ents, _ := os.ReadDir(dir); len(ents) != 0 || len(d.files) != 0 || ctr.Value(obs.SpillFilesRemoved) != 2 {
		t.Fatalf("%d files on disk, %d tracked, %d removals counted", len(ents), len(d.files), ctr.Value(obs.SpillFilesRemoved))
	}
}

// byKey orders test key rows by their key bytes: the merge's order on keys,
// whose ties a plan breaks by the rows' places in the merge.
func byKey(a, b []byte) int { return bytes.Compare(a[:testKeyWidth], b[:testKeyWidth]) }

// keyOrder is byKey as the planner takes it: its rows need no run.
var keyOrder = mergepath.ByRows(byKey)

// sameBound reports whether two bounds are the same row.
func sameBound(a, b Bound) bool { return bytes.Equal(a.Key, b.Key) && a.Run == b.Run && a.Row == b.Row }

// fence returns the first key row of block ref.
func (p *Plan) fence(ref BlockRef) []byte { return p.files[ref.Run].fence(int(ref.Blk)) }

// TestPlanTasks checks the planner on three runs of interleaved keys: the
// forecast holds every block once, in fence order; bounds strictly increase;
// every block is due to the tasks whose range can hold one of its keys, and
// to at least one; a run in memory cuts tasks by the fences it is given and
// is never forecast. Keys that all collide make a task every taskFences
// fences, cut by the rows' places in the merge.
func TestPlanTasks(t *testing.T) {
	d := NewDir(OS(), t.TempDir(), obs.NewBlock(nil), nil)
	defer d.Close()
	var files []*File
	for id := 0; id < 3; id++ {
		keys, payload := testRun(uint32(id), 640, func(i int) uint64 { return uint64(3*i + id) })
		files = append(files, writeRun(t, d, uint32(id), keys, payload, 64))
	}
	p := PlanTasks(files, nil, 0, keyOrder, 4)
	if len(p.forecast) != 30 || p.Tasks() < 5 {
		t.Fatalf("%d blocks forecast, %d tasks", len(p.forecast), p.Tasks())
	}
	for i := 1; i < len(p.forecast); i++ {
		if byKey(p.fence(p.forecast[i-1]), p.fence(p.forecast[i])) > 0 {
			t.Fatalf("forecast position %d is below its predecessor", i)
		}
	}
	due := make([][]int32, len(files))
	for i, f := range files {
		due[i] = make([]int32, f.NumBlocks())
	}
	for task := 0; task < p.Tasks(); task++ {
		lo, hi := p.Bound(task)
		if lo.Key != nil && hi.Key != nil && byKey(lo.Key, hi.Key) >= 0 {
			t.Fatalf("task %d: bounds do not increase", task)
		}
		for i, f := range files {
			first, end := p.Span(i, lo, hi)
			for b := 0; b < f.NumBlocks(); b++ {
				// The block's keys run from its fence to just below the next.
				holds := (hi.Key == nil || byKey(f.fence(b), hi.Key) < 0) &&
					(lo.Key == nil || b+1 == f.NumBlocks() || byKey(f.fence(b+1), lo.Key) > 0)
				if holds && (b < first || b >= end) {
					t.Fatalf("task %d: block %d of run %d can hold a key of its range and is not in its span [%d,%d)", task, b, i, first, end)
				}
				if b >= first && b < end {
					due[i][b]++
				}
			}
		}
	}
	for i := range files {
		for b, n := range due[i] {
			if n == 0 || n != p.refs[i][b] {
				t.Fatalf("block %d of run %d: in %d spans, planned for %d tasks", b, i, n, p.refs[i][b])
			}
		}
	}

	// Run 1 in memory, given a fence every 64 of its key rows — where its
	// blocks start on disk: its fences cut the same tasks as its file's, it
	// spans as many blocks, and the forecast holds the 20 blocks on disk only.
	rw := testFormat.RowWidth
	keys1, _ := testRun(1, 640, func(i int) uint64 { return uint64(3*i + 1) })
	var fences []byte
	for i := 0; i < 640; i += 64 {
		fences = append(fences, keys1[i*rw:(i+1)*rw]...)
	}
	mixed := PlanTasks([]*File{files[0], nil, files[2]}, []mergepath.Run{1: {Data: fences, Width: rw}}, 64, keyOrder, 4)
	if mixed.Tasks() != p.Tasks() || len(mixed.forecast) != 20 || mixed.refs[1] != nil {
		t.Errorf("with a run in memory: %d tasks over %d blocks, want %d over 20", mixed.Tasks(), len(mixed.forecast), p.Tasks())
	}
	for task := 0; task < min(mixed.Tasks(), p.Tasks()); task++ {
		lo, hi := mixed.Bound(task)
		wlo, whi := p.Bound(task)
		first, end := mixed.Span(1, lo, hi)
		wfirst, wend := p.Span(1, wlo, whi)
		if !sameBound(lo, wlo) || !sameBound(hi, whi) || first != wfirst || end != wend {
			t.Errorf("with a run in memory, task %d differs from the all-disk plan's", task)
		}
	}
	for _, ref := range mixed.forecast {
		if ref.Run == 1 {
			t.Fatal("the forecast holds a block of the run in memory")
		}
	}
	if q := PlanTasks([]*File{files[0], nil, files[2]}, nil, 64, keyOrder, 4); q.Tasks() >= p.Tasks() || q.Tasks() < 2 {
		t.Errorf("a run in memory without fences: %d tasks, want fewer than %d, and more than one", q.Tasks(), p.Tasks())
	}
	keys, payload := testRun(9, 640, func(int) uint64 { return 7 })
	constant := writeRun(t, d, 9, keys, payload, 64)
	if p := PlanTasks([]*File{constant}, nil, 0, keyOrder, 4); p.Tasks() != 3 {
		t.Errorf("keys that all collide, in the whole order: %d tasks of 10 fences, want 3", p.Tasks())
	}
	// The same constant keys on disk as run 0 and in memory as run 1, fenced
	// every 64 rows: in the whole order the 20 fences cut 5 tasks of 256 rows,
	// where the stable merge puts them — run 0's rows, then run 1's — each
	// row's place taken from where it sits: its block's start, or the run's.
	rw = testFormat.RowWidth
	var cfences []byte
	for i := 0; i < 640; i += 64 {
		cfences = append(cfences, keys[i*rw:(i+1)*rw]...)
	}
	both := PlanTasks([]*File{constant, nil}, []mergepath.Run{1: {Data: cfences, Width: rw}}, 64, keyOrder, 4)
	// Each task's rows of run 0 and of run 1, an empty range as [0,0).
	want := [][4]int{{0, 256, 0, 0}, {256, 512, 0, 0}, {512, 640, 0, 128}, {0, 0, 128, 384}, {0, 0, 384, 640}}
	if both.Tasks() != len(want) {
		t.Fatalf("constant keys on disk and in memory, in the whole order: %d tasks, want %d", both.Tasks(), len(want))
	}
	for task, w := range want {
		lo, hi := both.Bound(task)
		var got [4]int
		first, end := both.Span(0, lo, hi)
		for b := first; b < end; b++ {
			from, to := both.Range(mergepath.Run{Data: keys[b*64*rw : (b+1)*64*rw], Width: rw}, 0, b*64, lo, hi, keyOrder)
			if from < to && got[1] == 0 {
				got[0] = b*64 + from
			}
			if from < to {
				got[1] = b*64 + to
			}
		}
		if from, to := both.Range(mergepath.Run{Data: keys, Width: rw}, 1, 0, lo, hi, keyOrder); from < to {
			got[2], got[3] = from, to
		}
		if got != w {
			t.Errorf("task %d takes rows [%d,%d) of run 0 and [%d,%d) of run 1, want %v", task, got[0], got[1], got[2], got[3], w)
		}
	}
	if got := mergepath.LowerBound(mergepath.Run{Data: files[0].fences, Width: testFormat.RowWidth}, files[0].fence(3), byKey); got != 3 {
		t.Errorf("LowerBound of a run's fourth fence among its fences: %d", got)
	}
}

// TestStageForecastServesClaimants runs two claimants over a stage with
// read-ahead: every block is decoded once however the two interleave, the
// forecast's reads are counted as hits when a claimant finds them done, and a
// cancelled context fails Acquire with its error and stops the forecast.
func TestStageForecastServesClaimants(t *testing.T) {
	ctr := obs.NewBlock(nil)
	d := NewDir(OS(), t.TempDir(), ctr, nil)
	defer d.Close()
	var files []*File
	for id := 0; id < 2; id++ {
		keys, payload := testRun(uint32(id), 4096, func(i int) uint64 { return uint64(2*i + id) })
		files = append(files, writeRun(t, d, uint32(id), keys, payload, 512))
	}
	p := PlanTasks(files, nil, 0, keyOrder, 0)
	st, err := d.NewStage(p, nil, 1, 2)
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	var join, claimants sync.WaitGroup
	st.Start(ctx, &join)
	for i := range files {
		claimants.Add(1)
		go func() {
			defer claimants.Done()
			for b := 0; b < files[i].NumBlocks(); b++ {
				ref := BlockRef{Run: int32(i), Blk: int32(b)}
				if _, err := st.Acquire(ctx, ref, nil); err != nil {
					t.Error(err)
					return
				}
				st.Release(ref)
			}
		}()
	}
	claimants.Wait()
	if read, want := ctr.Value(obs.SpillBytesRead), files[0].Size()+files[1].Size(); read != want {
		t.Errorf("read %d bytes of %d: a block was decoded twice, or not at all", read, want)
	}
	if ctr.Value(obs.PrefetchedBlocks) != 16 {
		t.Errorf("%d blocks decoded, want 16", ctr.Value(obs.PrefetchedBlocks))
	}
	cancel()
	if _, err := st.Acquire(ctx, BlockRef{}, nil); !errors.Is(err, context.Canceled) {
		t.Errorf("Acquire under a cancelled context: %v", err)
	}
	st.Close(true)
	join.Wait()
}

// TestStageRecyclesBlockBuffers drains one run of 64 blocks through a stage
// with one claimant and read-ahead: the stage reads every block into one of a
// few read buffers of its own, not into one allocated a block, every block
// still matches its checksum and holds the rows written, the budget sees the
// live blocks and idle buffers and nothing once the stage is closed, and under
// the race detector a released block's bytes are overwritten.
func TestStageRecyclesBlockBuffers(t *testing.T) {
	const blockRows, blocks = 512, 64
	d := NewDir(OS(), t.TempDir(), obs.NewBlock(nil), nil)
	defer d.Close()
	keys, payload := testRun(0, blockRows*blocks, func(i int) uint64 { return uint64(i) })
	f := writeRun(t, d, 0, keys, payload, blockRows)
	broker := mem.NewBroker("test", 0)
	res := broker.Reserve("merge", 0)
	st, err := d.NewStage(PlanTasks([]*File{f}, nil, 0, keyOrder, 0), res, 1, 1)
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	var join sync.WaitGroup
	st.Start(ctx, &join)

	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	rw := testFormat.RowWidth
	for b := 0; b < f.NumBlocks(); b++ {
		ref := BlockRef{Run: 0, Blk: int32(b)}
		blk, err := st.Acquire(ctx, ref, nil)
		if err != nil {
			t.Fatal(err) // a block that fails its checksum is ErrCorrupt here
		}
		if !bytes.Equal(blk.Keys, keys[b*blockRows*rw:(b+1)*blockRows*rw]) || blk.Payload.String(blockRows-1, 1) != fmt.Sprintf("row %d", blk.Start+blockRows-1) {
			t.Fatalf("block %d: rows differ from those written", b)
		}
		if held := res.Bytes(); held < f.MaxBlockBytes() {
			t.Fatalf("block %d: %d bytes charged while it is live, want at least %d", b, held, f.MaxBlockBytes())
		}
		st.Release(ref)
	}
	runtime.ReadMemStats(&after)
	if got, most := int64(after.TotalAlloc-before.TotalAlloc), 8*f.MaxBlockBytes(); got > most {
		t.Errorf("draining %d blocks of at most %d bytes allocated %d bytes, want at most %d: a buffer a block", blocks, f.MaxBlockBytes(), got, most)
	}
	cancel()
	st.Close(true)
	join.Wait()
	if res.Bytes() != 0 || broker.Used() != 0 {
		t.Errorf("after Close the stage holds %d bytes, the broker %d", res.Bytes(), broker.Used())
	}

	if !row.PoisonReleased {
		return
	}
	keys, payload = testRun(1, 2*blockRows, func(i int) uint64 { return uint64(i) })
	f = writeRun(t, d, 1, keys, payload, blockRows)
	st, err = d.NewStage(PlanTasks([]*File{f}, nil, 0, keyOrder, 0), nil, 0, 1)
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close(true)
	ref := BlockRef{Run: 0, Blk: 0}
	blk, err := st.Acquire(context.Background(), ref, nil)
	if err != nil {
		t.Fatal(err)
	}
	st.Release(ref)
	for i, c := range blk.Keys {
		if c != row.PoisonByte {
			t.Fatalf("a released block's key rows still hold byte %#x at %d, want every byte %#x", c, i, row.PoisonByte)
		}
	}
}
