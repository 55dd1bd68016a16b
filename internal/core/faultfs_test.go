package core

import (
	"io"
	"io/fs"
	"runtime"
	"strings"
	"sync"
	"syscall"
	"time"

	"rowsort/internal/spill"
)

// faultFS is the filesystem of the fault table: the operating system's, with
// one fault to go off once armed. It is the only way a full disk, a short
// write, a read error or a remove that fails reaches the sorter in a test.
type faultFS struct {
	spill.FS

	mu    sync.Mutex
	armed fsFault
	reads int           // reads the armed fault has seen
	fired int           // times it has gone off
	went  chan struct{} // closed when the armed fault first goes off
}

// fromFirst bounds how long a claimant's read outside the armed fault's from
// waits for the fault to go off first.
const fromFirst = 5 * time.Second

// fsFault is one way the filesystem goes wrong. The zero value is no fault.
type fsFault struct {
	// A write that would take a file created under the fault past writeAt
	// bytes takes what fits and fails with writeErr.
	writeErr error
	writeAt  int64
	// The readAt-th read fails with readErr, having read nothing — or, with
	// flip, returns what it read with one bit of it flipped; or, with stall,
	// takes that long and then succeeds: a slow device.
	readErr error
	readAt  int
	flip    bool
	stall   time.Duration
	// With from set, only reads and writes made under a function whose name
	// ends in it go wrong, or are counted, and a claimant's read (under
	// Acquire) waits for the fault to go off first, fromFirst at most: the
	// forecast's reads race the claimants' for the same blocks, and a
	// forecast that lost every race would leave its fault untried.
	from string
	// Files read as if they ended at byte truncateAt.
	truncateAt int64
	// Open finds no file; Remove fails; reads and writes panic.
	missing, keepFiles, panics bool
}

// arm sets the fault off from now on; arm(fsFault{}) disarms.
func (f *faultFS) arm(fault fsFault) {
	f.mu.Lock()
	f.armed, f.reads, f.went = fault, 0, make(chan struct{})
	f.mu.Unlock()
}

func (f *faultFS) fault() fsFault {
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.armed
}

func (f *faultFS) fire() {
	f.mu.Lock()
	f.fired++
	if f.went != nil {
		close(f.went)
		f.went = nil
	}
	f.mu.Unlock()
}

func (f *faultFS) Create(name string) (io.WriteCloser, error) {
	w, err := f.FS.Create(name)
	if err != nil {
		return nil, err
	}
	return &faultWriter{WriteCloser: w, fs: f, fault: f.fault()}, nil
}

func (f *faultFS) Open(name string) (spill.ReadAtCloser, error) {
	if f.fault().missing {
		f.fire()
		return nil, &fs.PathError{Op: "open", Path: name, Err: fs.ErrNotExist}
	}
	r, err := f.FS.Open(name)
	if err != nil {
		return nil, err
	}
	return &faultReader{ReadAtCloser: r, fs: f}, nil
}

func (f *faultFS) Remove(name string) error {
	if f.fault().keepFiles {
		f.fire()
		return &fs.PathError{Op: "remove", Path: name, Err: syscall.EBUSY}
	}
	return f.FS.Remove(name)
}

// faultWriter is a file created under fault.
type faultWriter struct {
	io.WriteCloser
	fs      *faultFS
	fault   fsFault
	written int64
}

func (w *faultWriter) Write(p []byte) (int, error) {
	if w.fault.panics && (w.fault.from == "" || calledFrom(w.fault.from)) {
		w.fs.fire()
		panic("faultFS: write")
	}
	if room := w.fault.writeAt - w.written; w.fault.writeErr != nil && int64(len(p)) > room {
		w.fs.fire()
		n, _ := w.WriteCloser.Write(p[:max(room, 0)])
		w.written += int64(n)
		return n, w.fault.writeErr
	}
	n, err := w.WriteCloser.Write(p)
	w.written += int64(n)
	return n, err
}

type faultReader struct {
	spill.ReadAtCloser
	fs *faultFS
}

func (r *faultReader) ReadAt(p []byte, off int64) (int, error) {
	f := r.fs
	f.mu.Lock()
	fault, went := f.armed, f.went
	nth := -1
	if on := fault.from == "" || calledFrom(fault.from); !on {
		fault = fsFault{}
		if went != nil && calledFrom("(*Stage).Acquire") {
			f.mu.Unlock()
			select {
			case <-went:
			case <-time.After(fromFirst):
			}
			return r.ReadAtCloser.ReadAt(p, off)
		}
	} else if fault.readErr != nil || fault.flip || fault.stall > 0 {
		nth = f.reads
		f.reads++
	}
	f.mu.Unlock()
	switch {
	case fault.panics:
		f.fire()
		panic("faultFS: read")
	case nth == fault.readAt && fault.readErr != nil:
		f.fire()
		return 0, fault.readErr
	case nth == fault.readAt && fault.stall > 0:
		f.fire()
		time.Sleep(fault.stall)
	case nth == fault.readAt && fault.flip:
		f.fire()
		n, err := r.ReadAtCloser.ReadAt(p, off)
		if n > 0 {
			p[n/2] ^= 1 << 3
		}
		return n, err
	case fault.truncateAt > 0 && off+int64(len(p)) > fault.truncateAt:
		f.fire()
		n, _ := r.ReadAtCloser.ReadAt(p[:max(fault.truncateAt-off, 0)], off)
		return n, io.EOF
	}
	return r.ReadAtCloser.ReadAt(p, off)
}

// calledFrom reports whether a function whose name ends in fn is on the
// calling goroutine's stack.
func calledFrom(fn string) bool {
	var pcs [32]uintptr
	frames := runtime.CallersFrames(pcs[:runtime.Callers(2, pcs[:])])
	for {
		frame, more := frames.Next()
		if strings.HasSuffix(frame.Function, fn) {
			return true
		}
		if !more {
			return false
		}
	}
}
