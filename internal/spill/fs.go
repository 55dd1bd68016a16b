package spill

import (
	"fmt"
	"io"
	"math/rand/v2"
	"os"
	"path/filepath"
)

// FS is the filesystem spill files live on: everything this package, and
// through it the sorter, asks of a disk. The production implementation is OS;
// a test substitutes one that fails on demand, which is how a full disk, a
// short write, a read error or a file gone missing are produced at all.
type FS interface {
	// Create creates, or truncates, the named file for writing, together
	// with any directory missing above it.
	Create(name string) (io.WriteCloser, error)
	// Open opens the named file for positioned reads.
	Open(name string) (ReadAtCloser, error)
	// Remove deletes the named file, or empty directory.
	Remove(name string) error
}

// ReadAtCloser is an open spill file: blocks are read at their offsets.
type ReadAtCloser interface {
	io.ReaderAt
	io.Closer
}

// OS returns the operating system's filesystem.
func OS() FS { return osFS{} }

type osFS struct{}

func (osFS) Create(name string) (io.WriteCloser, error) {
	// A spill file holds the caller's rows: a directory made for it is the
	// process owner's alone.
	if err := os.MkdirAll(filepath.Dir(name), 0o700); err != nil {
		return nil, err
	}
	return os.Create(name)
}

func (osFS) Open(name string) (ReadAtCloser, error) { return os.Open(name) }

func (osFS) Remove(name string) error { return os.Remove(name) }

// privateDir names a directory under the system's temporary directory that
// no other sort, in this process or another, will name: the first file created
// in it creates it. The 64 random bits are also what keeps anybody else from
// having put something there first.
func privateDir() string {
	return filepath.Join(os.TempDir(), fmt.Sprintf("rowsort-spill-%d-%016x", os.Getpid(), rand.Uint64()))
}
