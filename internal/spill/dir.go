package spill

import (
	"errors"
	"fmt"
	"io"
	"io/fs"
	"path/filepath"
	"sync"

	"rowsort/internal/obs"
)

// Dir is one sort's spill files: where they go, what they are called, which
// of them exist, and the one way any of them is created, opened or removed.
// Every file it creates stays tracked until its removal has succeeded, so
// that Close can clean up after a sort that stopped anywhere; a removal that
// fails is counted, reported and tried again by the next Close.
//
// Files go under the directory the Dir was given, or, given none, under a
// private one in the system's temporary directory, which the first file
// creates and Close removes once it is empty. A Dir is safe for concurrent use.
type Dir struct {
	fs  FS
	ctr *obs.Block
	rec *obs.Recorder

	mu      sync.Mutex
	root    string              // where files go; "" until a private directory is named
	private bool                // root is the Dir's own, to remove
	files   map[string]struct{} // created and not yet removed
}

// NewDir returns the spill files of a sort that counts into ctr and records
// its spans on rec (nil records none). dir is where they go; "" asks for a
// private directory. Nothing touches fsys until the first file is created.
func NewDir(fsys FS, dir string, ctr *obs.Block, rec *obs.Recorder) *Dir {
	return &Dir{fs: fsys, ctr: ctr, rec: rec, root: dir, private: dir == "", files: make(map[string]struct{})}
}

// Root returns the directory the files are in: "" when they would go to a
// private directory that no file has asked for yet, or that Close has removed.
func (d *Dir) Root() string {
	d.mu.Lock()
	defer d.mu.Unlock()
	return d.root
}

// create creates run id's file, tracked from here on.
func (d *Dir) create(id uint32) (string, io.WriteCloser, error) {
	d.mu.Lock()
	if d.root == "" {
		d.root = privateDir()
	}
	name := filepath.Join(d.root, fmt.Sprintf("rowsort-run-%d.bin", id))
	d.mu.Unlock()
	f, err := d.fs.Create(name)
	if err != nil {
		return "", nil, fmt.Errorf("spill: creating spill file: %w", err)
	}
	d.mu.Lock()
	d.files[name] = struct{}{}
	d.mu.Unlock()
	return name, f, nil
}

// remove deletes a tracked file; one already gone counts as removed. On
// failure the file stays tracked, for Close.
func (d *Dir) remove(name string) error {
	if err := d.fs.Remove(name); err != nil && !errors.Is(err, fs.ErrNotExist) {
		d.ctr.Add(obs.SpillRemoveErrors, 1)
		return fmt.Errorf("spill: removing spill file: %w", err)
	}
	d.mu.Lock()
	delete(d.files, name)
	d.mu.Unlock()
	d.ctr.Add(obs.SpillFilesRemoved, 1)
	return nil
}

// Close removes every file still tracked and then the private directory, and
// returns what could not be removed, joined. Whatever failed stays tracked: a
// later Close tries again, and a Close with nothing left to do returns nil.
// The sort must have stopped: no file is being created, read or removed.
func (d *Dir) Close() error {
	d.mu.Lock()
	names := make([]string, 0, len(d.files))
	for name := range d.files {
		names = append(names, name)
	}
	root, private := d.root, d.private
	d.mu.Unlock()
	var errs []error
	for _, name := range names {
		errs = append(errs, d.remove(name))
	}
	if err := errors.Join(errs...); err != nil || !private || root == "" {
		return err
	}
	if err := d.fs.Remove(root); err != nil && !errors.Is(err, fs.ErrNotExist) {
		return fmt.Errorf("spill: removing spill directory: %w", err)
	}
	d.mu.Lock()
	d.root = ""
	d.mu.Unlock()
	return nil
}
