// Package iofault is the storage seam every durable path writes through:
// an interface over the handful of filesystem operations crash consistency
// depends on (create, open, write, sync, close, rename, dir-sync), a
// production implementation backed by the operating system, a deterministic
// seeded fault injector (EIO/ENOSPC, short writes, fsyncgate-poisoned
// syncs, power cuts that drop unsynced bytes), and a recorder whose op
// traces a crash-consistency checker expands into every durable state a
// power cut could have left behind.
//
// The durability contract the rest of the repo builds on:
//
//   - file data is durable only after a successful Sync on that file;
//   - a create or rename is durable only after a successful SyncDir on the
//     containing directory (fsync of the file does not persist its name);
//   - after a failed Sync the file handle is poisoned: the unsynced data
//     must be considered lost, and retrying the sync must never be treated
//     as making it durable (the fsyncgate rule).
package iofault

import (
	"io"
	"io/fs"
	"os"
	"path/filepath"
)

// File is the writable-file seam. It is the subset of *os.File the durable
// layers (journal, cache, post-mortems, exporters) actually use.
type File interface {
	io.Writer
	// Name returns the path the file was opened with.
	Name() string
	// Seek positions the write cursor (the journal seeks to the end after
	// truncating a torn tail).
	Seek(offset int64, whence int) (int64, error)
	// Truncate cuts the file to size bytes.
	Truncate(size int64) error
	// Sync flushes written data to stable storage. Durability begins here.
	Sync() error
	// Close releases the handle. Close does NOT imply durability.
	Close() error
}

// FS is the filesystem seam. Every mutating operation a durable path
// performs goes through one of these methods so tests and drills can
// substitute a fault-injecting implementation.
type FS interface {
	// OpenFile opens name with os.OpenFile semantics.
	OpenFile(name string, flag int, perm fs.FileMode) (File, error)
	// CreateTemp creates a fresh temp file with os.CreateTemp semantics.
	CreateTemp(dir, pattern string) (File, error)
	// Rename atomically replaces newpath with oldpath. The rename is not
	// durable until SyncDir succeeds on the containing directory.
	Rename(oldpath, newpath string) error
	// Remove deletes name.
	Remove(name string) error
	// MkdirAll creates a directory tree.
	MkdirAll(path string, perm fs.FileMode) error
	// ReadFile reads the whole file.
	ReadFile(name string) ([]byte, error)
	// ReadDir lists a directory.
	ReadDir(name string) ([]fs.DirEntry, error)
	// SyncDir fsyncs the directory itself, making prior creates, renames
	// and removes inside it durable. Errors are meaningful: an unsynced
	// rename is not durable and callers must not report success past one.
	SyncDir(dir string) error
}

// osFS is the production implementation: the real operating system.
type osFS struct{}

// Real is the production FS. It is the default everywhere a nil or omitted
// FS would otherwise appear.
var Real FS = osFS{}

func (osFS) OpenFile(name string, flag int, perm fs.FileMode) (File, error) {
	f, err := os.OpenFile(name, flag, perm)
	if err != nil {
		return nil, err
	}
	return f, nil
}

func (osFS) CreateTemp(dir, pattern string) (File, error) {
	f, err := os.CreateTemp(dir, pattern)
	if err != nil {
		return nil, err
	}
	return f, nil
}

func (osFS) Rename(oldpath, newpath string) error { return os.Rename(oldpath, newpath) }
func (osFS) Remove(name string) error             { return os.Remove(name) }
func (osFS) MkdirAll(path string, perm fs.FileMode) error {
	return os.MkdirAll(path, perm)
}
func (osFS) ReadFile(name string) ([]byte, error)       { return os.ReadFile(name) }
func (osFS) ReadDir(name string) ([]fs.DirEntry, error) { return os.ReadDir(name) }

func (osFS) SyncDir(dir string) error {
	if dir == "" {
		dir = "."
	}
	d, err := os.Open(dir)
	if err != nil {
		return err
	}
	err = d.Sync()
	if cerr := d.Close(); err == nil {
		err = cerr
	}
	return err
}

// WriteFileAtomic durably replaces path with data: write to a temp file in
// the same directory, fsync it, rename it over path, fsync the directory. A
// crash at any point leaves either the old file or the complete new one,
// never a torn mix, and the rename is only reported durable after the
// directory sync succeeds.
func WriteFileAtomic(fsys FS, path string, data []byte, perm fs.FileMode) error {
	if fsys == nil {
		fsys = Real
	}
	dir := filepath.Dir(path)
	tmp, err := fsys.CreateTemp(dir, filepath.Base(path)+".*.tmp")
	if err != nil {
		return err
	}
	name := tmp.Name()
	if _, err := tmp.Write(data); err != nil {
		tmp.Close()
		fsys.Remove(name)
		return err
	}
	if err := tmp.Sync(); err != nil {
		tmp.Close()
		fsys.Remove(name)
		return err
	}
	if err := tmp.Close(); err != nil {
		fsys.Remove(name)
		return err
	}
	if err := fsys.Rename(name, path); err != nil {
		fsys.Remove(name)
		return err
	}
	return fsys.SyncDir(dir)
}
