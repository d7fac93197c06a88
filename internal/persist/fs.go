package persist

import (
	"io"
	"os"
	"path/filepath"
	"sort"
)

// FS is the slice of a filesystem the durability layer writes through. It
// exists so crash tests can substitute a filesystem that models power
// loss — dropping writes that were never synced, reverting directory
// operations that were never made durable — which a real disk under a
// SIGKILL'd process cannot (the page cache survives the process).
type FS interface {
	// MkdirAll creates dir and any missing parents.
	MkdirAll(dir string) error
	// Create opens name for read/write, creating it if needed and
	// truncating any existing content.
	Create(name string) (File, error)
	// OpenFile opens an existing file for read/write without truncation.
	OpenFile(name string) (File, error)
	// ReadFile returns name's full content.
	ReadFile(name string) ([]byte, error)
	// Open opens name read-only and returns it with its size, for reads
	// of a file too large to hold whole.
	Open(name string) (ReadOnlyFile, int64, error)
	// Rename atomically replaces newname with oldname.
	Rename(oldname, newname string) error
	// Remove deletes a file.
	Remove(name string) error
	// ReadDir lists the entry names (not paths) of dir, sorted.
	ReadDir(dir string) ([]string, error)
	// SyncDir makes directory-entry changes (create/rename/remove) in dir
	// durable.
	SyncDir(dir string) error
}

// File is the writable handle FS hands out. Appends are positioned with
// WriteAt so the writer, not the file, owns the offset.
type File interface {
	io.Writer
	io.WriterAt
	// Truncate cuts the file to size bytes.
	Truncate(size int64) error
	// Sync flushes written data to stable storage.
	Sync() error
	Close() error
}

// ReadOnlyFile is the read handle FS.Open hands out.
type ReadOnlyFile interface {
	io.ReaderAt
	io.Closer
}

// osFS is the real filesystem.
type osFS struct{}

// OSFS returns the production FS backed by the operating system.
func OSFS() FS { return osFS{} }

// The data dir and everything in it are owner-only: the WAL and snapshot
// hold (encrypted) memory contents and the sealed files hold trusted
// state, none of which other users have any business reading.
func (osFS) MkdirAll(dir string) error { return os.MkdirAll(dir, 0o700) }

func (osFS) Create(name string) (File, error) {
	return os.OpenFile(name, os.O_RDWR|os.O_CREATE|os.O_TRUNC, 0o600)
}

func (osFS) OpenFile(name string) (File, error) {
	return os.OpenFile(name, os.O_RDWR, 0o600)
}

func (osFS) ReadFile(name string) ([]byte, error) { return os.ReadFile(name) }

func (osFS) Open(name string) (ReadOnlyFile, int64, error) {
	f, err := os.Open(name)
	if err != nil {
		return nil, 0, err
	}
	fi, err := f.Stat()
	if err != nil {
		f.Close()
		return nil, 0, err
	}
	return f, fi.Size(), nil
}

func (osFS) Rename(oldname, newname string) error { return os.Rename(oldname, newname) }

func (osFS) Remove(name string) error { return os.Remove(name) }

func (osFS) ReadDir(dir string) ([]string, error) {
	ents, err := os.ReadDir(dir)
	if err != nil {
		return nil, err
	}
	names := make([]string, 0, len(ents))
	for _, e := range ents {
		names = append(names, e.Name())
	}
	sort.Strings(names)
	return names, nil
}

func (osFS) SyncDir(dir string) error {
	d, err := os.Open(filepath.Clean(dir))
	if err != nil {
		return err
	}
	err = d.Sync()
	if cerr := d.Close(); err == nil {
		err = cerr
	}
	return err
}
