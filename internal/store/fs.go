package store

import (
	"io"
	"io/fs"
	"os"
)

// fileSystem is the seam under the store's two files, the blob log and the
// journal: every open, write, truncate, fsync and rename of them goes
// through it. Open uses the operating system's; tests substitute one that
// injects faults (ENOSPC, short writes, fsync errors) or records what was
// synced, to simulate a power cut.
type fileSystem interface {
	OpenFile(name string, flag int, perm fs.FileMode) (file, error)
	Rename(oldpath, newpath string) error
	// SyncDir fsyncs a directory, making the entries created in it durable.
	SyncDir(dir string) error
}

// file is an open log file. Both logs write with WriteAt at their own
// end offset, so a failed append can be rolled back by a Truncate.
type file interface {
	io.ReaderAt
	io.WriterAt
	Stat() (fs.FileInfo, error)
	Truncate(size int64) error
	Sync() error
	Close() error
}

// osFS is the operating system's file system.
type osFS struct{}

func (osFS) OpenFile(name string, flag int, perm fs.FileMode) (file, error) {
	f, err := os.OpenFile(name, flag, perm)
	if err != nil {
		return nil, err // a nil *os.File must not become a non-nil file
	}
	return f, nil
}

func (osFS) Rename(oldpath, newpath string) error { return os.Rename(oldpath, newpath) }

func (osFS) SyncDir(dir string) error {
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

// createFile opens name for reading and writing, creating it if absent,
// and fsyncs dir so that the new entry outlives a power cut. A failure
// counts in faults.
func createFile(fsys fileSystem, name, dir string, faults *faults) (file, error) {
	f, err := fsys.OpenFile(name, os.O_RDWR|os.O_CREATE, 0o644)
	if err != nil {
		faults.writes.Add(1)
		return nil, err
	}
	if err := fsys.SyncDir(dir); err != nil {
		faults.syncs.Add(1)
		f.Close()
		return nil, err
	}
	return f, nil
}
