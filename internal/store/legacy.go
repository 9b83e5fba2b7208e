package store

import (
	"crypto/sha256"
	"errors"
	"fmt"
	"os"
	"path/filepath"
)

// importBlobFiles moves the blobs of a store written before the blob log
// existed, one file per blob under blobs/ab/<hash>, into a new blob log.
// Every file whose bytes hash to its name is appended to a temporary log,
// which is fsynced and renamed into place; only then are the imported
// files removed. A crash before the rename leaves every file, and the next
// open imports them again. Files that are not blobs (a writer's stray temp
// file, a corrupted blob) stay where they are.
func importBlobFiles(fsys fileSystem, l *blobLog) error {
	root := filepath.Join(l.dir, "blobs")
	fans, err := os.ReadDir(root)
	if errors.Is(err, os.ErrNotExist) {
		return nil
	}
	if err != nil {
		return fmt.Errorf("store: import blob files: %w", err)
	}
	tmp := filepath.Join(l.dir, logName+".import")
	f, err := fsys.OpenFile(tmp, os.O_RDWR|os.O_CREATE|os.O_TRUNC, 0o644)
	if err != nil {
		l.faults.writes.Add(1)
		return fmt.Errorf("store: import blob files: %w", err)
	}
	l.f = f
	var imported []string
	for _, fan := range fans {
		if !fan.IsDir() {
			continue
		}
		dir := filepath.Join(root, fan.Name())
		entries, err := os.ReadDir(dir)
		if err != nil {
			return fmt.Errorf("store: import blob files: %w", err)
		}
		for _, e := range entries {
			h, err := parseHash(e.Name())
			if err != nil {
				continue
			}
			path := filepath.Join(dir, e.Name())
			data, err := os.ReadFile(path)
			if err != nil {
				return fmt.Errorf("store: import blob files: %w", err)
			}
			if sha256.Sum256(data) != h {
				continue
			}
			if _, err := l.put(h, data); err != nil {
				return fmt.Errorf("store: import blob files: %w", err)
			}
			imported = append(imported, path)
		}
	}
	if err := f.Sync(); err != nil {
		l.faults.syncs.Add(1)
		return fmt.Errorf("store: import blob files: %w", err)
	}
	if err := fsys.Rename(tmp, filepath.Join(l.dir, logName)); err != nil {
		l.faults.writes.Add(1)
		return fmt.Errorf("store: import blob files: %w", err)
	}
	if err := fsys.SyncDir(l.dir); err != nil {
		l.faults.syncs.Add(1)
		return fmt.Errorf("store: import blob files: %w", err)
	}
	l.dirty = false
	for _, path := range imported {
		os.Remove(path)
	}
	// Directories still holding files that were not imported stay.
	for _, fan := range fans {
		os.Remove(filepath.Join(root, fan.Name()))
	}
	os.Remove(root)
	return nil
}
