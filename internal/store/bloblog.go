package store

import (
	"bufio"
	"crypto/sha256"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sync"
	"sync/atomic"
)

// The blob log holds every blob of a store in one append-only file. A record
// is the blob's SHA-256 (32 bytes), its length (8 bytes, little-endian) and
// its bytes. Blobs are immutable, content-addressed and never deleted, so
// the file only grows and nothing needs compacting.
const (
	logName   = "blobs.log"
	recHeader = sha256.Size + 8
	// maxKeptBuf bounds the record buffer a log keeps between appends.
	maxKeptBuf = 1 << 20
)

type blobKey = [sha256.Size]byte

// span locates a blob's bytes in the log.
type span struct{ off, n int64 }

// faults counts the store's failed file operations; each failure is also
// returned as an error.
type faults struct {
	writes atomic.Uint64 // failed creates, writes and truncates of the log or journal
	syncs  atomic.Uint64 // failed fsyncs of either file or of the store directory
	torn   atomic.Uint64 // torn tails cut off on open or replay
}

// blobLog is the store's blob log and its in-memory index. Appends are
// serialized under mu; reads take it only to look up the index, then read
// with one ReadAt. Safe for concurrent use.
type blobLog struct {
	fsys   fileSystem
	dir    string
	faults *faults

	mu    sync.RWMutex
	f     file // nil until the first append creates the file
	size  int64
	index map[blobKey]span
	buf   []byte // record buffer, reused across appends
	dirty bool   // written since the last fsync
	// broken is set when a failed append could not be rolled back or an
	// fsync failed: the file may then hold bytes the index does not
	// describe, or lost ones it does, so every later append and sync
	// refuses until the store is reopened, which rescans the file.
	broken error
}

// openBlobLog opens dir's blob log and indexes it. A missing log is left
// to the first append to create.
func openBlobLog(fsys fileSystem, dir string, faults *faults) (*blobLog, error) {
	l := &blobLog{fsys: fsys, dir: dir, faults: faults, index: make(map[blobKey]span)}
	f, err := fsys.OpenFile(filepath.Join(dir, logName), os.O_RDWR, 0)
	if errors.Is(err, os.ErrNotExist) {
		return l, nil
	}
	if err != nil {
		return nil, fmt.Errorf("store: blob log: %w", err)
	}
	l.f = f
	if err := l.scan(); err != nil {
		f.Close()
		return nil, err
	}
	return l, nil
}

// scan indexes every record of the log in order. The first record that is
// cut short, or whose bytes do not hash to its name, is a torn tail: a
// write that a crash or power cut interrupted. It and everything after it
// are truncated away, so the next append starts right after the last good
// record.
func (l *blobLog) scan() error {
	info, err := l.f.Stat()
	if err != nil {
		return fmt.Errorf("store: blob log: %w", err)
	}
	size := info.Size()
	r := bufio.NewReaderSize(io.NewSectionReader(l.f, 0, size), int(min(size, maxScanBuf)))
	var hdr [recHeader]byte
	var data []byte
	for l.size < size {
		if _, err := io.ReadFull(r, hdr[:]); err != nil {
			if err == io.ErrUnexpectedEOF {
				break
			}
			return fmt.Errorf("store: blob log: %w", err)
		}
		n := binary.LittleEndian.Uint64(hdr[sha256.Size:])
		if n > uint64(size-l.size-recHeader) {
			break
		}
		if uint64(cap(data)) < n {
			data = make([]byte, n)
		}
		data = data[:n]
		if _, err := io.ReadFull(r, data); err != nil {
			return fmt.Errorf("store: blob log: %w", err)
		}
		h := blobKey(hdr[:sha256.Size])
		if sha256.Sum256(data) != h {
			break
		}
		if _, dup := l.index[h]; !dup {
			l.index[h] = span{l.size + recHeader, int64(n)}
		}
		l.size += recHeader + int64(n)
	}
	if l.size < size {
		l.faults.torn.Add(1)
		if err := l.f.Truncate(l.size); err != nil {
			l.faults.writes.Add(1)
			return fmt.Errorf("store: blob log: truncate torn tail: %w", err)
		}
		l.dirty = true
	}
	return nil
}

// lookup returns where h's bytes are stored, and the file to read them from.
func (l *blobLog) lookup(h blobKey) (span, file, bool) {
	l.mu.RLock()
	defer l.mu.RUnlock()
	sp, ok := l.index[h]
	return sp, l.f, ok
}

// get reads h's bytes. ok is false if the log holds no blob h.
func (l *blobLog) get(h blobKey) (data []byte, ok bool, err error) {
	sp, f, ok := l.lookup(h)
	if !ok {
		return nil, false, nil
	}
	data = make([]byte, sp.n)
	if _, err := f.ReadAt(data, sp.off); err != nil {
		return nil, true, err
	}
	return data, true, nil
}

// put appends data under h unless the log already holds h, and reports
// whether it appended.
func (l *blobLog) put(h blobKey, data []byte) (bool, error) {
	l.mu.Lock()
	defer l.mu.Unlock()
	if _, ok := l.index[h]; ok {
		return false, nil
	}
	off := l.size
	if err := l.write(appendRecord(l.buf[:0], h, data)); err != nil {
		return false, err
	}
	l.index[h] = span{off + recHeader, int64(len(data))}
	return true, nil
}

// putBatch is put for many blobs, under one lock and with one write. A
// blob the log holds, or one repeated earlier in the batch, is not
// appended; written reports, element-wise, which blobs were.
func (l *blobLog) putBatch(hs []blobKey, blobs [][]byte) (written []bool, err error) {
	written = make([]bool, len(blobs))
	l.mu.Lock()
	defer l.mu.Unlock()
	rec := l.buf[:0]
	for i, h := range hs {
		if _, ok := l.index[h]; ok || repeated(hs[:i], written, h) {
			continue
		}
		rec = appendRecord(rec, h, blobs[i])
		written[i] = true
	}
	off := l.size
	if len(rec) > 0 {
		if err := l.write(rec); err != nil {
			return nil, err
		}
	}
	for i, h := range hs {
		if written[i] {
			l.index[h] = span{off + recHeader, int64(len(blobs[i]))}
			off += recHeader + int64(len(blobs[i]))
		}
	}
	return written, nil
}

// repeated reports whether h is among the hashes of hs marked written.
func repeated(hs []blobKey, written []bool, h blobKey) bool {
	for i := range hs {
		if written[i] && hs[i] == h {
			return true
		}
	}
	return false
}

func appendRecord(buf []byte, h blobKey, data []byte) []byte {
	buf = append(buf, h[:]...)
	buf = binary.LittleEndian.AppendUint64(buf, uint64(len(data)))
	return append(buf, data...)
}

// write appends rec, one or more whole records, at the end of the log,
// creating the file on first use. A failed write is rolled back by
// truncating to the old end; if that fails too the log refuses every later
// append, so no record ever lands after a partial one. Caller holds l.mu.
func (l *blobLog) write(rec []byte) error {
	if cap(rec) <= maxKeptBuf {
		l.buf = rec[:0]
	} else {
		l.buf = nil
	}
	if l.broken != nil {
		return l.broken
	}
	if l.f == nil {
		f, err := createFile(l.fsys, filepath.Join(l.dir, logName), l.dir, l.faults)
		if err != nil {
			return fmt.Errorf("store: blob log: %w", err)
		}
		l.f = f
	}
	if _, err := l.f.WriteAt(rec, l.size); err != nil {
		l.faults.writes.Add(1)
		if terr := l.f.Truncate(l.size); terr != nil {
			l.faults.writes.Add(1)
			l.broken = fmt.Errorf("store: blob log: a failed append could not be rolled back (%v); reopen the store", terr)
		}
		return fmt.Errorf("store: blob log: %w", err)
	}
	l.size += int64(len(rec))
	l.dirty = true
	return nil
}

// sync fsyncs the log if anything was written since the last fsync. Writes
// that finish while it runs stay dirty for the next sync. A failed fsync
// breaks the log: the kernel may have dropped the pages it could not
// write, so a retry that succeeds would prove nothing.
func (l *blobLog) sync() error {
	l.mu.Lock()
	f, dirty, broken := l.f, l.dirty, l.broken
	l.dirty = false
	l.mu.Unlock()
	if broken != nil {
		return broken
	}
	if !dirty {
		return nil
	}
	if err := f.Sync(); err != nil {
		l.faults.syncs.Add(1)
		l.mu.Lock()
		l.broken = fmt.Errorf("store: blob log: fsync failed (%v); reopen the store", err)
		l.mu.Unlock()
		return fmt.Errorf("store: blob log: %w", err)
	}
	return nil
}

func (l *blobLog) close() error {
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.f == nil {
		return nil
	}
	return l.f.Close()
}
