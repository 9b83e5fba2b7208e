package store

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"sync"
	"sync/atomic"
)

// Record is one journal entry: a campaign event. Data carries the
// event-specific payload; the journal itself is schema-agnostic so the
// service layer can evolve event shapes without store changes.
type Record struct {
	Seq      uint64          `json:"seq"`
	Campaign string          `json:"campaign,omitempty"`
	Type     string          `json:"type"`
	Data     json.RawMessage `json:"data,omitempty"`
}

// ErrTornTail, returned by a Replay callback, declares the record it was
// given, and every record after it, a torn tail: Replay truncates the
// journal before that record and returns nil, so the steps those records
// describe re-run. A record that names a blob the blob log lacks is one: a
// power cut kept the journal's record but not the unsynced blob it names.
var ErrTornTail = errors.New("store: torn journal tail")

const journalName = "journal.jsonl"

// Journal is an append-only, line-delimited JSON event log — the write-ahead
// journal of campaign progress. Appends are serialized and each record is a
// single write of one line at the journal's end, so records from a killed
// process are either fully present or torn exactly at the tail; Replay
// tolerates a torn tail by discarding it (the corresponding pipeline step
// re-runs, which is safe because every step is deterministic and idempotent
// against the blob store). Safe for concurrent use.
type Journal struct {
	mu       sync.Mutex
	f        file
	size     int64
	nextSeq  uint64
	appended atomic.Uint64
	// blobs is fsynced before the journal at every Sync, so no durable
	// record names a blob that a power cut can lose.
	blobs  *blobLog
	faults *faults
	// broken is set when a failed append could not be rolled back or an
	// fsync failed; every later Append and Sync returns it.
	broken error
}

// openJournal opens (creating if needed) dir's journal and seeds the
// sequence counter from the existing records. A torn trailing record (from
// a writer killed mid-append) is truncated away so the next append starts
// on a clean line boundary.
func openJournal(fsys fileSystem, dir string, blobs *blobLog, faults *faults) (*Journal, error) {
	j := &Journal{nextSeq: 1, blobs: blobs, faults: faults}
	path := filepath.Join(dir, journalName)
	f, err := fsys.OpenFile(path, os.O_RDWR, 0)
	if errors.Is(err, os.ErrNotExist) {
		if j.f, err = createFile(fsys, path, dir, faults); err != nil {
			return nil, fmt.Errorf("store: journal: %w", err)
		}
		return j, nil
	}
	if err != nil {
		return nil, fmt.Errorf("store: journal: %w", err)
	}
	j.f = f
	info, err := f.Stat()
	if err != nil {
		f.Close()
		return nil, fmt.Errorf("store: journal: %w", err)
	}
	j.size, err = j.scan(info.Size(), func(_ int64, r Record) error {
		if r.Seq == math.MaxUint64 {
			return fmt.Errorf("store: journal: sequence number %d leaves no successor", r.Seq)
		}
		if r.Seq >= j.nextSeq {
			j.nextSeq = r.Seq + 1
		}
		return nil
	})
	if err != nil {
		f.Close()
		return nil, err
	}
	if j.size < info.Size() {
		faults.torn.Add(1)
		if err := f.Truncate(j.size); err != nil {
			faults.writes.Add(1)
			f.Close()
			return nil, fmt.Errorf("store: journal: truncate torn tail: %w", err)
		}
	}
	return j, nil
}

// Close closes the journal file.
func (j *Journal) Close() error {
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.f.Close()
}

// Append journals one event, assigning its sequence number, and returns the
// record as written. A failed write is rolled back by truncating the
// journal to its old end; if that fails too the journal refuses every
// later append.
func (j *Journal) Append(campaign, typ string, data any) (Record, error) {
	var raw json.RawMessage
	if data != nil {
		enc, err := json.Marshal(data)
		if err != nil {
			return Record{}, fmt.Errorf("store: journal: marshal %s: %w", typ, err)
		}
		raw = enc
	}
	j.mu.Lock()
	defer j.mu.Unlock()
	if j.broken != nil {
		return Record{}, j.broken
	}
	rec := Record{Seq: j.nextSeq, Campaign: campaign, Type: typ, Data: raw}
	line, err := json.Marshal(rec)
	if err != nil {
		return Record{}, fmt.Errorf("store: journal: %w", err)
	}
	line = append(line, '\n')
	if _, err := j.f.WriteAt(line, j.size); err != nil {
		j.faults.writes.Add(1)
		if terr := j.f.Truncate(j.size); terr != nil {
			j.faults.writes.Add(1)
			j.broken = fmt.Errorf("store: journal: a failed append could not be rolled back (%v); reopen the store", terr)
		}
		return Record{}, fmt.Errorf("store: journal: %w", err)
	}
	j.size += int64(len(line))
	j.nextSeq++
	j.appended.Add(1)
	return rec, nil
}

// Sync makes every record appended so far durable, and every blob they
// name: it fsyncs the blob log, if anything was written to it since its
// last fsync, and then the journal. A failed fsync breaks the journal (or
// the blob log): the kernel may have dropped the pages it could not write,
// so later appends and syncs refuse until the store is reopened.
func (j *Journal) Sync() error {
	if j.blobs != nil {
		if err := j.blobs.sync(); err != nil {
			return err
		}
	}
	j.mu.Lock()
	defer j.mu.Unlock()
	if j.broken != nil {
		return j.broken
	}
	if err := j.f.Sync(); err != nil {
		j.faults.syncs.Add(1)
		j.broken = fmt.Errorf("store: journal: fsync failed (%v); reopen the store", err)
		return fmt.Errorf("store: journal: %w", err)
	}
	return nil
}

// Replay reads every complete record in order and calls fn on each. A torn
// trailing line — the signature of a process killed mid-append — is
// discarded; a malformed record anywhere else is corruption and an error.
// If fn returns ErrTornTail, Replay truncates the journal before that
// record and returns nil; it fails instead if a record was appended since
// Replay began.
func (j *Journal) Replay(fn func(Record) error) error {
	j.mu.Lock()
	size := j.size
	j.mu.Unlock()
	torn := int64(-1)
	_, err := j.scan(size, func(off int64, r Record) error {
		err := fn(r)
		if errors.Is(err, ErrTornTail) {
			torn = off
		}
		return err
	})
	if torn < 0 {
		return err
	}
	j.mu.Lock()
	defer j.mu.Unlock()
	if j.size != size {
		return fmt.Errorf("store: journal: records appended during a replay that found a torn tail")
	}
	j.faults.torn.Add(1)
	if err := j.f.Truncate(torn); err != nil {
		j.faults.writes.Add(1)
		return fmt.Errorf("store: journal: truncate torn tail: %w", err)
	}
	j.size = torn
	return nil
}

// scan calls fn on every complete record of the journal's first size
// bytes, with the record's offset, and returns the offset just past the
// last complete record, which openJournal uses to truncate a torn tail.
func (j *Journal) scan(size int64, fn func(off int64, r Record) error) (int64, error) {
	return scanLines(j.f, size, func(off int64, line []byte) error {
		if len(bytes.TrimSpace(line)) == 0 {
			return nil
		}
		var rec Record
		if err := json.Unmarshal(line, &rec); err != nil {
			return fmt.Errorf("store: journal corrupted: %v", err)
		}
		return fn(off, rec)
	})
}
