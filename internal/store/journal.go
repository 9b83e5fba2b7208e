package store

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"os"
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

// Journal is an append-only, line-delimited JSON event log — the write-ahead
// journal of campaign progress. Appends are serialized and each record is a
// single O_APPEND write of one line, so records from a killed process are
// either fully present or torn exactly at the tail; Replay tolerates a torn
// tail by discarding it (the corresponding pipeline step re-runs, which is
// safe because every step is deterministic and idempotent against the blob
// store). Safe for concurrent use.
type Journal struct {
	mu       sync.Mutex
	path     string
	f        *os.File
	nextSeq  uint64
	appended atomic.Uint64
}

// openJournal opens (creating if needed) the journal at path and seeds the
// sequence counter from the existing records. A torn trailing record (from a
// writer killed mid-append) is truncated away so the next append starts on a
// clean line boundary.
func openJournal(path string) (*Journal, error) {
	j := &Journal{path: path, nextSeq: 1}
	valid, err := j.replay(func(r Record) error {
		if r.Seq == math.MaxUint64 {
			return fmt.Errorf("store: journal: sequence number %d leaves no successor", r.Seq)
		}
		if r.Seq >= j.nextSeq {
			j.nextSeq = r.Seq + 1
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	f, err := os.OpenFile(path, os.O_CREATE|os.O_RDWR, 0o644)
	if err != nil {
		return nil, fmt.Errorf("store: journal: %w", err)
	}
	if info, err := f.Stat(); err == nil && info.Size() > valid {
		if err := f.Truncate(valid); err != nil {
			f.Close()
			return nil, fmt.Errorf("store: journal: truncate torn tail: %w", err)
		}
	}
	if _, err := f.Seek(0, io.SeekEnd); err != nil {
		f.Close()
		return nil, fmt.Errorf("store: journal: %w", err)
	}
	j.f = f
	return j, nil
}

// Close closes the journal file.
func (j *Journal) Close() error {
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.f.Close()
}

// Append journals one event, assigning its sequence number, and returns the
// record as written.
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
	rec := Record{Seq: j.nextSeq, Campaign: campaign, Type: typ, Data: raw}
	line, err := json.Marshal(rec)
	if err != nil {
		return Record{}, fmt.Errorf("store: journal: %w", err)
	}
	if _, err := j.f.Write(append(line, '\n')); err != nil {
		return Record{}, fmt.Errorf("store: journal: %w", err)
	}
	j.nextSeq++
	j.appended.Add(1)
	return rec, nil
}

// Sync flushes journal writes to stable storage.
func (j *Journal) Sync() error {
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.f.Sync()
}

// Replay reads every complete record in order and calls fn on each. A torn
// trailing line — the signature of a process killed mid-append — is
// discarded; a malformed record anywhere else is corruption and an error.
func (j *Journal) Replay(fn func(Record) error) error {
	_, err := j.replay(fn)
	return err
}

// replay is Replay returning the byte offset just past the last complete
// record, which openJournal uses to truncate a torn tail.
func (j *Journal) replay(fn func(Record) error) (int64, error) {
	f, err := os.Open(j.path)
	if err != nil {
		if os.IsNotExist(err) {
			return 0, nil
		}
		return 0, fmt.Errorf("store: journal: %w", err)
	}
	defer f.Close()
	return ScanLines(f, func(_ int64, line []byte) error {
		if len(bytes.TrimSpace(line)) == 0 {
			return nil
		}
		var rec Record
		if err := json.Unmarshal(line, &rec); err != nil {
			return fmt.Errorf("store: journal corrupted: %v", err)
		}
		return fn(rec)
	})
}
