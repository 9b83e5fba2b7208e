package store

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"io"
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

// maxReplayBuf caps replay's read buffer.
const maxReplayBuf = 1 << 20

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
	// Size the buffer to the file, capped at 1 MiB: the journal is opened on
	// every daemon start, and most journals are far smaller than the cap.
	// ReadBytes joins lines longer than the buffer, so the cap bounds only
	// the buffer, not the record size.
	size := int64(maxReplayBuf)
	if info, err := f.Stat(); err == nil && info.Size() < size {
		size = info.Size()
	}
	r := bufio.NewReaderSize(f, int(size))
	var valid int64
	for {
		line, err := r.ReadBytes('\n')
		atEOF := err == io.EOF
		if err != nil && !atEOF {
			return valid, fmt.Errorf("store: journal: %w", err)
		}
		read := int64(len(line))
		line = bytes.TrimSuffix(line, []byte("\n"))
		if len(bytes.TrimSpace(line)) > 0 {
			if atEOF {
				// No trailing newline: the record (or at least its newline)
				// was torn by a kill mid-append. Discard it — the pipeline
				// step it recorded simply re-runs.
				return valid, nil
			}
			var rec Record
			if jsonErr := json.Unmarshal(line, &rec); jsonErr != nil {
				return valid, fmt.Errorf("store: journal corrupted: %v", jsonErr)
			}
			if err := fn(rec); err != nil {
				return valid, err
			}
		}
		valid += read
		if atEOF {
			return valid, nil
		}
	}
}
