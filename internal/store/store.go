// Package store is the durable state layer behind the spirvd campaign
// daemon: a content-addressed blob log for campaign artifacts
// (transformation sequences and reduced bug reports) and a write-ahead
// journal of campaign events.
//
// Everything the pipeline produces is deterministic, so durability is
// expressed as content addressing plus an event log: artifacts are keyed by
// the SHA-256 of their bytes (identical artifacts from different campaigns
// or from a re-run of the same campaign occupy one blob), and the journal
// records which pipeline steps completed, referencing artifacts by hash. A
// daemon killed at any point — including SIGKILL mid-write — reopens the
// store, replays the journal, and resumes without re-running completed work;
// a torn trailing record of either file is discarded (its step simply
// re-runs). Journal.Sync fsyncs the blob log before the journal, so a power
// cut leaves no durable record naming a lost blob.
package store

import (
	"crypto/sha256"
	"encoding/hex"
	"errors"
	"fmt"
	"io/fs"
	"os"
	"sync/atomic"
)

// Store is an on-disk campaign store rooted at one directory:
//
//	root/
//	  blobs.log                 append-only log of content-addressed
//	                            artifacts: SHA-256, length, bytes
//	  journal.jsonl             append-only campaign event log
//
// The blob log is created by the first put. Open indexes it by scanning it,
// and imports the per-blob files (blobs/ab/abcdef...) of a store written
// before the log existed. Derived state (buckets, bisection sets) is never
// stored: it is rebuilt from the journal on open. A checkpoints/ directory
// left by older builds is ignored.
//
// Store is safe for concurrent use.
type Store struct {
	root    string
	blobs   *blobLog
	journal *Journal
	faults  faults

	blobsWritten atomic.Uint64
	blobBytes    atomic.Uint64
	blobDedup    atomic.Uint64

	syncHasQueries atomic.Uint64
	syncBlobsIn    atomic.Uint64
	syncBytesIn    atomic.Uint64
	syncBlobsOut   atomic.Uint64
	syncBytesOut   atomic.Uint64
}

// Stats is a point-in-time snapshot of store counters, following the
// internal/runner Stats pattern.
type Stats struct {
	BlobsWritten   uint64 `json:"blobs_written"` // new blobs appended to the blob log
	BlobBytes      uint64 `json:"blob_bytes"`    // bytes of those blobs
	BlobDedupHits  uint64 `json:"blob_dedup_hits"`
	JournalRecords uint64 `json:"journal_records"` // records appended this process

	// Faults of the blob log and the journal. Each one also surfaced as
	// an error from the call that met it.
	WriteErrors uint64 `json:"write_errors"` // failed creates, writes and truncates
	SyncErrors  uint64 `json:"sync_errors"`  // failed fsyncs, of a file or the directory
	TornTails   uint64 `json:"torn_tails"`   // torn tails cut off on open or replay

	// Blob-sync protocol traffic (HasBatch/PutBatch/GetBatch), the
	// store-side view of cluster transfers.
	SyncHasQueries uint64 `json:"sync_has_queries"` // hashes probed via HasBatch
	SyncBlobsIn    uint64 `json:"sync_blobs_in"`    // blobs received via PutBatch
	SyncBytesIn    uint64 `json:"sync_bytes_in"`
	SyncBlobsOut   uint64 `json:"sync_blobs_out"` // blobs served via GetBatch
	SyncBytesOut   uint64 `json:"sync_bytes_out"`
}

// Open opens (creating if needed) a store rooted at dir.
func Open(dir string) (*Store, error) { return open(osFS{}, dir) }

func open(fsys fileSystem, dir string) (*Store, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("store: %w", err)
	}
	s := &Store{root: dir}
	blobs, err := openBlobLog(fsys, dir, &s.faults)
	if err != nil {
		return nil, err
	}
	j, err := openJournal(fsys, dir, blobs, &s.faults)
	if err != nil {
		blobs.close()
		return nil, err
	}
	s.blobs, s.journal = blobs, j
	// Only a store with journaled work and no blob log can hold per-blob
	// files to import; a fresh store pays no look for them.
	if blobs.f == nil && j.size > 0 {
		if err := importBlobFiles(fsys, blobs); err != nil {
			s.Close()
			return nil, err
		}
	}
	return s, nil
}

// Close releases the blob log's and the journal's file handles.
func (s *Store) Close() error {
	err := s.journal.Close()
	if berr := s.blobs.close(); err == nil {
		err = berr
	}
	return err
}

// Root returns the store's root directory.
func (s *Store) Root() string { return s.root }

// Journal returns the store's write-ahead journal.
func (s *Store) Journal() *Journal { return s.journal }

// Stats returns a snapshot of the store's counters.
func (s *Store) Stats() Stats {
	return Stats{
		BlobsWritten:   s.blobsWritten.Load(),
		BlobBytes:      s.blobBytes.Load(),
		BlobDedupHits:  s.blobDedup.Load(),
		JournalRecords: s.journal.appended.Load(),
		WriteErrors:    s.faults.writes.Load(),
		SyncErrors:     s.faults.syncs.Load(),
		TornTails:      s.faults.torn.Load(),
		SyncHasQueries: s.syncHasQueries.Load(),
		SyncBlobsIn:    s.syncBlobsIn.Load(),
		SyncBytesIn:    s.syncBytesIn.Load(),
		SyncBlobsOut:   s.syncBlobsOut.Load(),
		SyncBytesOut:   s.syncBytesOut.Load(),
	}
}

// HashBytes returns the store's content address for data: lowercase SHA-256
// hex.
func HashBytes(data []byte) string {
	h := sha256.Sum256(data)
	return hex.EncodeToString(h[:])
}

// ErrMalformedHash marks a blob hash that is not 64 hex digits.
var ErrMalformedHash = errors.New("store: malformed blob hash")

// parseHash decodes a blob hash: 64 lowercase hex digits.
func parseHash(hash string) (blobKey, error) {
	var h blobKey
	if len(hash) != 2*sha256.Size {
		return h, fmt.Errorf("%w %q", ErrMalformedHash, hash)
	}
	for i := 0; i < len(hash); i++ {
		if c := hash[i]; !('0' <= c && c <= '9' || 'a' <= c && c <= 'f') {
			return h, fmt.Errorf("%w %q", ErrMalformedHash, hash)
		}
	}
	hex.Decode(h[:], []byte(hash))
	return h, nil
}

// PutBlob stores data under its content address and returns the hash. An
// existing blob with the same content is reused (a dedup hit, which makes
// no system call), which is what makes re-submitted campaigns and
// restarted daemons idempotent: writing the same artifact twice is a no-op.
// A new blob is one append to the blob log; it is durable once the journal
// next syncs.
func (s *Store) PutBlob(data []byte) (string, error) {
	h := sha256.Sum256(data)
	written, err := s.blobs.put(h, data)
	if err != nil {
		return "", err
	}
	s.countPut(written, len(data))
	return hex.EncodeToString(h[:]), nil
}

func (s *Store) countPut(written bool, n int) {
	if !written {
		s.blobDedup.Add(1)
		return
	}
	s.blobsWritten.Add(1)
	s.blobBytes.Add(uint64(n))
}

// GetBlob returns the blob stored under hash, after checking that its
// bytes still hash to it. A missing blob's error wraps fs.ErrNotExist.
func (s *Store) GetBlob(hash string) ([]byte, error) {
	h, err := parseHash(hash)
	if err != nil {
		return nil, err
	}
	data, ok, err := s.blobs.get(h)
	if !ok {
		return nil, fmt.Errorf("store: blob %s: %w", hash, fs.ErrNotExist)
	}
	if err != nil {
		return nil, fmt.Errorf("store: blob %s: %w", hash, err)
	}
	if got := sha256.Sum256(data); got != h {
		return nil, fmt.Errorf("store: blob %s corrupted (content hashes to %x)", hash, got)
	}
	return data, nil
}

// HasBlob reports whether a blob is stored under hash.
func (s *Store) HasBlob(hash string) bool {
	_, ok := s.StatBlob(hash)
	return ok
}
