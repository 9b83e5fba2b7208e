// Package memostore is a disk-backed, content-addressed execution memo
// table: a persistent fourth cache tier under internal/runner's in-memory
// layers. Records are (key, kind, payload) triples appended to segment
// files as JSON lines; an in-memory index maps keys to their disk location
// and is rebuilt on every open by scanning the segments. The store shares
// internal/store's torn-tail rule (store.ScanLines) but relaxes its
// durability where cache semantics allow: every payload is the
// deterministic outcome of a content-addressed execution, so losing a
// record, dropping a whole segment for the size budget, or truncating a
// segment at a malformed line is always safe. The only invariant is that a
// record served under a key is the exact bytes once spilled under that key.
//
// Concurrency: all operations are safe for concurrent use. Get/Put/spill
// serialize on one mutex (memo lookups happen only on in-memory cache
// misses, so the lock is cold).
package memostore

import (
	"bytes"
	"encoding/base64"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"sync"

	"spirvfuzz/internal/store"
)

// Key is a content-addressed memo key — in practice a SHA-256 over a
// domain-separation prefix plus the execution's identifying content.
type Key [32]byte

// String returns the key's lowercase hex form (the wire encoding).
func (k Key) String() string { return hex.EncodeToString(k[:]) }

// ParseKey parses the hex form produced by Key.String.
func ParseKey(s string) (Key, error) {
	var k Key
	b, err := hex.DecodeString(s)
	if err != nil {
		return k, err
	}
	if len(b) != len(k) {
		return k, fmt.Errorf("memostore: key length %d, want %d", len(b), len(k))
	}
	copy(k[:], b)
	return k, nil
}

// Record is one memo entry as transferred over cluster sync.
type Record struct {
	Key  Key
	Kind uint8
	Data []byte
}

// Stats is a point-in-time snapshot of store counters. Recovery counters
// describe the most recent Open; sync counters are maintained by the
// cluster layer via AddPulled/AddPushed.
type Stats struct {
	Hits          uint64 `json:"hits"`
	Misses        uint64 `json:"misses"`
	Spills        uint64 `json:"spills"`         // records appended (sync + async)
	SpillsDropped uint64 `json:"spills_dropped"` // async spills dropped on a full queue
	SpillErrors   uint64 `json:"spill_errors"`   // async spills whose segment write failed
	Records       int    `json:"records"`        // live index entries
	Segments      int    `json:"segments"`
	Bytes         int64  `json:"bytes"`
	Evictions     uint64 `json:"evictions"` // segments dropped for the size budget
	// Compactions is always zero: the store evicts whole segments and
	// never rewrites one. It stays only because e2ebench reports it as
	// memostore.compactions.
	Compactions uint64 `json:"compactions"`
	// Recovery counters from the most recent Open.
	RecoveredRecords uint64 `json:"recovered_records,omitempty"` // index entries rebuilt by scanning
	TruncatedTails   uint64 `json:"truncated_tails,omitempty"`   // torn or malformed segment tails truncated
	// Cluster sync counters.
	Pulled uint64 `json:"pulled,omitempty"` // records received from a peer
	Pushed uint64 `json:"pushed,omitempty"` // records sent to a peer
}

// HitRate returns Hits/(Hits+Misses); 0 before any lookup.
func (s Stats) HitRate() float64 {
	if s.Hits+s.Misses == 0 {
		return 0
	}
	return float64(s.Hits) / float64(s.Hits+s.Misses)
}

const (
	segPrefix = "seg-"
	segSuffix = ".log"
	// syncEvery is how many appends go between segment fsyncs: a power cut
	// loses at most about this many records from the page cache.
	syncEvery = 1024
	// spillQueueCap bounds the async spill queue; overflow drops records
	// (they will be re-executed and re-spilled later) rather than blocking
	// the execution path. Sized so a campaign burst outrunning a briefly
	// stalled disk (dirty-page writeback) parks in memory instead of
	// dropping: payloads are a few KiB, so the worst case is ~tens of MiB.
	spillQueueCap = 4096
	// DefaultMaxBytes is the segment budget when Open is given maxBytes <= 0.
	DefaultMaxBytes = 256 << 20
)

// loc is one index slot: where a key's record lives on disk.
type loc struct {
	seg int
	off int64
	n   int    // line length including the trailing newline
	seq uint64 // monotone append order, for KeysSince
}

// segment is one on-disk append-only file of records.
type segment struct {
	id   int
	f    *os.File
	size int64
}

// line is the on-disk and on-wire JSON shape of one record.
type line struct {
	K string `json:"k"`
	T uint8  `json:"t"`
	D []byte `json:"d,omitempty"`
}

// decodeLine parses one segment line (with or without its trailing
// newline). Lines the store writes itself have a fixed field order and no
// escapable bytes, so a handwritten scan serves the hot read path — a
// warm campaign decodes one line per served execution, and every open
// decodes every line. Anything surprising falls back to encoding/json, so
// the fast path can only accelerate, never reject, a record the generic
// decoder would accept.
func decodeLine(buf []byte) (line, error) {
	buf = bytes.TrimSuffix(buf, []byte("\n"))
	if rec, ok := fastLine(buf); ok {
		return rec, nil
	}
	var rec line
	err := json.Unmarshal(buf, &rec)
	return rec, err
}

// fastLine decodes exactly the shape putLocked marshals:
// {"k":"<64 lowercase hex>","t":<digits>} optionally followed by
// ,"d":"<base64>". The key is checked to be hex (all Key.String writes),
// so it holds no JSON escape; t has no leading zero, which JSON forbids;
// and the data holds no raw newline, which JSON rejects inside a string
// but the base64 decoder skips (it rejects every other byte outside its
// alphabet, escapes and quotes included).
func fastLine(buf []byte) (line, bool) {
	var rec line
	rest, ok := bytes.CutPrefix(buf, []byte(`{"k":"`))
	if !ok || len(rest) < 64 {
		return rec, false
	}
	for _, c := range rest[:64] {
		if !lowerHex[c] {
			return rec, false
		}
	}
	rec.K = string(rest[:64])
	rest, ok = bytes.CutPrefix(rest[64:], []byte(`","t":`))
	if !ok {
		return rec, false
	}
	t, i := 0, 0
	for i < len(rest) && rest[i] >= '0' && rest[i] <= '9' {
		t = t*10 + int(rest[i]-'0')
		if t > 255 {
			return rec, false
		}
		i++
	}
	if i == 0 || (i > 1 && rest[0] == '0') {
		return rec, false
	}
	rec.T = uint8(t)
	rest = rest[i:]
	if bytes.Equal(rest, []byte("}")) {
		return rec, true
	}
	rest, ok = bytes.CutPrefix(rest, []byte(`,"d":"`))
	if !ok {
		return rec, false
	}
	b64, ok := bytes.CutSuffix(rest, []byte(`"}`))
	if !ok || bytes.IndexByte(b64, '\n') >= 0 || bytes.IndexByte(b64, '\r') >= 0 {
		return rec, false
	}
	data := make([]byte, base64.StdEncoding.DecodedLen(len(b64)))
	n, err := base64.StdEncoding.Decode(data, b64)
	if err != nil {
		return rec, false
	}
	rec.D = data[:n]
	return rec, true
}

// lowerHex marks the digits Key.String writes. A table lookup, not a range
// test: random hex digits would mispredict a digit-or-letter branch on
// every line a warm campaign reads.
var lowerHex = func() (t [256]bool) {
	for _, c := range "0123456789abcdef" {
		t[c] = true
	}
	return t
}()

// Store is a disk-backed memo table; use Open.
type Store struct {
	dir       string
	maxBytes  int64
	segTarget int64

	mu       sync.Mutex
	index    map[Key]loc
	segs     map[int]*segment
	order    []int // segment ids, oldest first; last is the append target
	nextSeg  int
	nextSeq  uint64
	unsynced int // appends since the last segment fsync
	stats    Stats
	closed   bool

	spillCh   chan spillMsg
	spillWG   sync.WaitGroup
	closeOnce sync.Once
}

type spillMsg struct {
	rec   Record
	flush chan struct{} // non-nil: a flush barrier, not a record
}

// Open opens (creating if needed) the memo store rooted at dir. maxBytes
// bounds total segment bytes (<= 0 selects DefaultMaxBytes). It builds the
// index by scanning every segment from the start, oldest first; a key
// recorded twice is served from its first record, and a segment is
// truncated at a torn or malformed line. Every recovery path degrades to
// a smaller cache, never to wrong data.
func Open(dir string, maxBytes int64) (*Store, error) {
	if maxBytes <= 0 {
		maxBytes = DefaultMaxBytes
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, err
	}
	st := &Store{
		dir:      dir,
		maxBytes: maxBytes,
		index:    make(map[Key]loc),
		segs:     make(map[int]*segment),
		spillCh:  make(chan spillMsg, spillQueueCap),
	}
	st.segTarget = maxBytes / 8
	if st.segTarget < 256<<10 {
		st.segTarget = 256 << 10
	}
	if err := st.recover(); err != nil {
		return nil, err
	}
	st.spillWG.Add(1)
	go st.spillLoop()
	return st, nil
}

// recover rebuilds the in-memory index by scanning every segment. Called
// once from Open, before any concurrency.
func (s *Store) recover() error {
	names, err := os.ReadDir(s.dir)
	if err != nil {
		return err
	}
	var ids []int
	for _, de := range names {
		n := de.Name()
		if !de.Type().IsRegular() || !startsWith(n, segPrefix) || !endsWith(n, segSuffix) {
			continue
		}
		var id int
		if _, err := fmt.Sscanf(n, segPrefix+"%08d"+segSuffix, &id); err != nil {
			continue
		}
		ids = append(ids, id)
	}
	sort.Ints(ids)

	for _, id := range ids {
		f, err := os.OpenFile(s.segPath(id), os.O_RDWR, 0o644)
		if err != nil {
			return err
		}
		seg := &segment{id: id, f: f}
		if err := s.scanSegment(seg); err != nil {
			f.Close()
			return err
		}
		s.segs[id] = seg
		s.order = append(s.order, id)
		s.nextSeg = id + 1
	}
	s.refreshGauges()
	return nil
}

// errMalformed stops a segment scan at a line that is not a record.
var errMalformed = errors.New("memostore: malformed segment line")

// scanSegment indexes every complete record of seg whose key is not yet
// indexed, then truncates seg after the last good line. A torn tail is a
// crash mid-spill; after a malformed interior line everything is suspect,
// and cache semantics make dropping it safe.
func (s *Store) scanSegment(seg *segment) error {
	fi, err := seg.f.Stat()
	if err != nil {
		return err
	}
	valid, err := store.ScanLines(seg.f, func(off int64, ln []byte) error {
		rec, err := decodeLine(ln)
		if err != nil {
			return errMalformed
		}
		k, err := ParseKey(rec.K)
		if err != nil {
			return errMalformed
		}
		if _, dup := s.index[k]; !dup {
			s.nextSeq++
			s.index[k] = loc{seg: seg.id, off: off, n: len(ln), seq: s.nextSeq}
			s.stats.RecoveredRecords++
		}
		return nil
	})
	if err != nil && err != errMalformed {
		return err
	}
	seg.size = valid
	if valid < fi.Size() {
		s.stats.TruncatedTails++
		return seg.f.Truncate(valid)
	}
	return nil
}

func (s *Store) segPath(id int) string {
	return filepath.Join(s.dir, fmt.Sprintf(segPrefix+"%08d"+segSuffix, id))
}

// Get returns the payload stored under k. A record that fails to read
// back (its segment evicted, or its bytes changed on disk since the scan)
// is treated as a miss and its index entry dropped — the store self-heals
// instead of serving bad bytes.
func (s *Store) Get(k Key) (kind uint8, data []byte, ok bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	l, ok := s.index[k]
	if !ok {
		s.stats.Misses++
		return 0, nil, false
	}
	rec, err := s.readLocked(k, l)
	if err != nil {
		delete(s.index, k)
		s.stats.Misses++
		s.refreshGauges()
		return 0, nil, false
	}
	s.stats.Hits++
	return rec.Kind, rec.Data, true
}

// Has reports whether k is indexed (without touching disk or hit/miss
// counters — it exists for sync negotiation, not for lookups).
func (s *Store) Has(k Key) bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	_, ok := s.index[k]
	return ok
}

// GetRecord is Get returning the full Record shape (for sync transfers).
func (s *Store) GetRecord(k Key) (Record, bool) {
	kind, data, ok := s.Get(k)
	if !ok {
		return Record{}, false
	}
	return Record{Key: k, Kind: kind, Data: data}, true
}

// readLocked reads and validates one record. Caller holds mu.
func (s *Store) readLocked(k Key, l loc) (Record, error) {
	seg := s.segs[l.seg]
	if seg == nil {
		return Record{}, fmt.Errorf("memostore: segment %d gone", l.seg)
	}
	buf := make([]byte, l.n)
	if _, err := seg.f.ReadAt(buf, l.off); err != nil {
		return Record{}, err
	}
	rec, err := decodeLine(buf)
	if err != nil {
		return Record{}, err
	}
	gotK, err := ParseKey(rec.K)
	if err != nil {
		return Record{}, err
	}
	if gotK != k {
		return Record{}, fmt.Errorf("memostore: key mismatch at seg %d off %d", l.seg, l.off)
	}
	return Record{Key: k, Kind: rec.T, Data: rec.D}, nil
}

// Put appends a record under k if the key is not already present.
// Payloads are deterministic functions of their keys, so overwriting is
// pointless; put-if-absent keeps segments duplicate-free.
func (s *Store) Put(k Key, kind uint8, data []byte) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.putLocked(Record{Key: k, Kind: kind, Data: data})
}

// PutBatch appends every absent record in recs (the sync pull path).
func (s *Store) PutBatch(recs []Record) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	for _, r := range recs {
		if err := s.putLocked(r); err != nil {
			return err
		}
	}
	return nil
}

func (s *Store) putLocked(r Record) error {
	if s.closed {
		return fmt.Errorf("memostore: closed")
	}
	if _, ok := s.index[r.Key]; ok {
		return nil
	}
	seg, err := s.appendSegLocked()
	if err != nil {
		return err
	}
	data, err := json.Marshal(line{K: r.Key.String(), T: r.Kind, D: r.Data})
	if err != nil {
		return err
	}
	data = append(data, '\n')
	if _, err := seg.f.WriteAt(data, seg.size); err != nil {
		return err
	}
	s.nextSeq++
	s.index[r.Key] = loc{seg: seg.id, off: seg.size, n: len(data), seq: s.nextSeq}
	seg.size += int64(len(data))
	s.stats.Spills++
	s.unsynced++
	s.enforceBudgetLocked()
	if s.unsynced >= syncEvery {
		if err := s.syncLocked(); err != nil {
			return err
		}
	}
	s.refreshGauges()
	return nil
}

// appendSegLocked returns the active append segment, rolling to a fresh
// one when the current segment reached the per-segment target size.
func (s *Store) appendSegLocked() (*segment, error) {
	if n := len(s.order); n > 0 {
		seg := s.segs[s.order[n-1]]
		if seg.size < s.segTarget {
			return seg, nil
		}
	}
	id := s.nextSeg
	s.nextSeg++
	f, err := os.OpenFile(s.segPath(id), os.O_RDWR|os.O_CREATE|os.O_EXCL, 0o644)
	if err != nil {
		return nil, err
	}
	seg := &segment{id: id, f: f}
	s.segs[id] = seg
	s.order = append(s.order, id)
	return seg, nil
}

// enforceBudgetLocked brings total segment bytes back under the budget by
// evicting the oldest segments whole — LRU at segment granularity: an old
// record costs one re-execution to recover, which is exactly what the memo
// saved once already, and a hot key re-spills into a young segment the
// next time it executes.
func (s *Store) enforceBudgetLocked() {
	for s.totalBytesLocked() > s.maxBytes && len(s.order) > 1 {
		s.dropSegLocked(s.segs[s.order[0]])
		s.stats.Evictions++
	}
}

func (s *Store) totalBytesLocked() int64 {
	var n int64
	for _, seg := range s.segs {
		n += seg.size
	}
	return n
}

// dropSegLocked removes seg and every index entry pointing at it.
func (s *Store) dropSegLocked(seg *segment) {
	for k, l := range s.index {
		if l.seg == seg.id {
			delete(s.index, k)
		}
	}
	seg.f.Close()
	os.Remove(s.segPath(seg.id))
	delete(s.segs, seg.id)
	for i, id := range s.order {
		if id == seg.id {
			s.order = append(s.order[:i], s.order[i+1:]...)
			break
		}
	}
}

// Keys returns every indexed key in sorted order.
func (s *Store) Keys() []Key {
	s.mu.Lock()
	defer s.mu.Unlock()
	out := make([]Key, 0, len(s.index))
	for k := range s.index {
		out = append(out, k)
	}
	sort.Slice(out, func(i, j int) bool { return bytes.Compare(out[i][:], out[j][:]) < 0 })
	return out
}

// KeysSince returns the keys appended after mark (in append order) and
// the new mark — the incremental push-sync cursor. Mark 0 returns
// everything.
func (s *Store) KeysSince(mark uint64) ([]Key, uint64) {
	s.mu.Lock()
	defer s.mu.Unlock()
	type ks struct {
		k   Key
		seq uint64
	}
	var picked []ks
	high := mark
	for k, l := range s.index {
		if l.seq > mark {
			picked = append(picked, ks{k, l.seq})
			if l.seq > high {
				high = l.seq
			}
		}
	}
	sort.Slice(picked, func(i, j int) bool { return picked[i].seq < picked[j].seq })
	out := make([]Key, len(picked))
	for i, p := range picked {
		out[i] = p.k
	}
	return out, high
}

// Len returns the number of live records.
func (s *Store) Len() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return len(s.index)
}

// SpillAsync enqueues a record for background persistence. It never
// blocks: when the queue is full the record is dropped and counted — the
// execution it memoizes will simply run again someday and re-spill.
func (s *Store) SpillAsync(k Key, kind uint8, data []byte) {
	select {
	case s.spillCh <- spillMsg{rec: Record{Key: k, Kind: kind, Data: data}}:
	default:
		s.mu.Lock()
		s.stats.SpillsDropped++
		s.mu.Unlock()
	}
}

// Flush blocks until every spill enqueued before the call has been
// written. Tests use it to make async spills deterministic; sync uses it
// so KeysSince sees a complete picture.
func (s *Store) Flush() {
	done := make(chan struct{})
	select {
	case s.spillCh <- spillMsg{flush: done}:
		<-done
	default:
		// Queue full of real records: drain by blocking send.
		s.spillCh <- spillMsg{flush: done}
		<-done
	}
}

func (s *Store) spillLoop() {
	defer s.spillWG.Done()
	for msg := range s.spillCh {
		if msg.flush != nil {
			close(msg.flush)
			continue
		}
		if err := s.Put(msg.rec.Key, msg.rec.Kind, msg.rec.Data); err != nil {
			s.mu.Lock()
			s.stats.SpillErrors++
			s.mu.Unlock()
		}
	}
}

// syncLocked fsyncs every segment: the durability flush that putLocked
// runs every syncEvery appends and Close runs last.
func (s *Store) syncLocked() error {
	for _, id := range s.order {
		if err := s.segs[id].f.Sync(); err != nil {
			return err
		}
	}
	s.unsynced = 0
	return nil
}

// AddPulled records n records received from a peer (cluster sync).
func (s *Store) AddPulled(n int) {
	s.mu.Lock()
	s.stats.Pulled += uint64(n)
	s.mu.Unlock()
}

// AddPushed records n records sent to a peer (cluster sync).
func (s *Store) AddPushed(n int) {
	s.mu.Lock()
	s.stats.Pushed += uint64(n)
	s.mu.Unlock()
}

// Stats returns a snapshot of the store's counters.
func (s *Store) Stats() Stats {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.refreshGauges()
	return s.stats
}

func (s *Store) refreshGauges() {
	s.stats.Records = len(s.index)
	s.stats.Segments = len(s.order)
	s.stats.Bytes = s.totalBytesLocked()
}

// Close flushes pending spills, fsyncs the segments, and closes every
// segment handle. The store is unusable afterwards; extra Closes are
// no-ops.
func (s *Store) Close() error {
	var err error
	s.closeOnce.Do(func() {
		s.Flush()
		close(s.spillCh)
		s.spillWG.Wait()
		s.mu.Lock()
		defer s.mu.Unlock()
		err = s.syncLocked()
		for _, seg := range s.segs {
			seg.f.Close()
		}
		s.closed = true
	})
	return err
}

// Dir returns the store's root directory.
func (s *Store) Dir() string { return s.dir }

func startsWith(s, p string) bool { return len(s) >= len(p) && s[:len(p)] == p }
func endsWith(s, p string) bool   { return len(s) >= len(p) && s[len(s)-len(p):] == p }
