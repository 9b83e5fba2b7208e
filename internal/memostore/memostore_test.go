package memostore

import (
	"bytes"
	"crypto/sha256"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sync"
	"testing"
)

func testKey(i int) Key {
	return Key(sha256.Sum256([]byte(fmt.Sprintf("key-%d", i))))
}

func testData(i int) []byte {
	return []byte(fmt.Sprintf("payload-%d-%s", i, string(bytes.Repeat([]byte{'x'}, i%7))))
}

// abandon simulates a crash: the store's file handles are closed without
// any flush or fsync — exactly the state a SIGKILL leaves on disk (modulo
// OS page-cache loss, which TestIndexSegmentMismatch models).
func abandon(s *Store) {
	s.mu.Lock()
	defer s.mu.Unlock()
	for _, seg := range s.segs {
		seg.f.Close()
	}
	s.closed = true
	close(s.spillCh)
}

// writeStaleIndex writes dir/index.json in the shape of the checkpointed
// index that memo stores used to keep (testdata/checkpointed-store holds
// one such store), listing every record s indexes now. Open ignores the
// file: tests write it to show that a stale one changes nothing.
func writeStaleIndex(t *testing.T, s *Store) {
	t.Helper()
	type ckptSegment struct {
		ID   int   `json:"id"`
		Size int64 `json:"size"`
	}
	type ckptEntry struct {
		K    string `json:"k"`
		Seg  int    `json:"seg"`
		Off  int64  `json:"off"`
		N    int    `json:"n"`
		Kind uint8  `json:"t"`
	}
	var ck struct {
		NextSeg  int           `json:"next_seg"`
		Segments []ckptSegment `json:"segments"`
		Entries  []ckptEntry   `json:"entries"`
	}
	s.mu.Lock()
	ck.NextSeg = s.nextSeg
	for _, id := range s.order {
		ck.Segments = append(ck.Segments, ckptSegment{ID: id, Size: s.segs[id].size})
	}
	for k, l := range s.index {
		ck.Entries = append(ck.Entries, ckptEntry{K: k.String(), Seg: l.seg, Off: l.off, N: l.n, Kind: 1})
	}
	s.mu.Unlock()
	data, err := json.Marshal(&ck)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(filepath.Join(s.dir, "index.json"), data, 0o644); err != nil {
		t.Fatal(err)
	}
}

func mustOpen(t *testing.T, dir string, maxBytes int64) *Store {
	t.Helper()
	s, err := Open(dir, maxBytes)
	if err != nil {
		t.Fatalf("Open(%s): %v", dir, err)
	}
	return s
}

func TestPutGetRoundTrip(t *testing.T) {
	s := mustOpen(t, t.TempDir(), 0)
	defer s.Close()
	for i := 0; i < 50; i++ {
		if err := s.Put(testKey(i), uint8(i%3), testData(i)); err != nil {
			t.Fatalf("Put: %v", err)
		}
	}
	for i := 0; i < 50; i++ {
		kind, data, ok := s.Get(testKey(i))
		if !ok {
			t.Fatalf("Get(%d): miss", i)
		}
		if kind != uint8(i%3) || !bytes.Equal(data, testData(i)) {
			t.Fatalf("Get(%d): kind %d data %q", i, kind, data)
		}
	}
	if _, _, ok := s.Get(testKey(999)); ok {
		t.Fatal("Get of absent key hit")
	}
	st := s.Stats()
	if st.Hits != 50 || st.Misses != 1 || st.Records != 50 {
		t.Fatalf("stats: %+v", st)
	}
	if st.HitRate() < 0.9 {
		t.Fatalf("hit rate %v", st.HitRate())
	}
}

func TestPutIfAbsent(t *testing.T) {
	s := mustOpen(t, t.TempDir(), 0)
	defer s.Close()
	k := testKey(1)
	if err := s.Put(k, 1, []byte("first")); err != nil {
		t.Fatal(err)
	}
	if err := s.Put(k, 2, []byte("second")); err != nil {
		t.Fatal(err)
	}
	kind, data, _ := s.Get(k)
	if kind != 1 || string(data) != "first" {
		t.Fatalf("second put overwrote: kind %d data %q", kind, data)
	}
	if got := s.Stats().Spills; got != 1 {
		t.Fatalf("spills %d, want 1 (dup skipped)", got)
	}
}

func TestReopenAfterCleanClose(t *testing.T) {
	dir := t.TempDir()
	s := mustOpen(t, dir, 0)
	for i := 0; i < 20; i++ {
		s.Put(testKey(i), 1, testData(i))
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	s2 := mustOpen(t, dir, 0)
	defer s2.Close()
	st := s2.Stats()
	if st.Records != 20 {
		t.Fatalf("records %d after clean reopen", st.Records)
	}
	// Every open indexes by scanning; a clean close leaves no torn tail.
	if st.RecoveredRecords != 20 || st.TruncatedTails != 0 {
		t.Fatalf("recovery counters after clean close: %+v", st)
	}
	for i := 0; i < 20; i++ {
		if _, data, ok := s2.Get(testKey(i)); !ok || !bytes.Equal(data, testData(i)) {
			t.Fatalf("Get(%d) after reopen: ok=%v", i, ok)
		}
	}
}

// A crash without a final fsync: the whole index rebuilds by scanning.
func TestReopenRecoversByScan(t *testing.T) {
	dir := t.TempDir()
	s := mustOpen(t, dir, 0)
	for i := 0; i < 30; i++ {
		s.Put(testKey(i), 2, testData(i))
	}
	abandon(s)

	s2 := mustOpen(t, dir, 0)
	defer s2.Close()
	st := s2.Stats()
	if st.Records != 30 || st.RecoveredRecords != 30 {
		t.Fatalf("scan recovery: %+v", st)
	}
	for i := 0; i < 30; i++ {
		if _, data, ok := s2.Get(testKey(i)); !ok || !bytes.Equal(data, testData(i)) {
			t.Fatalf("Get(%d) after scan recovery failed", i)
		}
	}
}

// A SIGKILL mid-spill leaves a torn final line; recovery truncates it and
// keeps every complete record.
func TestTornTailTruncated(t *testing.T) {
	dir := t.TempDir()
	s := mustOpen(t, dir, 0)
	for i := 0; i < 10; i++ {
		s.Put(testKey(i), 1, testData(i))
	}
	segPath := s.segPath(s.order[len(s.order)-1])
	abandon(s)

	f, err := os.OpenFile(segPath, os.O_APPEND|os.O_WRONLY, 0o644)
	if err != nil {
		t.Fatal(err)
	}
	f.WriteString(`{"k":"dead`) // torn mid-record, no newline
	f.Close()

	s2 := mustOpen(t, dir, 0)
	defer s2.Close()
	st := s2.Stats()
	if st.TruncatedTails != 1 {
		t.Fatalf("truncated tails %d, want 1 (%+v)", st.TruncatedTails, st)
	}
	if st.Records != 10 {
		t.Fatalf("records %d, want 10", st.Records)
	}
	// The torn bytes are gone from disk: a further reopen is clean.
	s2.Close()
	s3 := mustOpen(t, dir, 0)
	defer s3.Close()
	if st := s3.Stats(); st.TruncatedTails != 0 || st.Records != 10 {
		t.Fatalf("second reopen: %+v", st)
	}
}

// A malformed interior line (disk corruption) truncates from the bad line;
// earlier records survive.
func TestMalformedInteriorLine(t *testing.T) {
	dir := t.TempDir()
	s := mustOpen(t, dir, 0)
	for i := 0; i < 5; i++ {
		s.Put(testKey(i), 1, testData(i))
	}
	segPath := s.segPath(s.order[len(s.order)-1])
	abandon(s)

	f, _ := os.OpenFile(segPath, os.O_APPEND|os.O_WRONLY, 0o644)
	f.WriteString("not json at all\n")
	f.WriteString(`{"k":"0000","t":1}` + "\n") // bad key length after bad line
	f.Close()

	s2 := mustOpen(t, dir, 0)
	defer s2.Close()
	st := s2.Stats()
	if st.Records != 5 || st.TruncatedTails != 1 {
		t.Fatalf("interior corruption: %+v", st)
	}
}

// A stale index.json that promises more bytes than the segment holds (the
// OS dropped un-synced data in a crash) is ignored: only the records the
// segment still holds are served.
func TestIndexSegmentMismatch(t *testing.T) {
	dir := t.TempDir()
	s := mustOpen(t, dir, 0)
	for i := 0; i < 12; i++ {
		s.Put(testKey(i), 1, testData(i))
	}
	writeStaleIndex(t, s)
	segPath := s.segPath(s.order[len(s.order)-1])
	var keep int64
	{
		// Cut the segment to the end of the 4th record.
		data, err := os.ReadFile(segPath)
		if err != nil {
			t.Fatal(err)
		}
		for i, n := 0, 0; i < len(data); i++ {
			if data[i] == '\n' {
				n++
				if n == 4 {
					keep = int64(i + 1)
					break
				}
			}
		}
	}
	abandon(s)
	if err := os.Truncate(segPath, keep); err != nil {
		t.Fatal(err)
	}

	s2 := mustOpen(t, dir, 0)
	defer s2.Close()
	st := s2.Stats()
	if st.Records != 4 {
		t.Fatalf("records %d, want the 4 surviving", st.Records)
	}
	for i := 0; i < 4; i++ {
		if _, _, ok := s2.Get(testKey(i)); !ok {
			t.Fatalf("surviving record %d lost", i)
		}
	}
	for i := 4; i < 12; i++ {
		if _, _, ok := s2.Get(testKey(i)); ok {
			t.Fatalf("lost record %d served from a stale index", i)
		}
	}
}

// A stale index.json referencing a deleted segment serves nothing from it:
// the records of the segments still on disk are all that is indexed.
func TestCheckpointMissingSegment(t *testing.T) {
	dir := t.TempDir()
	s := mustOpen(t, dir, 1<<20)
	// Force at least two segments by exceeding the per-segment target.
	big := bytes.Repeat([]byte{'y'}, 64<<10)
	for i := 0; i < 10; i++ {
		s.Put(testKey(i), 1, big)
	}
	if len(s.order) < 2 {
		t.Fatalf("want >=2 segments, have %d", len(s.order))
	}
	writeStaleIndex(t, s)
	firstSeg := s.order[0]
	victim := s.segPath(firstSeg)
	abandon(s)
	os.Remove(victim)

	s2 := mustOpen(t, dir, 1<<20)
	defer s2.Close()
	st := s2.Stats()
	if st.Records == 0 || st.Records >= 10 {
		t.Fatalf("records %d: want some lost with the segment, some kept", st.Records)
	}
	for i := 0; i < 10; i++ {
		if _, data, ok := s2.Get(testKey(i)); ok && !bytes.Equal(data, big) {
			t.Fatalf("record %d corrupted", i)
		}
	}
}

// A crash mid-compaction, as memo stores that compacted could leave it:
// some records re-appended to a new segment (now duplicated) and a stale
// index.json. Recovery must keep exactly one copy per key.
func TestKillMidCompaction(t *testing.T) {
	dir := t.TempDir()
	s := mustOpen(t, dir, 1<<20)
	for i := 0; i < 8; i++ {
		s.Put(testKey(i), 1, testData(i))
	}
	writeStaleIndex(t, s)
	seg := s.order[len(s.order)-1]
	segPath := s.segPath(seg)
	abandon(s)

	// "Compaction" re-appended 3 records into a new segment, then died
	// before removing dup sources or checkpointing.
	f, err := os.OpenFile(filepath.Join(dir, fmt.Sprintf(segPrefix+"%08d"+segSuffix, seg+1)), os.O_CREATE|os.O_WRONLY, 0o644)
	if err != nil {
		t.Fatal(err)
	}
	data, _ := os.ReadFile(segPath)
	lines := bytes.SplitAfter(data, []byte("\n"))
	for i := 0; i < 3 && i < len(lines); i++ {
		f.Write(lines[i])
	}
	f.Close()

	s2 := mustOpen(t, dir, 1<<20)
	defer s2.Close()
	if st := s2.Stats(); st.Records != 8 {
		t.Fatalf("records %d, want 8 (duplicates deduped)", st.Records)
	}
	for i := 0; i < 8; i++ {
		if _, data, ok := s2.Get(testKey(i)); !ok || !bytes.Equal(data, testData(i)) {
			t.Fatalf("record %d wrong after mid-compaction recovery", i)
		}
	}
}

// Abandoning mid-async-spill (SIGKILL with the queue part-drained) leaves
// a clean prefix of the spills; recovery serves exactly those.
func TestKillMidSpill(t *testing.T) {
	dir := t.TempDir()
	s := mustOpen(t, dir, 0)
	for i := 0; i < 40; i++ {
		s.SpillAsync(testKey(i), 1, testData(i))
	}
	// Don't flush: the spill goroutine drains an unknown prefix. Stop it
	// abruptly, then close handles crash-style.
	s.mu.Lock()
	s.closed = true // further Puts fail, freezing whatever landed
	s.mu.Unlock()
	close(s.spillCh)
	s.spillWG.Wait()
	s.mu.Lock()
	for _, seg := range s.segs {
		seg.f.Close()
	}
	s.mu.Unlock()

	s2 := mustOpen(t, dir, 0)
	defer s2.Close()
	st := s2.Stats()
	if st.Records > 40 {
		t.Fatalf("records %d > spills", st.Records)
	}
	// Whatever landed must read back exactly.
	for i := 0; i < 40; i++ {
		if _, data, ok := s2.Get(testKey(i)); ok && !bytes.Equal(data, testData(i)) {
			t.Fatalf("record %d corrupted by mid-spill crash", i)
		}
	}
}

func TestEvictionBudget(t *testing.T) {
	dir := t.TempDir()
	s := mustOpen(t, dir, 2<<20) // 2 MiB budget -> 256 KiB segment target
	payload := bytes.Repeat([]byte{'z'}, 32<<10)
	for i := 0; i < 200; i++ {
		if err := s.Put(testKey(i), 1, payload); err != nil {
			t.Fatal(err)
		}
	}
	st := s.Stats()
	if st.Evictions == 0 {
		t.Fatalf("no evictions under pressure: %+v", st)
	}
	// Budget holds modulo one in-flight segment of slop.
	if st.Bytes > 2<<20+s.segTarget {
		t.Fatalf("bytes %d over budget", st.Bytes)
	}
	// Newest records survive; oldest were evicted.
	if _, _, ok := s.Get(testKey(199)); !ok {
		t.Fatal("newest record evicted")
	}
	if _, _, ok := s.Get(testKey(0)); ok {
		t.Fatal("oldest record survived a full churn")
	}
	s.Close()
}

// A memo directory written by a store that checkpointed its index
// (segments plus index.json, in testdata/checkpointed-store) opens and
// serves every record.
func TestOpensCheckpointedStore(t *testing.T) {
	dir := t.TempDir()
	for _, name := range []string{"seg-00000000.log", "index.json"} {
		data, err := os.ReadFile(filepath.Join("testdata", "checkpointed-store", name))
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(filepath.Join(dir, name), data, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	for reopen := 0; reopen < 2; reopen++ {
		s := mustOpen(t, dir, 0)
		if st := s.Stats(); st.Records != 40 || st.TruncatedTails != 0 {
			t.Fatalf("open %d: %+v", reopen, st)
		}
		for i := 0; i < 40; i++ {
			kind, data, ok := s.Get(testKey(i))
			if !ok || kind != uint8(i%3) || !bytes.Equal(data, testData(i)) {
				t.Fatalf("open %d: record %d: ok=%v kind %d data %q", reopen, i, ok, kind, data)
			}
		}
		if err := s.Close(); err != nil {
			t.Fatal(err)
		}
	}
}

// An async spill whose segment write fails is counted, not dropped without
// a trace, and leaves the store serving what it already holds.
func TestSpillWriteErrorCounted(t *testing.T) {
	s := mustOpen(t, t.TempDir(), 0)
	defer s.Close()
	if err := s.Put(testKey(0), 1, testData(0)); err != nil {
		t.Fatal(err)
	}
	// Swap the active segment's handle for a read-only one, so every write
	// to it fails.
	s.mu.Lock()
	seg := s.segs[s.order[len(s.order)-1]]
	ro, err := os.Open(s.segPath(seg.id))
	if err != nil {
		s.mu.Unlock()
		t.Fatal(err)
	}
	seg.f.Close()
	seg.f = ro
	s.mu.Unlock()

	s.SpillAsync(testKey(1), 1, testData(1))
	s.Flush()
	if st := s.Stats(); st.SpillErrors != 1 || st.Spills != 1 || st.Records != 1 {
		t.Fatalf("after a failed spill: %+v", st)
	}
	if _, data, ok := s.Get(testKey(0)); !ok || !bytes.Equal(data, testData(0)) {
		t.Fatal("record written before the failure lost")
	}
}

func TestKeysSince(t *testing.T) {
	s := mustOpen(t, t.TempDir(), 0)
	defer s.Close()
	for i := 0; i < 5; i++ {
		s.Put(testKey(i), 1, testData(i))
	}
	all, mark := s.KeysSince(0)
	if len(all) != 5 {
		t.Fatalf("KeysSince(0): %d keys", len(all))
	}
	if more, _ := s.KeysSince(mark); len(more) != 0 {
		t.Fatalf("KeysSince(mark): %d keys, want 0", len(more))
	}
	s.Put(testKey(5), 1, testData(5))
	more, mark2 := s.KeysSince(mark)
	if len(more) != 1 || more[0] != testKey(5) || mark2 <= mark {
		t.Fatalf("incremental KeysSince: %d keys mark %d->%d", len(more), mark, mark2)
	}
}

func TestSpillAsyncFlush(t *testing.T) {
	s := mustOpen(t, t.TempDir(), 0)
	defer s.Close()
	for i := 0; i < 30; i++ {
		s.SpillAsync(testKey(i), 1, testData(i))
	}
	s.Flush()
	if got := s.Len(); got != 30 {
		t.Fatalf("len %d after flush", got)
	}
}

func TestConcurrentPutGet(t *testing.T) {
	s := mustOpen(t, t.TempDir(), 0)
	defer s.Close()
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 100; i++ {
				k := testKey(i % 25)
				if i%2 == g%2 {
					s.Put(k, 1, testData(i%25))
				} else {
					if _, data, ok := s.Get(k); ok && !bytes.Equal(data, testData(i%25)) {
						t.Errorf("corrupt concurrent read")
						return
					}
				}
				s.SpillAsync(testKey(1000+i), 2, testData(i))
			}
		}(g)
	}
	wg.Wait()
	s.Flush()
	if s.Len() == 0 {
		t.Fatal("nothing stored")
	}
}

func TestParseKeyRoundTrip(t *testing.T) {
	k := testKey(3)
	got, err := ParseKey(k.String())
	if err != nil || got != k {
		t.Fatalf("ParseKey round trip: %v %v", got, err)
	}
	if _, err := ParseKey("zz"); err == nil {
		t.Fatal("ParseKey accepted junk")
	}
	if _, err := ParseKey("abcd"); err == nil {
		t.Fatal("ParseKey accepted short key")
	}
}

// The handwritten segment-line decoder must agree with encoding/json on
// every line the store writes, and must never accept a line the generic
// decoder would reject — it falls back instead.
func TestFastLineMatchesJSON(t *testing.T) {
	recs := []line{
		{K: testKey(1).String(), T: 1, D: []byte("payload")},
		{K: testKey(2).String(), T: 2, D: nil}, // no data field (omitempty)
		{K: testKey(3).String(), T: 255, D: []byte{0, 1, 2, 0xff, '"', '\\', '\n'}},
		{K: testKey(4).String(), T: 0, D: bytes.Repeat([]byte{0xaa}, 4096)},
	}
	for i, want := range recs {
		buf, err := json.Marshal(want)
		if err != nil {
			t.Fatal(err)
		}
		fast, ok := fastLine(buf)
		if !ok {
			t.Fatalf("rec %d: fast path rejected a line the store wrote: %s", i, buf)
		}
		if fast.K != want.K || fast.T != want.T || !bytes.Equal(fast.D, want.D) {
			t.Fatalf("rec %d: fast path disagrees: got %+v want %+v", i, fast, want)
		}
		// decodeLine tolerates the trailing newline segments carry.
		dec, err := decodeLine(append(buf, '\n'))
		if err != nil || dec.K != want.K || dec.T != want.T || !bytes.Equal(dec.D, want.D) {
			t.Fatalf("rec %d: decodeLine: %+v %v", i, dec, err)
		}
	}
	// Lines the fast path cannot handle fall back to encoding/json rather
	// than erroring: reordered fields, spaces, escapes in the base64 field.
	odd := fmt.Sprintf(`{"t":7,"k":%q}`, testKey(5).String())
	if rec, err := decodeLine([]byte(odd)); err != nil || rec.T != 7 {
		t.Fatalf("reordered line not decoded: %+v %v", rec, err)
	}
	if _, ok := fastLine([]byte(odd)); ok {
		t.Fatal("fast path claimed a reordered line")
	}
	// Garbage still errors through the fallback.
	if _, err := decodeLine([]byte("{broken")); err == nil {
		t.Fatal("decodeLine accepted garbage")
	}
}

// FuzzFastLineMatchesJSON checks the fast path against encoding/json both
// ways: a line fastLine accepts decodes to the same record under
// json.Unmarshal, and every line json.Marshal writes for a valid key is
// one fastLine accepts.
func FuzzFastLineMatchesJSON(f *testing.F) {
	f.Fuzz(func(t *testing.T, buf, key []byte, kind uint8, data []byte) {
		if fast, ok := fastLine(buf); ok {
			var want line
			if err := json.Unmarshal(buf, &want); err != nil {
				t.Fatalf("fastLine accepted %q, which encoding/json rejects: %v", buf, err)
			}
			if fast.K != want.K || fast.T != want.T || !bytes.Equal(fast.D, want.D) {
				t.Fatalf("fastLine decoded %q as %+v, encoding/json as %+v", buf, fast, want)
			}
		}

		var k Key
		copy(k[:], key)
		rec := line{K: k.String(), T: kind, D: data}
		out, err := json.Marshal(rec)
		if err != nil {
			t.Fatal(err)
		}
		fast, ok := fastLine(out)
		if !ok {
			t.Fatalf("fastLine rejected a line the store writes: %s", out)
		}
		if fast.K != rec.K || fast.T != rec.T || !bytes.Equal(fast.D, rec.D) {
			t.Fatalf("fastLine decoded %s as %+v, want %+v", out, fast, rec)
		}
	})
}

// scanRecords is the reference model of recovery: segments are read
// oldest first, each up to its first torn or malformed line, and the first
// record of a key wins.
func scanRecords(segs ...[]byte) map[Key]Record {
	out := make(map[Key]Record)
	for _, seg := range segs {
		for _, ln := range bytes.SplitAfter(seg, []byte("\n")) {
			if !bytes.HasSuffix(ln, []byte("\n")) {
				break // torn tail
			}
			rec, err := decodeLine(ln)
			if err != nil {
				break
			}
			k, err := ParseKey(rec.K)
			if err != nil {
				break
			}
			if _, dup := out[k]; !dup {
				out[k] = Record{Key: k, Kind: rec.T, Data: rec.D}
			}
		}
	}
	return out
}

// FuzzMemostoreRecover opens a store over arbitrary bytes for one or two
// segment files, plus an arbitrary index.json, which recovery ignores. Open
// must not panic and must index exactly the reference model's records,
// each served by Get; a close and reopen must give the same records; and a
// Put after recovery must survive the next reopen.
func FuzzMemostoreRecover(f *testing.F) {
	enc := func(i int, data []byte) []byte {
		b, err := json.Marshal(line{K: testKey(i).String(), T: uint8(i % 3), D: data})
		if err != nil {
			f.Fatal(err)
		}
		return append(b, '\n')
	}
	clean := bytes.Join([][]byte{enc(0, testData(0)), enc(1, testData(1)), enc(2, testData(2))}, nil)
	f.Add(clean, []byte{}, []byte{})
	f.Add(append(append([]byte{}, clean...), `{"k":"dead`...), []byte{}, []byte{})
	f.Add(bytes.Join([][]byte{enc(0, testData(0)), []byte("not json at all\n"), enc(1, testData(1))}, nil), []byte{}, []byte{})
	f.Add(clean, bytes.Join([][]byte{enc(1, []byte("second copy")), enc(3, testData(3))}, nil), []byte{})
	seg, err := os.ReadFile(filepath.Join("testdata", "checkpointed-store", "seg-00000000.log"))
	if err != nil {
		f.Fatal(err)
	}
	index, err := os.ReadFile(filepath.Join("testdata", "checkpointed-store", "index.json"))
	if err != nil {
		f.Fatal(err)
	}
	f.Add(seg[:len(seg)/2], []byte{}, index) // the index promises the whole segment

	putKey := Key(sha256.Sum256([]byte("put after recovery")))
	f.Fuzz(func(t *testing.T, seg0, seg1, index []byte) {
		dir := t.TempDir()
		files := map[string][]byte{fmt.Sprintf(segPrefix+"%08d"+segSuffix, 0): seg0}
		segs := [][]byte{seg0}
		if len(seg1) > 0 {
			files[fmt.Sprintf(segPrefix+"%08d"+segSuffix, 1)] = seg1
			segs = append(segs, seg1)
		}
		if len(index) > 0 {
			files["index.json"] = index
		}
		for name, data := range files {
			if err := os.WriteFile(filepath.Join(dir, name), data, 0o644); err != nil {
				t.Fatal(err)
			}
		}
		want := scanRecords(segs...)
		check := func(label string, s *Store) {
			t.Helper()
			if got := s.Len(); got != len(want) {
				t.Fatalf("%s: %d records indexed, want %d", label, got, len(want))
			}
			for k, rec := range want {
				kind, data, ok := s.Get(k)
				if !ok || kind != rec.Kind || !bytes.Equal(data, rec.Data) {
					t.Fatalf("%s: Get(%s) = %d %q %v, want %d %q", label, k, kind, data, ok, rec.Kind, rec.Data)
				}
			}
		}

		s, err := Open(dir, 0)
		if err != nil {
			t.Fatal(err)
		}
		check("open", s)
		if err := s.Close(); err != nil {
			t.Fatal(err)
		}
		s, err = Open(dir, 0)
		if err != nil {
			t.Fatal(err)
		}
		check("reopen", s)
		if st := s.Stats(); st.TruncatedTails != 0 {
			t.Fatalf("reopen truncated again: %+v", st)
		}
		if err := s.Put(putKey, 7, []byte("after recovery")); err != nil {
			t.Fatal(err)
		}
		if _, ok := want[putKey]; !ok {
			want[putKey] = Record{Key: putKey, Kind: 7, Data: []byte("after recovery")}
		}
		if err := s.Close(); err != nil {
			t.Fatal(err)
		}
		s, err = Open(dir, 0)
		if err != nil {
			t.Fatal(err)
		}
		defer s.Close()
		check("after put", s)
	})
}
