package store

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"sync"
	"testing"
)

func TestBlobRoundTripAndDedup(t *testing.T) {
	s, err := Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	data := []byte("transformation sequence payload")
	h1, err := s.PutBlob(data)
	if err != nil {
		t.Fatal(err)
	}
	if !s.HasBlob(h1) {
		t.Fatalf("HasBlob(%s) = false after Put", h1)
	}
	got, err := s.GetBlob(h1)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, data) {
		t.Fatalf("GetBlob = %q, want %q", got, data)
	}
	// Second put of identical content is a dedup hit, not a new blob.
	h2, err := s.PutBlob(append([]byte(nil), data...))
	if err != nil {
		t.Fatal(err)
	}
	if h1 != h2 {
		t.Fatalf("content address changed: %s vs %s", h1, h2)
	}
	st := s.Stats()
	if st.BlobsWritten != 1 || st.BlobDedupHits != 1 {
		t.Fatalf("stats = %+v, want 1 written / 1 dedup", st)
	}
	if st.BlobBytes != uint64(len(data)) {
		t.Fatalf("BlobBytes = %d, want %d", st.BlobBytes, len(data))
	}
	if s.HasBlob("deadbeef") { // malformed hash
		t.Fatal("HasBlob accepted malformed hash")
	}
	if _, err := s.GetBlob(HashBytes([]byte("absent"))); err == nil {
		t.Fatal("GetBlob of absent blob succeeded")
	}
}

func TestBlobConcurrentPut(t *testing.T) {
	s, err := Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 50; i++ {
				data := []byte(fmt.Sprintf("blob-%d", i)) // shared across goroutines
				h, err := s.PutBlob(data)
				if err != nil {
					t.Error(err)
					return
				}
				got, err := s.GetBlob(h)
				if err != nil || !bytes.Equal(got, data) {
					t.Errorf("round trip %s: %v", h, err)
					return
				}
			}
		}(g)
	}
	wg.Wait()
}

func TestJournalAppendReplay(t *testing.T) {
	dir := t.TempDir()
	s, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	type payload struct{ N int }
	for i := 0; i < 5; i++ {
		if _, err := s.Journal().Append("c1", "test_done", payload{N: i}); err != nil {
			t.Fatal(err)
		}
	}
	s.Close()

	// Reopen: sequence numbers continue, replay sees everything in order.
	s2, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer s2.Close()
	rec, err := s2.Journal().Append("c1", "done", nil)
	if err != nil {
		t.Fatal(err)
	}
	if rec.Seq != 6 {
		t.Fatalf("resumed seq = %d, want 6", rec.Seq)
	}
	var seqs []uint64
	var types []string
	err = s2.Journal().Replay(func(r Record) error {
		seqs = append(seqs, r.Seq)
		types = append(types, r.Type)
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(seqs) != 6 || seqs[0] != 1 || seqs[5] != 6 || types[5] != "done" {
		t.Fatalf("replay = %v / %v", seqs, types)
	}
}

func TestJournalTornTailDiscarded(t *testing.T) {
	dir := t.TempDir()
	s, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := s.Journal().Append("c1", "complete", nil); err != nil {
		t.Fatal(err)
	}
	s.Close()
	// Simulate a process killed mid-append: a half-written trailing record.
	path := filepath.Join(dir, "journal.jsonl")
	f, err := os.OpenFile(path, os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.WriteString(`{"seq":2,"type":"torn","da`); err != nil {
		t.Fatal(err)
	}
	f.Close()

	s2, err := Open(dir)
	if err != nil {
		t.Fatalf("open with torn tail: %v", err)
	}
	defer s2.Close()
	var n int
	if err := s2.Journal().Replay(func(r Record) error { n++; return nil }); err != nil {
		t.Fatal(err)
	}
	if n != 1 {
		t.Fatalf("replayed %d records, want 1 (torn tail discarded)", n)
	}
	// The torn tail was truncated on open, so the next append starts on a
	// clean line boundary and the log replays completely.
	if _, err := s2.Journal().Append("c1", "after", nil); err != nil {
		t.Fatal(err)
	}
	var types []string
	if err := s2.Journal().Replay(func(r Record) error { types = append(types, r.Type); return nil }); err != nil {
		t.Fatal(err)
	}
	if len(types) != 2 || types[0] != "complete" || types[1] != "after" {
		t.Fatalf("post-truncate replay = %v, want [complete after]", types)
	}
}

// TestJournalReplayLongLines pins the replay buffer's sizing: it is sized to
// the file and capped at maxScanBuf, and records longer than the buffer,
// complete or torn, must replay exactly as short ones do.
func TestJournalReplayLongLines(t *testing.T) {
	dir := t.TempDir()
	s, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	long := strings.Repeat("x", maxScanBuf*3/2)
	for _, data := range []string{"short", long, "tail"} {
		if _, err := s.Journal().Append("c1", "rec", data); err != nil {
			t.Fatal(err)
		}
	}
	s.Close()
	// A torn trailing record longer than the buffer is discarded on open.
	f, err := os.OpenFile(filepath.Join(dir, "journal.jsonl"), os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.WriteString(`{"seq":4,"type":"torn","data":"` + long); err != nil {
		t.Fatal(err)
	}
	f.Close()

	s2, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer s2.Close()
	var lens []int
	if err := s2.Journal().Replay(func(r Record) error { lens = append(lens, len(r.Data)); return nil }); err != nil {
		t.Fatal(err)
	}
	if want := []int{len(`"short"`), len(long) + 2, len(`"tail"`)}; fmt.Sprint(lens) != fmt.Sprint(want) {
		t.Fatalf("replayed data lengths %v, want %v", lens, want)
	}
	rec, err := s2.Journal().Append("c1", "after", nil)
	if err != nil {
		t.Fatal(err)
	}
	if rec.Seq != 4 {
		t.Fatalf("resumed seq = %d, want 4", rec.Seq)
	}
}

func TestJournalCorruptionMidFileIsError(t *testing.T) {
	dir := t.TempDir()
	s, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	s.Journal().Append("c1", "a", nil)
	s.Close()
	path := filepath.Join(dir, "journal.jsonl")
	f, _ := os.OpenFile(path, os.O_WRONLY|os.O_APPEND, 0o644)
	f.WriteString("NOT JSON\n")
	f.WriteString(`{"seq":3,"type":"b"}` + "\n")
	f.Close()
	if _, err := Open(dir); err == nil {
		t.Fatal("mid-file corruption not detected")
	}
}

func TestCheckpointAtomicReplace(t *testing.T) {
	s, err := Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	type buckets struct{ Names []string }
	if err := s.SaveCheckpoint("c1-buckets", buckets{Names: []string{"a"}}); err != nil {
		t.Fatal(err)
	}
	if err := s.SaveCheckpoint("c1-buckets", buckets{Names: []string{"a", "b"}}); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(filepath.Join(s.Root(), "checkpoints", "c1-buckets.json"))
	if err != nil {
		t.Fatal(err)
	}
	var got buckets
	if err := json.Unmarshal(data, &got); err != nil {
		t.Fatalf("checkpoint is not JSON: %v", err)
	}
	if len(got.Names) != 2 || got.Names[1] != "b" {
		t.Fatalf("checkpoint = %+v, want latest version", got)
	}
	// No stray temp files once saves complete.
	entries, err := os.ReadDir(filepath.Join(s.Root(), "checkpoints"))
	if err != nil {
		t.Fatal(err)
	}
	if len(entries) != 1 {
		t.Fatalf("checkpoints dir has %d entries, want 1", len(entries))
	}
	if err := s.SaveCheckpoint("../escape", 1); err == nil {
		t.Fatal("path-traversal checkpoint name accepted")
	}
}

// FuzzJournalReplay opens a journal over arbitrary bytes. Opening either
// fails or keeps every complete record: each newline-terminated, non-blank
// line decoded as a Record, in order, with a torn final line dropped.
// After an Append, a reopen replays those records plus the new one, whose
// Seq is above every earlier one.
func FuzzJournalReplay(f *testing.F) {
	f.Add([]byte(`{"seq":1,"campaign":"c1","type":"created","data":{"tests":10}}` + "\n" + `{"seq":2,"type":"done"}` + "\n"))
	f.Add([]byte(`{"seq":1,"type":"a"}` + "\n" + `{"seq":2,"ty`))
	f.Add([]byte(`{"seq":1,"type":"a"}` + "\nnot json\n" + `{"seq":3,"type":"c"}` + "\n"))
	f.Add([]byte("\n  \n" + `{"seq":7,"type":"gap"}` + "\n" + `{"seq":2,"type":"older"}` + "\n  "))
	f.Add([]byte(`{"seq":18446744073709551615,"type":"last"}` + "\n"))
	f.Fuzz(func(t *testing.T, data []byte) {
		dir := t.TempDir()
		if err := os.WriteFile(filepath.Join(dir, journalName), data, 0o644); err != nil {
			t.Fatal(err)
		}
		var want []Record
		wellFormed := true
		for _, ln := range bytes.SplitAfter(data, []byte("\n")) {
			if !bytes.HasSuffix(ln, []byte("\n")) {
				break // torn tail
			}
			if len(bytes.TrimSpace(ln)) == 0 {
				continue
			}
			var rec Record
			if err := json.Unmarshal(ln, &rec); err != nil {
				wellFormed = false
				break
			}
			if rec.Seq == math.MaxUint64 {
				wellFormed = false // no sequence number is left for an append
			}
			want = append(want, rec)
		}
		replayAll := func(j *Journal) []Record {
			t.Helper()
			var got []Record
			if err := j.Replay(func(r Record) error { got = append(got, r); return nil }); err != nil {
				t.Fatalf("replay after a successful open: %v", err)
			}
			return got
		}

		j, err := openJournal(osFS{}, dir, nil, &faults{})
		if err != nil {
			if wellFormed {
				t.Fatalf("open refused a well-formed journal: %v", err)
			}
			return
		}
		if !wellFormed {
			j.Close()
			t.Fatal("open accepted a malformed record or an exhausted sequence")
		}
		if got := replayAll(j); !reflect.DeepEqual(got, want) {
			j.Close()
			t.Fatalf("replayed %+v, want %+v", got, want)
		}
		rec, err := j.Append("fuzz", "appended", map[string]int{"n": 1})
		j.Close()
		if err != nil {
			t.Fatal(err)
		}
		for _, w := range want {
			if rec.Seq <= w.Seq {
				t.Fatalf("appended seq %d not above earlier seq %d", rec.Seq, w.Seq)
			}
		}
		j, err = openJournal(osFS{}, dir, nil, &faults{})
		if err != nil {
			t.Fatalf("reopen after append: %v", err)
		}
		defer j.Close()
		if got := replayAll(j); !reflect.DeepEqual(got, append(want, rec)) {
			t.Fatalf("after append replayed %+v, want %+v", got, append(want, rec))
		}
	})
}
