package store

import (
	"bytes"
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"reflect"
	"sort"
	"strings"
	"sync"
	"syscall"
	"testing"
)

func mustOpen(t testing.TB, fsys fileSystem, dir string) *Store {
	t.Helper()
	s, err := open(fsys, dir)
	if err != nil {
		t.Fatal(err)
	}
	return s
}

func mustPut(t testing.TB, s *Store, data []byte) string {
	t.Helper()
	h, err := s.PutBlob(data)
	if err != nil {
		t.Fatal(err)
	}
	return h
}

// wantBlobs checks that s serves exactly the given blobs among want and
// lacks every one of absent.
func wantBlobs(t *testing.T, s *Store, want, absent [][]byte) {
	t.Helper()
	for _, data := range want {
		got, err := s.GetBlob(HashBytes(data))
		if err != nil || !bytes.Equal(got, data) {
			t.Fatalf("blob %q: got %q, %v", data, got, err)
		}
	}
	for _, data := range absent {
		if s.HasBlob(HashBytes(data)) {
			t.Fatalf("blob %q served, want it absent", data)
		}
		if _, err := s.GetBlob(HashBytes(data)); !errors.Is(err, os.ErrNotExist) {
			t.Fatalf("GetBlob of absent blob %q: %v, want ErrNotExist", data, err)
		}
	}
}

// TestBlobLogReopen: every blob put, one at a time or in a batch, reads
// back after a reopen, and the store root holds the two logs and nothing
// else: no file per blob.
func TestBlobLogReopen(t *testing.T) {
	dir := t.TempDir()
	s := mustOpen(t, osFS{}, dir)
	var blobs [][]byte
	for i := 0; i < 20; i++ {
		blobs = append(blobs, []byte(strings.Repeat(fmt.Sprint(i), i*50)))
		mustPut(t, s, blobs[i])
	}
	batch := [][]byte{[]byte("batch-a"), blobs[3], []byte("batch-b"), []byte("batch-a")}
	if _, err := s.PutBatch(batch); err != nil {
		t.Fatal(err)
	}
	blobs = append(blobs, batch[0], batch[2])
	if st := s.Stats(); st.BlobsWritten != 22 || st.BlobDedupHits != 2 {
		t.Fatalf("stats = %+v, want 22 written, 2 dedup hits", st)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	var names []string
	for _, e := range entries {
		names = append(names, e.Name())
	}
	if want := []string{logName, journalName}; !reflect.DeepEqual(names, want) {
		t.Fatalf("store root holds %v, want %v", names, want)
	}
	s = mustOpen(t, osFS{}, dir)
	defer s.Close()
	wantBlobs(t, s, blobs, nil)
	for _, data := range blobs {
		if size, ok := s.StatBlob(HashBytes(data)); !ok || size != int64(len(data)) {
			t.Fatalf("StatBlob = %d, %v; want %d, true", size, ok, len(data))
		}
	}
	if s.HasBlob(strings.ToUpper(HashBytes(blobs[0]))) {
		t.Fatal("HasBlob accepted an uppercase hash")
	}
}

// TestBlobLogTornLastRecord: a log whose last record was cut short at any
// byte, or whose last record's bytes do not hash to its name, opens with
// that record gone, every earlier one served and the tail truncated; a put
// after the recovery survives the next reopen.
func TestBlobLogTornLastRecord(t *testing.T) {
	blobs := [][]byte{[]byte("first blob"), []byte("second blob"), []byte("third blob, torn")}
	for _, cut := range []int{1, len(blobs[2]), len(blobs[2]) + 1, len(blobs[2]) + recHeader - 1, -1} {
		t.Run(fmt.Sprint(cut), func(t *testing.T) {
			dir := t.TempDir()
			s := mustOpen(t, osFS{}, dir)
			for _, b := range blobs {
				mustPut(t, s, b)
			}
			s.Close()
			path := filepath.Join(dir, logName)
			data, err := os.ReadFile(path)
			if err != nil {
				t.Fatal(err)
			}
			good := len(data) - recHeader - len(blobs[2])
			if cut < 0 {
				data[len(data)-1] ^= 1 // complete, but the bytes no longer hash to the name
			} else {
				data = data[:len(data)-cut]
			}
			if err := os.WriteFile(path, data, 0o644); err != nil {
				t.Fatal(err)
			}

			s = mustOpen(t, osFS{}, dir)
			if st := s.Stats(); st.TornTails != 1 {
				t.Fatalf("TornTails = %d, want 1", st.TornTails)
			}
			if info, err := os.Stat(path); err != nil || info.Size() != int64(good) {
				t.Fatalf("log not truncated to %d bytes: %v, %v", good, info.Size(), err)
			}
			wantBlobs(t, s, blobs[:2], blobs[2:])
			after := []byte("put after recovery")
			mustPut(t, s, after)
			s.Close()
			s = mustOpen(t, osFS{}, dir)
			defer s.Close()
			wantBlobs(t, s, append(blobs[:2:2], after), blobs[2:])
			if st := s.Stats(); st.TornTails != 0 {
				t.Fatalf("TornTails = %d after a clean reopen", st.TornTails)
			}
		})
	}
}

// TestStoreFaults injects the file system's failures under the blob log
// and the journal. Each must come back as an error and a counter, never a
// panic or a silent drop, and must leave no partial record for a later
// write to land after: the next open serves every good blob and record.
func TestStoreFaults(t *testing.T) {
	enospc := syscall.ENOSPC
	eio := syscall.EIO
	good := []byte("written before the fault")
	lost := []byte("the put that fails")
	after := []byte("written after the fault")
	for _, tc := range []struct {
		name string
		arm  func(*testFS)
		// put or sync selects the call that meets the fault.
		sync bool
		// broken: the faulty file refuses later writes, and the journal
		// later syncs, even once the fault clears, until the store is
		// reopened.
		broken                bool
		writeErrs, syncErrors uint64
		journal               bool // the fault hits the journal
	}{
		{name: "log ENOSPC", arm: func(f *testFS) { f.writeErr, f.writeFile = enospc, logName }, writeErrs: 1},
		{name: "log short write", arm: func(f *testFS) { f.writeErr, f.writeShort, f.writeFile = io.ErrShortWrite, true, logName }, writeErrs: 1},
		{name: "log short write, rollback fails", arm: func(f *testFS) {
			f.writeErr, f.writeShort, f.writeFile, f.truncErr = io.ErrShortWrite, true, logName, eio
		}, broken: true, writeErrs: 2},
		{name: "log fsync", arm: func(f *testFS) { f.syncErr, f.syncFile = eio, logName }, sync: true, broken: true, syncErrors: 1},
		{name: "journal ENOSPC", arm: func(f *testFS) { f.writeErr, f.writeFile = enospc, journalName }, journal: true, writeErrs: 1},
		{name: "journal short write", arm: func(f *testFS) {
			f.writeErr, f.writeShort, f.writeFile = io.ErrShortWrite, true, journalName
		}, journal: true, writeErrs: 1},
		{name: "journal short write, rollback fails", arm: func(f *testFS) {
			f.writeErr, f.writeShort, f.writeFile, f.truncErr = io.ErrShortWrite, true, journalName, eio
		}, journal: true, broken: true, writeErrs: 2},
		{name: "journal fsync", arm: func(f *testFS) { f.syncErr, f.syncFile = eio, journalName }, journal: true, sync: true, broken: true, syncErrors: 1},
	} {
		t.Run(tc.name, func(t *testing.T) {
			dir := t.TempDir()
			fsys := &testFS{}
			s := mustOpen(t, fsys, dir)
			mustPut(t, s, good)
			if _, err := s.Journal().Append("c1", "good", nil); err != nil {
				t.Fatal(err)
			}
			if err := s.Journal().Sync(); err != nil {
				t.Fatal(err)
			}

			fsys.arm(tc.arm)
			var err error
			switch {
			case tc.sync && !tc.journal:
				mustPut(t, s, lost)
				err = s.Journal().Sync()
			case tc.sync:
				_, err = s.Journal().Append("c1", "lost", nil)
				if err == nil {
					err = s.Journal().Sync()
				}
			case tc.journal:
				_, err = s.Journal().Append("c1", "lost", nil)
			default:
				_, err = s.PutBlob(lost)
			}
			if err == nil {
				t.Fatal("the faulty call succeeded")
			}
			if st := s.Stats(); st.WriteErrors != tc.writeErrs || st.SyncErrors != tc.syncErrors {
				t.Fatalf("WriteErrors, SyncErrors = %d, %d; want %d, %d", st.WriteErrors, st.SyncErrors, tc.writeErrs, tc.syncErrors)
			}
			// One journal fsync ran before the fault.
			if tc.sync && !tc.journal && strings.Count(strings.Join(fsys.calls(), ","), "sync "+journalName) > 1 {
				t.Fatal("the journal was fsynced after the blob log's fsync failed")
			}

			fsys.arm((*testFS).clearFaults)
			_, perr := s.PutBlob(after)
			_, aerr := s.Journal().Append("c1", "after", nil)
			serr := s.Journal().Sync()
			refused := perr != nil || aerr != nil || serr != nil
			if refused != tc.broken {
				t.Fatalf("after the fault cleared: put %v, append %v, sync %v; want refusals %v", perr, aerr, serr, tc.broken)
			}
			s.Close()

			s = mustOpen(t, osFS{}, dir)
			defer s.Close()
			want := [][]byte{good}
			if tc.sync && !tc.journal {
				want = append(want, lost) // written; only its fsync failed
			}
			// A broken blob log refuses the put; a broken journal, the
			// append. The other file takes its write.
			if !tc.broken || tc.journal {
				want = append(want, after)
			}
			absent := [][]byte{}
			if !tc.sync {
				absent = append(absent, lost)
			}
			wantBlobs(t, s, want, absent)
			var types []string
			if err := s.Journal().Replay(func(r Record) error { types = append(types, r.Type); return nil }); err != nil {
				t.Fatal(err)
			}
			wantTypes := []string{"good"}
			if tc.sync && tc.journal {
				wantTypes = append(wantTypes, "lost") // written; only its fsync failed
			}
			if !tc.broken || !tc.journal {
				wantTypes = append(wantTypes, "after")
			}
			if !reflect.DeepEqual(types, wantTypes) {
				t.Fatalf("journal replays %v, want %v", types, wantTypes)
			}
		})
	}
}

// TestStoreCreateFaults: a failed create of either file, or a failed
// fsync of the directory after it, is an error and a counter; the blob
// log's create is retried by the next put.
func TestStoreCreateFaults(t *testing.T) {
	fsys := &testFS{dirSyncErr: syscall.EIO}
	if _, err := open(fsys, t.TempDir()); err == nil {
		t.Fatal("open succeeded though the journal's directory entry could not be fsynced")
	}
	fsys = &testFS{}
	s := mustOpen(t, fsys, t.TempDir())
	defer s.Close()
	fsys.arm(func(f *testFS) { f.dirSyncErr = syscall.EIO })
	if _, err := s.PutBlob([]byte("x")); err == nil {
		t.Fatal("put succeeded though the blob log's directory entry could not be fsynced")
	}
	if st := s.Stats(); st.SyncErrors != 1 {
		t.Fatalf("SyncErrors = %d, want 1", st.SyncErrors)
	}
	fsys.arm(func(f *testFS) { f.dirSyncErr = nil })
	mustPut(t, s, []byte("x"))
	wantBlobs(t, s, [][]byte{[]byte("x")}, nil)
}

// TestSyncOrder pins the seam's call order: a put is one write to the blob
// log, with no fsync; Journal.Sync fsyncs the blob log before the journal,
// and only if a blob was written since its last fsync; a dedup hit makes
// no call at all.
func TestSyncOrder(t *testing.T) {
	dir := t.TempDir()
	fsys := &testFS{}
	s := mustOpen(t, fsys, dir)
	defer s.Close()
	j := s.Journal()
	step := func(f func() error) {
		t.Helper()
		if err := f(); err != nil {
			t.Fatal(err)
		}
	}
	put := func(data string) func() error {
		return func() error { _, err := s.PutBlob([]byte(data)); return err }
	}
	appendRec := func() error { _, err := j.Append("c1", "rec", nil); return err }
	step(put("a"))
	step(appendRec)
	step(j.Sync)
	step(put("b"))
	step(put("c"))
	step(put("a"))
	step(func() error { _, err := s.PutBatch([][]byte{[]byte("d"), []byte("b"), []byte("e")}); return err })
	step(appendRec)
	step(j.Sync)
	step(appendRec)
	step(j.Sync)
	d := filepath.Base(dir)
	want := []string{
		"create " + journalName, "syncdir " + d,
		"create " + logName, "syncdir " + d, "write " + logName,
		"write " + journalName, "sync " + logName, "sync " + journalName,
		"write " + logName, "write " + logName, "write " + logName,
		"write " + journalName, "sync " + logName, "sync " + journalName,
		"write " + journalName, "sync " + journalName,
	}
	if got := fsys.calls(); !reflect.DeepEqual(got, want) {
		t.Fatalf("calls:\n%s\nwant:\n%s", strings.Join(got, "\n"), strings.Join(want, "\n"))
	}
}

// TestBlobLogConcurrentPutGet races puts, batch puts, gets, probes and
// journal syncs over shared blobs, then checks that a reopen indexes each
// blob once.
func TestBlobLogConcurrentPutGet(t *testing.T) {
	dir := t.TempDir()
	s := mustOpen(t, osFS{}, dir)
	var wg sync.WaitGroup
	for g := 0; g < 6; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 40; i++ {
				data := []byte(fmt.Sprintf("blob-%d", i))
				var h string
				var err error
				if g%2 == 0 {
					h, err = s.PutBlob(data)
				} else {
					var hs []string
					hs, err = s.PutBatch([][]byte{data, []byte(fmt.Sprintf("batch-%d", i))})
					if err == nil {
						h = hs[0]
					}
				}
				if err != nil {
					t.Error(err)
					return
				}
				if got, err := s.GetBlob(h); err != nil || !bytes.Equal(got, data) {
					t.Errorf("round trip %s: %v", h, err)
					return
				}
				if has := s.HasBatch([]string{h}); !has[0] {
					t.Errorf("HasBatch(%s) = false after a put", h)
				}
				if i%10 == 0 {
					if err := s.Journal().Sync(); err != nil {
						t.Error(err)
					}
				}
			}
		}(g)
	}
	wg.Wait()
	st := s.Stats()
	if st.BlobsWritten != 80 {
		t.Fatalf("BlobsWritten = %d, want 80", st.BlobsWritten)
	}
	s.Close()
	s = mustOpen(t, osFS{}, dir)
	defer s.Close()
	if n := len(s.blobs.index); n != 80 {
		t.Fatalf("reopen indexes %d blobs, want 80", n)
	}
	info, err := os.Stat(filepath.Join(dir, logName))
	if err != nil {
		t.Fatal(err)
	}
	if info.Size() != int64(80*recHeader)+int64(st.BlobBytes) {
		t.Fatalf("log holds %d bytes, want one record per blob (%d)", info.Size(), 80*recHeader+int(st.BlobBytes))
	}
}

// TestOpenImportsParentStore opens a copy of a store that the one-file-
// per-blob layout wrote (testdata/parent-store: a 12-test campaign and its
// 9 reductions, blobs under blobs/ab/<hash>). Open moves every file that
// hashes to its name into the blob log and removes it; every hash the
// journal names is served; files that are not blobs stay.
func TestOpenImportsParentStore(t *testing.T) {
	dir := t.TempDir()
	copyTree(t, "testdata/parent-store", dir)
	stray := filepath.Join(dir, "blobs", "00", ".blob-123")
	corrupt := filepath.Join(dir, "blobs", "00", HashBytes([]byte("not these bytes")))
	for _, p := range []string{stray, corrupt} {
		if err := os.MkdirAll(filepath.Dir(p), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(p, []byte("junk"), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	journal, err := os.ReadFile(filepath.Join(dir, journalName))
	if err != nil {
		t.Fatal(err)
	}
	var named []string
	for _, line := range bytes.Split(bytes.TrimSpace(journal), []byte("\n")) {
		var rec struct {
			Data struct {
				Bugs []struct {
					SeqHash string `json:"seq_hash"`
				} `json:"bugs"`
				ReportHash string `json:"report_hash"`
			} `json:"data"`
		}
		if err := json.Unmarshal(line, &rec); err != nil {
			t.Fatal(err)
		}
		for _, b := range rec.Data.Bugs {
			named = append(named, b.SeqHash)
		}
		if rec.Data.ReportHash != "" {
			named = append(named, rec.Data.ReportHash)
		}
	}
	if len(named) < 10 {
		t.Fatalf("testdata journal names %d blobs, want a campaign's worth", len(named))
	}

	for reopen := 0; reopen < 2; reopen++ {
		s := mustOpen(t, osFS{}, dir)
		for _, h := range named {
			data, err := s.GetBlob(h)
			if err != nil || HashBytes(data) != h {
				t.Fatalf("open %d: blob %s: %v", reopen, h, err)
			}
		}
		if err := s.Close(); err != nil {
			t.Fatal(err)
		}
	}
	var left []string
	filepath.WalkDir(filepath.Join(dir, "blobs"), func(path string, d os.DirEntry, err error) error {
		if err == nil && !d.IsDir() {
			left = append(left, path)
		}
		return nil
	})
	if want := []string{stray, corrupt}; !reflect.DeepEqual(sortedCopy(left), sortedCopy(want)) {
		t.Fatalf("blobs/ holds %v after the import, want only the files that are not blobs %v", left, want)
	}
	if _, err := os.Stat(filepath.Join(dir, logName+".import")); !os.IsNotExist(err) {
		t.Fatalf("the import's temporary log is left: %v", err)
	}
}

func sortedCopy(s []string) []string {
	out := append([]string(nil), s...)
	sort.Strings(out)
	return out
}

// copyTree copies the files under src into dst.
func copyTree(t *testing.T, src, dst string) {
	t.Helper()
	err := filepath.WalkDir(src, func(path string, d os.DirEntry, err error) error {
		if err != nil {
			return err
		}
		rel, err := filepath.Rel(src, path)
		if err != nil {
			return err
		}
		if d.IsDir() {
			return os.MkdirAll(filepath.Join(dst, rel), 0o755)
		}
		data, err := os.ReadFile(path)
		if err != nil {
			return err
		}
		return os.WriteFile(filepath.Join(dst, rel), data, 0o644)
	})
	if err != nil {
		t.Fatal(err)
	}
}

// logRecord encodes one blob log record, for fuzz seeds.
func logRecord(data []byte) []byte {
	h := sha256.Sum256(data)
	return appendRecord(nil, h, data)
}

// FuzzBlobLogRecover opens a store over arbitrary blob log bytes. Open
// never fails or panics; every blob it indexes reads back under its hash;
// a close and reopen indexes the same blobs at the same places; and a put
// after the recovery survives the next reopen.
func FuzzBlobLogRecover(f *testing.F) {
	a, b := logRecord([]byte("alpha")), logRecord([]byte("beta, somewhat longer"))
	empty := logRecord(nil)
	f.Add([]byte{})
	f.Add(append(append([]byte{}, a...), b...))
	f.Add(append(append([]byte{}, a...), b[:len(b)-3]...))
	f.Add(append(append([]byte{}, a...), b[:recHeader-1]...))
	f.Add(append(append(append([]byte{}, a...), empty...), a...))
	corrupt := append(append([]byte{}, a...), b...)
	corrupt[len(a)+recHeader] ^= 0xff
	f.Add(corrupt)
	huge := append([]byte{}, a...)
	huge = append(huge, make([]byte, sha256.Size)...)
	huge = binary.LittleEndian.AppendUint64(huge, 1<<62)
	f.Add(huge)
	f.Add(bytes.Repeat([]byte{0}, 3*recHeader))
	f.Fuzz(func(t *testing.T, data []byte) {
		dir := t.TempDir()
		if err := os.WriteFile(filepath.Join(dir, logName), data, 0o644); err != nil {
			t.Fatal(err)
		}
		s, err := open(osFS{}, dir)
		if err != nil {
			t.Fatalf("open: %v", err)
		}
		index := make(map[blobKey]span, len(s.blobs.index))
		for h, sp := range s.blobs.index {
			index[h] = sp
			got, err := s.GetBlob(hex.EncodeToString(h[:]))
			if err != nil || sha256.Sum256(got) != h {
				s.Close()
				t.Fatalf("indexed blob %x does not read back: %v", h, err)
			}
		}
		s.Close()
		s, err = open(osFS{}, dir)
		if err != nil {
			t.Fatalf("reopen: %v", err)
		}
		if !reflect.DeepEqual(s.blobs.index, index) {
			s.Close()
			t.Fatalf("reopen indexes %v, first open %v", s.blobs.index, index)
		}
		after := []byte("put after recovery")
		h, err := s.PutBlob(after)
		s.Close()
		if err != nil {
			t.Fatal(err)
		}
		s, err = open(osFS{}, dir)
		if err != nil {
			t.Fatalf("reopen after put: %v", err)
		}
		defer s.Close()
		if got, err := s.GetBlob(h); err != nil || !bytes.Equal(got, after) {
			t.Fatalf("put after recovery lost: %q, %v", got, err)
		}
		if len(s.blobs.index) != len(index)+1 && len(s.blobs.index) != len(index) {
			t.Fatalf("reopen after put indexes %d blobs, had %d", len(s.blobs.index), len(index))
		}
		for h := range index {
			if !s.HasBlob(hex.EncodeToString(h[:])) {
				t.Fatalf("blob %x lost by a put after recovery", h)
			}
		}
	})
}
