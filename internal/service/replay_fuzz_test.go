package service

import (
	"bytes"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"spirvfuzz/internal/store"
)

// parentStore is a finished 12-test campaign's store (journal and blobs),
// kept with the store package's tests.
const parentStore = "../store/testdata/parent-store"

// blobLogOf returns the blob log a store opened over a copy of
// parentStore builds from its blob files.
func blobLogOf(f *testing.F) []byte {
	dir := f.TempDir()
	err := filepath.WalkDir(parentStore, func(path string, d os.DirEntry, err error) error {
		if err != nil {
			return err
		}
		rel, _ := filepath.Rel(parentStore, path)
		if d.IsDir() {
			return os.MkdirAll(filepath.Join(dir, rel), 0o755)
		}
		data, err := os.ReadFile(path)
		if err != nil {
			return err
		}
		return os.WriteFile(filepath.Join(dir, rel), data, 0o644)
	})
	if err != nil {
		f.Fatal(err)
	}
	st, err := store.Open(dir)
	if err != nil {
		f.Fatal(err)
	}
	if err := st.Close(); err != nil {
		f.Fatal(err)
	}
	log, err := os.ReadFile(filepath.Join(dir, "blobs.log"))
	if err != nil {
		f.Fatal(err)
	}
	return log
}

// jobStates lists every job NewMachine recovered, with its state.
func jobStates(m *Machine) []string {
	var out []string
	for _, c := range m.Campaigns() {
		out = append(out, c.ID+" "+string(c.State))
	}
	for _, b := range m.BisectJobs() {
		out = append(out, b.ID+" "+string(b.State))
	}
	return out
}

// FuzzMachineReplay feeds arbitrary journals through NewMachine, over a
// store holding the blobs of a real campaign. NewMachine either returns an
// error or recovers without panicking; a recovery it accepts is stable: a
// second NewMachine over the store it left recovers the same jobs in the
// same states.
func FuzzMachineReplay(f *testing.F) {
	journal, err := os.ReadFile(filepath.Join(parentStore, "journal.jsonl"))
	if err != nil {
		f.Fatal(err)
	}
	lines := bytes.SplitAfter(journal, []byte("\n"))
	last := len(lines) - 1
	if len(lines[last]) == 0 {
		lines = lines[:last]
	}
	f.Add(journal)
	f.Add(bytes.Join(lines[:len(lines)-1], nil)) // campaign_done lost
	f.Add(bytes.Join(lines[:len(lines)/2], nil))
	f.Add(bytes.Join(lines[:1], nil))
	f.Add(append(bytes.Join(lines[:1], nil), lines[len(lines)-1]...)) // done with no tests
	bisect := strings.Join([]string{
		`{"seq":100,"campaign":"b001","type":"bisect_created","data":{"campaign":"c001"}}`,
		`{"seq":101,"campaign":"b001","type":"case_bisected","data":{"case":"c001/NVIDIA/2","target":"NVIDIA"}}`,
		`{"seq":102,"campaign":"b001","type":"bisect_done","data":{"bisect_buckets":1}}`,
	}, "\n") + "\n"
	f.Add(append(append([]byte{}, journal...), bisect...))
	f.Add([]byte(bisect))
	f.Add([]byte(`{"seq":1,"campaign":"c001","type":"test_done","data":{"index":0}}` + "\n"))
	f.Add([]byte(`{"seq":1,"campaign":"c001","type":"campaign_created","data":{"tests":-1}}` + "\n"))
	f.Add([]byte(`{"seq":1,"campaign":"c001","type":"cluster_shard","data":{}}` + "\n"))
	log := blobLogOf(f)
	f.Fuzz(func(t *testing.T, journal []byte) {
		dir := t.TempDir()
		if err := os.WriteFile(filepath.Join(dir, "blobs.log"), log, 0o644); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(filepath.Join(dir, "journal.jsonl"), journal, 0o644); err != nil {
			t.Fatal(err)
		}
		recoverJobs := func() ([]string, bool) {
			st, err := store.Open(dir)
			if err != nil {
				return nil, false
			}
			defer st.Close()
			m, _, err := NewMachine(st, nil)
			if err != nil {
				return nil, false
			}
			return jobStates(m), true
		}
		first, ok := recoverJobs()
		if !ok {
			return
		}
		second, ok := recoverJobs()
		if !ok {
			t.Fatalf("second recovery failed after the first recovered %v", first)
		}
		if !reflect.DeepEqual(first, second) {
			t.Fatalf("recovered %v, then %v", first, second)
		}
	})
}
