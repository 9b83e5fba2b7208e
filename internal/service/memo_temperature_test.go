package service

import (
	"bytes"
	"context"
	"encoding/json"
	"os"
	"path/filepath"
	"sort"
	"testing"
	"time"

	"spirvfuzz/internal/store"
)

// memoRunResult captures everything the property compares: buckets,
// every reduction record, and the full bisect result set, serialized
// canonically.
type memoRunResult struct {
	buckets []byte
	reduced []byte
	bisect  []byte
	status  CampaignStatus
}

// memoRun executes one full campaign + bisect job in a fresh store (so
// nothing is journal-skipped; only the memo tier can warm it) and
// returns the canonical serialization of its outputs.
func memoRun(t *testing.T, workers int, memoDir string) memoRunResult {
	t.Helper()
	st, err := store.Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	s, err := New(st, Options{Workers: workers, MemoDir: memoDir})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close(context.Background())

	status, err := s.CreateCampaign(CampaignSpec{Tests: 12})
	if err != nil {
		t.Fatal(err)
	}
	status = waitCampaign(t, s, status.ID, 2*time.Minute)
	if status.State != StateDone {
		t.Fatalf("campaign failed: %+v", status)
	}
	sets, err := s.Buckets(status.ID)
	if err != nil || len(sets) != 1 {
		t.Fatalf("buckets: %v %v", sets, err)
	}
	bucketsJSON, err := json.Marshal(sets[0])
	if err != nil {
		t.Fatal(err)
	}
	// Reduction records, canonically ordered (maps marshal key-sorted).
	s.mu.Lock()
	c := s.campaigns[status.ID]
	s.mu.Unlock()
	c.mu.Lock()
	reducedJSON, err := json.Marshal(c.reduced)
	c.mu.Unlock()
	if err != nil {
		t.Fatal(err)
	}

	job, err := s.CreateBisect(BisectSpec{Campaign: status.ID})
	if err != nil {
		t.Fatal(err)
	}
	job = waitBisect(t, s, job.ID, 2*time.Minute)
	if job.State != StateDone {
		t.Fatalf("bisect failed: %+v", job)
	}
	set, err := s.BisectResult(job.ID)
	if err != nil {
		t.Fatal(err)
	}
	bisectJSON, err := json.Marshal(set)
	if err != nil {
		t.Fatal(err)
	}
	return memoRunResult{buckets: bucketsJSON, reduced: reducedJSON, bisect: bisectJSON, status: status}
}

// TestMemoTemperatureIdentity is the tentpole property: buckets,
// reductions, and bisect results are bitwise-identical at every memo
// temperature — no memo, cold, warm, torn-and-recovered, rewarmed — and
// at every worker count, including warm reads of a store written at a
// different worker count. (The nodes {1,3} leg of the property lives in
// internal/cluster's TestClusterMemoSync*, which reuses the same
// invariant across node counts.)
func TestMemoTemperatureIdentity(t *testing.T) {
	if testing.Short() {
		t.Skip("multi-campaign pipeline test")
	}
	ref := memoRun(t, 2, "") // no memo: the ground truth
	if ref.status.MemoHits != 0 || ref.status.MemoMisses != 0 {
		t.Fatalf("memo counters without a memo store: %+v", ref.status)
	}

	memoDir := filepath.Join(t.TempDir(), "memo")
	check := func(label string, got memoRunResult) {
		t.Helper()
		if !bytes.Equal(got.buckets, ref.buckets) {
			t.Fatalf("%s: buckets diverged\n got %s\nwant %s", label, got.buckets, ref.buckets)
		}
		if !bytes.Equal(got.reduced, ref.reduced) {
			t.Fatalf("%s: reductions diverged", label)
		}
		if !bytes.Equal(got.bisect, ref.bisect) {
			t.Fatalf("%s: bisect results diverged", label)
		}
	}

	cold := memoRun(t, 1, memoDir)
	check("cold/w1", cold)
	if cold.status.MemoMisses == 0 {
		t.Fatalf("cold campaign never consulted the memo: %+v", cold.status)
	}

	// Warm, at a different worker count than the writer.
	warm := memoRun(t, 4, memoDir)
	check("warm/w4", warm)
	if warm.status.MemoHits == 0 {
		t.Fatalf("warm campaign never hit the memo: %+v", warm.status)
	}

	// Torn temperature: chop the largest segment mid-record.
	segs, err := filepath.Glob(filepath.Join(memoDir, "seg-*.log"))
	if err != nil || len(segs) == 0 {
		t.Fatalf("no memo segments: %v", err)
	}
	sort.Slice(segs, func(i, j int) bool {
		fi, _ := os.Stat(segs[i])
		fj, _ := os.Stat(segs[j])
		return fi.Size() > fj.Size()
	})
	fi, err := os.Stat(segs[0])
	if err != nil {
		t.Fatal(err)
	}
	if err := os.Truncate(segs[0], fi.Size()*2/3); err != nil {
		t.Fatal(err)
	}
	check("truncated/w1", memoRun(t, 1, memoDir))

	// Rewarmed temperature: the store the truncated run refilled, read at
	// the other worker count.
	rewarmed := memoRun(t, 4, memoDir)
	check("rewarmed/w4", rewarmed)
	if rewarmed.status.MemoHits == 0 {
		t.Fatalf("rewarmed store served no hits: %+v", rewarmed.status)
	}
}

// A daemon with a memo store reports it in /metrics; one without omits it.
func TestMetricsMemoBlock(t *testing.T) {
	st, err := store.Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	s, err := New(st, Options{MemoDir: filepath.Join(t.TempDir(), "memo")})
	if err != nil {
		t.Fatal(err)
	}
	if s.MemoStore() == nil {
		t.Fatal("memo store not attached")
	}
	if m := s.Metrics(); m.Memo == nil {
		t.Fatal("metrics omit the memo block")
	}
	s.Close(context.Background())

	st2, err := store.Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	s2, err := New(st2, Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer s2.Close(context.Background())
	if s2.MemoStore() != nil || s2.Metrics().Memo != nil {
		t.Fatal("memo-less daemon reports a memo block")
	}
}
