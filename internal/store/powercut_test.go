package store_test

import (
	"context"
	"encoding/json"
	"math/rand"
	"strings"
	"testing"
	"time"

	"spirvfuzz/internal/service"
	"spirvfuzz/internal/store"
)

// runCampaign runs spec to the end over st and returns its buckets as JSON.
func runCampaign(t *testing.T, st *store.Store, spec service.CampaignSpec) (string, []byte) {
	t.Helper()
	s, err := service.New(st, service.Options{Workers: 2})
	if err != nil {
		t.Fatal(err)
	}
	status, err := s.CreateCampaign(spec)
	if err != nil {
		t.Fatal(err)
	}
	return status.ID, finish(t, s, status.ID)
}

// finish waits for campaign id to end, closes s and returns the buckets.
func finish(t *testing.T, s *service.Service, id string) []byte {
	t.Helper()
	defer s.Close(context.Background())
	deadline := time.Now().Add(2 * time.Minute)
	for {
		st, ok := s.Campaign(id)
		if !ok {
			t.Fatalf("campaign %s unknown", id)
		}
		if st.State == service.StateDone {
			break
		}
		if st.State == service.StateFailed || time.Now().After(deadline) {
			t.Fatalf("campaign %s: %+v", id, st)
		}
		time.Sleep(5 * time.Millisecond)
	}
	buckets, err := s.Buckets(id)
	if err != nil {
		t.Fatal(err)
	}
	out, err := json.Marshal(buckets)
	if err != nil {
		t.Fatal(err)
	}
	return out
}

// TestPowerCutResume records every file operation of a campaign's store,
// then rebuilds what a power cut at many points of it would leave: each
// file's fsynced prefix plus a random prefix of its unsynced bytes. A
// daemon restarted over any of those stores finishes the campaign with
// buckets byte-identical to the uninterrupted run's: no replayed record
// may name a blob the cut lost. Over the whole campaign the blob log is
// fsynced only at the journal's sync points, never once per blob.
func TestPowerCutResume(t *testing.T) {
	if testing.Short() {
		t.Skip("multi-second pipeline test")
	}
	spec := service.CampaignSpec{Tests: 12}
	rec := store.NewRecorder()
	st, err := rec.Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	id, want := runCampaign(t, st, spec)

	calls := rec.Calls()
	count := func(call string) int {
		n := 0
		for _, c := range calls {
			if c == call {
				n++
			}
		}
		return n
	}
	logSyncs, journalSyncs, logWrites := count("sync blobs.log"), count("sync journal.jsonl"), count("write blobs.log")
	if logSyncs == 0 || logSyncs > journalSyncs || logWrites < 10*logSyncs {
		t.Fatalf("%d blob log fsyncs for %d writes and %d journal fsyncs: want the log fsynced at the journal's sync points only", logSyncs, logWrites, journalSyncs)
	}

	// The campaign is durable once its first journal fsync returns; a cut
	// before it may lose the campaign, which was then never acknowledged.
	first := 0
	for i, c := range calls {
		if c == "sync journal.jsonl" {
			first = i + 1
			break
		}
	}
	rng := rand.New(rand.NewSource(1))
	cuts := []int{first, len(calls) - 1}
	for len(cuts) < 16 {
		cuts = append(cuts, first+rng.Intn(len(calls)-first))
	}
	for _, n := range cuts {
		dir := t.TempDir()
		if err := rec.PowerCut(dir, n, func(_ string, unsynced int) int { return rng.Intn(unsynced + 1) }); err != nil {
			t.Fatal(err)
		}
		st, err := store.Open(dir)
		if err != nil {
			t.Fatalf("cut after op %d of %d: open: %v", n, len(calls), err)
		}
		s, err := service.New(st, service.Options{Workers: 2})
		if err != nil {
			t.Fatalf("cut after op %d of %d: recover: %v", n, len(calls), err)
		}
		if got := finish(t, s, id); string(got) != string(want) {
			t.Fatalf("cut after op %d of %d (%s): buckets\n%s\nwant\n%s", n, len(calls), strings.Join(calls[max(0, n-3):n], ", "), got, want)
		}
	}
}
