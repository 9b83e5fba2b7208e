package service

import (
	"bytes"
	"context"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"
	"time"

	"spirvfuzz/internal/fuzz"
	"spirvfuzz/internal/store"
	"spirvfuzz/internal/target"
)

func TestSpecNormalize(t *testing.T) {
	sp := CampaignSpec{Tests: 10}
	if err := sp.Normalize(); err != nil {
		t.Fatal(err)
	}
	if sp.Tool != "spirv-fuzz" || sp.CapPerSignature != 2 || len(sp.Targets) != len(target.All()) {
		t.Fatalf("defaults not resolved: %+v", sp)
	}
	simple := CampaignSpec{Tests: 5, Tool: "spirv-fuzz-simple"}
	if err := simple.Normalize(); err != nil {
		t.Fatal(err)
	}
	if simple.SeedBase != 1<<32 {
		t.Fatalf("simple seed base = %d", simple.SeedBase)
	}
	for _, bad := range []CampaignSpec{
		{Tests: 0},
		{Tests: 5, Tool: "glsl-fuzz"},
		{Tests: 5, Targets: []string{"NoSuchGPU"}},
		{Tests: 5, Targets: []string{"Mesa", "Mesa"}},
		{Tests: 5, ReduceSlowdownMS: -1},
	} {
		if err := bad.Normalize(); err == nil {
			t.Fatalf("spec %+v normalized without error", bad)
		}
	}
}

// waitCampaign polls until the campaign reaches a terminal state.
func waitCampaign(t *testing.T, s *Service, id string, timeout time.Duration) CampaignStatus {
	t.Helper()
	deadline := time.Now().Add(timeout)
	for {
		st, ok := s.Campaign(id)
		if !ok {
			t.Fatalf("campaign %s disappeared", id)
		}
		if st.State == StateDone || st.State == StateFailed {
			return st
		}
		if time.Now().After(deadline) {
			t.Fatalf("campaign %s stuck in %s after %v: %+v", id, st.State, timeout, st)
		}
		time.Sleep(5 * time.Millisecond)
	}
}

// TestCampaignPipeline runs one campaign end to end in process and checks
// the shape of everything the daemon would serve: status, buckets,
// per-target type disjointness, spirv-dedup-compatible report blobs, and no
// blob (so no GET /reports/{hash}) under any journaled variant fingerprint.
func TestCampaignPipeline(t *testing.T) {
	st, err := store.Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	s, err := New(st, Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close(context.Background())

	status, err := s.CreateCampaign(CampaignSpec{Tests: 25})
	if err != nil {
		t.Fatal(err)
	}
	status = waitCampaign(t, s, status.ID, 2*time.Minute)
	if status.State != StateDone {
		t.Fatalf("campaign failed: %+v", status)
	}
	if status.TestsDone != 25 || status.Bugs == 0 || status.Reduced == 0 || status.Buckets == 0 {
		t.Fatalf("empty campaign: %+v", status)
	}
	if status.Reduced != status.ReduceTotal {
		t.Fatalf("reduced %d of %d", status.Reduced, status.ReduceTotal)
	}

	sets, err := s.Buckets(status.ID)
	if err != nil {
		t.Fatal(err)
	}
	if len(sets) != 1 || len(sets[0].Buckets) != status.Buckets {
		t.Fatalf("bucket sets %+v vs status %+v", sets, status)
	}
	// Figure 6 invariant: within one target, recommended reports share no
	// transformation type.
	perTarget := map[string]map[string]bool{}
	for _, b := range sets[0].Buckets {
		if len(b.Types) == 0 || b.ReportHash == "" || b.SequenceLen == 0 {
			t.Fatalf("malformed bucket %+v", b)
		}
		seen := perTarget[b.Target]
		if seen == nil {
			seen = map[string]bool{}
			perTarget[b.Target] = seen
		}
		for _, ty := range b.Types {
			if seen[ty] {
				t.Fatalf("target %s: type %s appears in two buckets", b.Target, ty)
			}
			seen[ty] = true
		}
		// The report blob must be consumable by spirv-dedup: a JSON object
		// with "signature" and a parseable "transformations" sequence.
		blob, err := s.ReportBlob(b.ReportHash)
		if err != nil {
			t.Fatal(err)
		}
		var report struct {
			Signature       string          `json:"signature"`
			Transformations json.RawMessage `json:"transformations"`
		}
		if err := json.Unmarshal(blob, &report); err != nil {
			t.Fatal(err)
		}
		if report.Signature != b.Signature {
			t.Fatalf("report signature %q, bucket %q", report.Signature, b.Signature)
		}
		seq, err := fuzz.UnmarshalSequence(report.Transformations)
		if err != nil {
			t.Fatal(err)
		}
		if len(seq) != b.SequenceLen {
			t.Fatalf("report sequence length %d, bucket %d", len(seq), b.SequenceLen)
		}
	}

	// The sequence is the test: a journaled VariantHash is a fingerprint,
	// never a stored blob, so the daemon serves no variant under it.
	mux := NewMux(s, func() any { return s.Metrics() })
	variants := 0
	err = st.Journal().Replay(func(r store.Record) error {
		if r.Type != recTestDone {
			return nil
		}
		var td TestDone
		if err := json.Unmarshal(r.Data, &td); err != nil {
			return err
		}
		for _, bug := range td.Bugs {
			if bug.VariantHash == "" || !st.HasBlob(bug.SeqHash) {
				t.Fatalf("test %d: bug %+v lacks its fingerprint or sequence blob", td.Index, bug)
			}
			if st.HasBlob(bug.VariantHash) {
				t.Fatalf("test %d: variant %s is stored as a blob", td.Index, bug.VariantHash)
			}
			rec := httptest.NewRecorder()
			mux.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/reports/"+bug.VariantHash, nil))
			if rec.Code != http.StatusNotFound {
				t.Fatalf("GET /reports/%s: status %d, want 404", bug.VariantHash, rec.Code)
			}
			variants++
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if variants != status.Bugs {
		t.Fatalf("journal holds %d bugs, status %d", variants, status.Bugs)
	}

	m := s.Metrics()
	if m.Campaigns != 1 || m.CampaignsDone != 1 || m.JobsCompleted == 0 || m.JobsFailed != 0 {
		t.Fatalf("metrics %+v", m)
	}
	if m.Runner.Hits == 0 || m.Store.JournalRecords == 0 {
		t.Fatalf("subsystem counters missing: %+v", m)
	}
}

// TestServiceResumeBitwiseIdentical is the determinism contract of the
// daemon (in-process variant of the spirvd kill/restart e2e test): a
// campaign interrupted mid-reduction by a forced drain and resumed by a new
// service over the same store produces a bucket set bitwise-identical to an
// uninterrupted run, with journal-satisfied steps counted as skipped.
func TestServiceResumeBitwiseIdentical(t *testing.T) {
	if testing.Short() {
		t.Skip("multi-second pipeline test")
	}
	spec := CampaignSpec{Tests: 20, ReduceSlowdownMS: 10}

	// Uninterrupted baseline (slowdown kept identical: it never changes
	// results, only timing, but keeping the spec equal removes all doubt).
	baseStore, err := store.Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	base, err := New(baseStore, Options{})
	if err != nil {
		t.Fatal(err)
	}
	baseStatus, err := base.CreateCampaign(spec)
	if err != nil {
		t.Fatal(err)
	}
	baseStatus = waitCampaign(t, base, baseStatus.ID, 2*time.Minute)
	if baseStatus.State != StateDone || baseStatus.Reduced == 0 {
		t.Fatalf("baseline campaign: %+v", baseStatus)
	}
	baseSets, err := base.Buckets(baseStatus.ID)
	if err != nil {
		t.Fatal(err)
	}
	base.Close(context.Background())

	// Interrupted run: force-drain the service mid-reduction...
	dir := t.TempDir()
	st1, err := store.Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	s1, err := New(st1, Options{})
	if err != nil {
		t.Fatal(err)
	}
	status, err := s1.CreateCampaign(spec)
	if err != nil {
		t.Fatal(err)
	}
	deadline := time.Now().Add(2 * time.Minute)
	for {
		cur, _ := s1.Campaign(status.ID)
		if cur.Reduced >= 1 || cur.State == StateDone {
			if cur.State == StateDone {
				t.Log("campaign finished before the interruption landed; resume still exercises full skip")
			}
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("campaign never started reducing: %+v", cur)
		}
		time.Sleep(2 * time.Millisecond)
	}
	expired, cancel := context.WithDeadline(context.Background(), time.Now())
	cancel()
	s1.Close(expired) // forced drain: in-flight jobs are canceled, unjournaled

	// ...and resume it with a fresh service over the same store.
	st2, err := store.Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	s2, err := New(st2, Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer s2.Close(context.Background())
	resumed := waitCampaign(t, s2, status.ID, 2*time.Minute)
	if resumed.State != StateDone {
		t.Fatalf("resumed campaign: %+v", resumed)
	}
	if resumed.SkippedTests == 0 {
		t.Fatalf("resume re-ran every test: %+v", resumed)
	}
	if m := s2.Metrics(); m.JobsSkipped == 0 {
		t.Fatalf("metrics show no journal reuse: %+v", m)
	}

	resumedSets, err := s2.Buckets(status.ID)
	if err != nil {
		t.Fatal(err)
	}
	baseJSON, _ := json.Marshal(baseSets)
	resumedJSON, _ := json.Marshal(resumedSets)
	if string(baseJSON) != string(resumedJSON) {
		t.Fatalf("buckets diverged after resume:\n%s\nvs uninterrupted\n%s", resumedJSON, baseJSON)
	}
	if !reflect.DeepEqual(resumed.Spec, baseStatus.Spec) {
		t.Fatalf("journaled spec drifted: %+v vs %+v", resumed.Spec, baseStatus.Spec)
	}
}

// TestServiceRecoversDoneCampaign: a service restarted after a campaign
// finished rebuilds its buckets from the journal without re-running
// anything.
func TestServiceRecoversDoneCampaign(t *testing.T) {
	dir := t.TempDir()
	st1, err := store.Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	s1, err := New(st1, Options{})
	if err != nil {
		t.Fatal(err)
	}
	status, err := s1.CreateCampaign(CampaignSpec{Tests: 8})
	if err != nil {
		t.Fatal(err)
	}
	status = waitCampaign(t, s1, status.ID, 2*time.Minute)
	if status.State != StateDone {
		t.Fatalf("campaign: %+v", status)
	}
	before, err := s1.Buckets(status.ID)
	if err != nil {
		t.Fatal(err)
	}
	s1.Close(context.Background())

	st2, err := store.Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	s2, err := New(st2, Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer s2.Close(context.Background())
	got, ok := s2.Campaign(status.ID)
	if !ok || !reflect.DeepEqual(withoutRunCounters(got), withoutRunCounters(status)) {
		t.Fatalf("recovered campaign: %+v (want %+v)", got, status)
	}
	after, err := s2.Buckets(status.ID)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(before, after) {
		t.Fatalf("buckets changed across restart:\n%+v\nvs\n%+v", after, before)
	}
	// Nothing re-ran: the new service submitted no jobs for the campaign.
	if m := s2.Metrics(); m.JobsSubmitted != 0 {
		t.Fatalf("restart re-submitted %d jobs", m.JobsSubmitted)
	}
	// New campaigns still work after recovery.
	st3, err := s2.CreateCampaign(CampaignSpec{Tests: 4, Targets: []string{"Mesa", "SwiftShader"}})
	if err != nil {
		t.Fatal(err)
	}
	if st3.ID == status.ID {
		t.Fatalf("ID counter not advanced past recovered campaigns: %s", st3.ID)
	}
	if fin := waitCampaign(t, s2, st3.ID, 2*time.Minute); fin.State != StateDone {
		t.Fatalf("post-recovery campaign: %+v", fin)
	}
}

// TestRecoversDoneJobsWithoutCheckpoints: buckets and bisection sets are
// never stored. A restart over a store with a finished campaign and a
// finished bisection rebuilds both byte-identically from the journal,
// submits no job and journals nothing. A checkpoints/ directory that an
// older build left behind is neither read nor deleted.
func TestRecoversDoneJobsWithoutCheckpoints(t *testing.T) {
	if testing.Short() {
		t.Skip("multi-second pipeline test")
	}
	dir := t.TempDir()
	st1, err := store.Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	s1, err := New(st1, Options{})
	if err != nil {
		t.Fatal(err)
	}
	status, err := s1.CreateCampaign(CampaignSpec{Tests: 8})
	if err != nil {
		t.Fatal(err)
	}
	status = waitCampaign(t, s1, status.ID, 2*time.Minute)
	job, err := s1.CreateBisect(BisectSpec{Campaign: status.ID})
	if err != nil {
		t.Fatal(err)
	}
	job = waitBisect(t, s1, job.ID, 2*time.Minute)
	if status.State != StateDone || job.State != StateDone || job.CasesTotal == 0 {
		t.Fatalf("campaign %+v, bisect job %+v", status, job)
	}
	wantBuckets, _ := s1.Buckets(status.ID)
	wantSet, _ := s1.BisectResult(job.ID)
	wantBucketsJSON, _ := json.Marshal(wantBuckets)
	wantSetJSON, _ := json.Marshal(wantSet)
	s1.Close(context.Background())

	if entries, _ := os.ReadDir(dir); len(entries) != 2 {
		t.Fatalf("store root holds %d entries, want blobs.log and the journal only", len(entries))
	}
	stale := []byte("{\"buckets\": \"not what the journal says\"}\n")
	stalePath := filepath.Join(dir, "checkpoints", "buckets-"+status.ID+".json")
	if err := os.MkdirAll(filepath.Dir(stalePath), 0o755); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(stalePath, stale, 0o644); err != nil {
		t.Fatal(err)
	}
	journal, err := os.ReadFile(filepath.Join(dir, "journal.jsonl"))
	if err != nil {
		t.Fatal(err)
	}

	st2, err := store.Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	s2, err := New(st2, Options{})
	if err != nil {
		t.Fatal(err)
	}
	gotBuckets, err := s2.Buckets(status.ID)
	if err != nil {
		t.Fatal(err)
	}
	gotSet, err := s2.BisectResult(job.ID)
	if err != nil {
		t.Fatal(err)
	}
	gotBucketsJSON, _ := json.Marshal(gotBuckets)
	gotSetJSON, _ := json.Marshal(gotSet)
	if !bytes.Equal(gotBucketsJSON, wantBucketsJSON) {
		t.Fatalf("recovered buckets:\n%s\nwant\n%s", gotBucketsJSON, wantBucketsJSON)
	}
	if !bytes.Equal(gotSetJSON, wantSetJSON) {
		t.Fatalf("recovered bisection set:\n%s\nwant\n%s", gotSetJSON, wantSetJSON)
	}
	if got, _ := s2.BisectJob(job.ID); !reflect.DeepEqual(got, job) {
		t.Fatalf("recovered bisect job: %+v (want %+v)", got, job)
	}
	if m := s2.Metrics(); m.JobsSubmitted != 0 {
		t.Fatalf("restart submitted %d jobs", m.JobsSubmitted)
	}
	s2.Close(context.Background())
	if after, _ := os.ReadFile(filepath.Join(dir, "journal.jsonl")); !bytes.Equal(after, journal) {
		t.Fatal("recovery journaled records")
	}
	if after, err := os.ReadFile(stalePath); err != nil || !bytes.Equal(after, stale) {
		t.Fatalf("stale checkpoint touched: %q, %v", after, err)
	}
}

// TestCampaignWithoutBugs: a campaign that finds no bugs selects nothing to
// reduce, yet its selection is made. It finishes with no buckets, a
// bisection over it finishes with an empty set, and a restart rebuilds both
// from the journal instead of waiting on the fuzz phase.
func TestCampaignWithoutBugs(t *testing.T) {
	dir := t.TempDir()
	st1, err := store.Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	s1, err := New(st1, Options{})
	if err != nil {
		t.Fatal(err)
	}
	status, err := s1.CreateCampaign(CampaignSpec{Tests: 1, Targets: []string{"Mesa"}})
	if err != nil {
		t.Fatal(err)
	}
	status = waitCampaign(t, s1, status.ID, time.Minute)
	if status.State != StateDone || status.Bugs != 0 || status.ReduceTotal != 0 {
		t.Fatalf("campaign: %+v", status)
	}
	job, err := s1.CreateBisect(BisectSpec{Campaign: status.ID})
	if err != nil {
		t.Fatal(err)
	}
	job = waitBisect(t, s1, job.ID, time.Minute)
	if job.State != StateDone || job.CasesTotal != 0 {
		t.Fatalf("bisect job: %+v", job)
	}
	set, err := s1.BisectResult(job.ID)
	if err != nil || len(set.Outcomes) != 0 {
		t.Fatalf("bisect set %+v: %v", set, err)
	}
	s1.Close(context.Background())

	st2, err := store.Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	s2, err := New(st2, Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer s2.Close(context.Background())
	got := waitCampaign(t, s2, status.ID, time.Minute)
	if !reflect.DeepEqual(withoutRunCounters(got), withoutRunCounters(status)) {
		t.Fatalf("recovered campaign: %+v (want %+v)", got, status)
	}
	if got, _ := s2.BisectJob(job.ID); !reflect.DeepEqual(got, job) {
		t.Fatalf("recovered bisect job: %+v (want %+v)", got, job)
	}
}

// withoutRunCounters zeroes the status fields that describe one process's
// run rather than the campaign: the journal-skip and memo counters.
func withoutRunCounters(st CampaignStatus) CampaignStatus {
	st.SkippedTests, st.SkippedReductions = 0, 0
	st.MemoHits, st.MemoMisses = 0, 0
	return st
}

// TestCreateFailsWithoutJournal: a create whose record cannot be journaled
// fails and registers nothing, so no job is listed that would never run.
func TestCreateFailsWithoutJournal(t *testing.T) {
	st, err := store.Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	s, err := New(st, Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close(context.Background())
	status, err := s.CreateCampaign(CampaignSpec{Tests: 4, Targets: []string{"Mesa", "SwiftShader"}})
	if err != nil {
		t.Fatal(err)
	}
	if fin := waitCampaign(t, s, status.ID, 2*time.Minute); fin.State != StateDone {
		t.Fatalf("campaign: %+v", fin)
	}
	if err := st.Journal().Close(); err != nil {
		t.Fatal(err)
	}
	if _, err := s.CreateCampaign(CampaignSpec{Tests: 4}); err == nil {
		t.Fatal("campaign created without a journal")
	}
	if got := s.Campaigns(); len(got) != 1 {
		t.Fatalf("unjournaled campaign listed: %+v", got)
	}
	if _, err := s.CreateBisect(BisectSpec{Campaign: status.ID}); err == nil {
		t.Fatal("bisect job created without a journal")
	}
	if got := s.BisectJobs(); len(got) != 0 {
		t.Fatalf("unjournaled bisect job listed: %+v", got)
	}
}

// TestRecoveryRejectsUnknownRecord: replay knows exactly the records both
// roles write; a store holding any other type — such as a coordinator
// shard record from before the roles shared one journal — fails to open
// with an error that names it.
func TestRecoveryRejectsUnknownRecord(t *testing.T) {
	dir := t.TempDir()
	st, err := store.Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	spec := CampaignSpec{Tests: 4}
	if err := spec.Normalize(); err != nil {
		t.Fatal(err)
	}
	if _, err := st.Journal().Append("c001", recCampaignCreated, spec); err != nil {
		t.Fatal(err)
	}
	if _, err := st.Journal().Append("c001", "cluster_shard_done", map[string]any{"phase": "fuzz"}); err != nil {
		t.Fatal(err)
	}
	st.Close()
	st2, err := store.Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer st2.Close()
	if _, err := New(st2, Options{}); err == nil || !strings.Contains(err.Error(), `"cluster_shard_done"`) {
		t.Fatalf("recovery over an unknown record: %v", err)
	}
}

// TestRecoveryRejectsDoneWithoutRecords: a journaled campaign_done is
// trusted to mean every record its buckets need precedes it. A journal
// that says done without them is corrupt, and recovery refuses it instead
// of serving buckets built from nothing.
func TestRecoveryRejectsDoneWithoutRecords(t *testing.T) {
	dir := t.TempDir()
	st, err := store.Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	spec := CampaignSpec{Tests: 4}
	if err := spec.Normalize(); err != nil {
		t.Fatal(err)
	}
	if _, err := st.Journal().Append("c001", recCampaignCreated, spec); err != nil {
		t.Fatal(err)
	}
	if _, err := st.Journal().Append("c001", recCampaignDone, campaignDoneRec{}); err != nil {
		t.Fatal(err)
	}
	st.Close()
	st2, err := store.Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer st2.Close()
	if _, err := New(st2, Options{}); err == nil || !strings.Contains(err.Error(), "unrecorded tests") {
		t.Fatalf("recovery over a done campaign without its tests: %v", err)
	}
}

// waitBisect polls until the bisection job reaches a terminal state.
func waitBisect(t *testing.T, s *Service, id string, timeout time.Duration) BisectStatus {
	t.Helper()
	deadline := time.Now().Add(timeout)
	for {
		st, ok := s.BisectJob(id)
		if !ok {
			t.Fatalf("bisect job %s disappeared", id)
		}
		if st.State == StateDone || st.State == StateFailed {
			return st
		}
		if time.Now().After(deadline) {
			t.Fatalf("bisect job %s stuck in %s after %v: %+v", id, st.State, timeout, st)
		}
		time.Sleep(5 * time.Millisecond)
	}
}

// TestBisectJobResumeTornJournal is the bisection counterpart of the campaign
// resume contract: a /bisect job SIGKILL'd mid-run — simulated by rewinding
// the journal to one completed verdict and leaving a torn half-written record at the tail — is auto-resumed by the
// next service over the same store and produces a result set
// bitwise-identical to the uninterrupted run, with the journaled verdict
// skipped rather than recomputed.
func TestBisectJobResumeTornJournal(t *testing.T) {
	if testing.Short() {
		t.Skip("multi-second pipeline test")
	}
	dir := t.TempDir()
	st1, err := store.Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	s1, err := New(st1, Options{})
	if err != nil {
		t.Fatal(err)
	}
	status, err := s1.CreateCampaign(CampaignSpec{Tests: 20})
	if err != nil {
		t.Fatal(err)
	}
	status = waitCampaign(t, s1, status.ID, 2*time.Minute)
	if status.State != StateDone || status.Reduced < 2 {
		t.Fatalf("campaign: %+v", status)
	}

	// A bisect job over an unfinished (or unknown) campaign is refused.
	if _, err := s1.CreateBisect(BisectSpec{Campaign: "c999"}); err == nil {
		t.Fatal("bisect of unknown campaign accepted")
	}

	job, err := s1.CreateBisect(BisectSpec{Campaign: status.ID})
	if err != nil {
		t.Fatal(err)
	}
	job = waitBisect(t, s1, job.ID, 2*time.Minute)
	if job.State != StateDone || job.CasesDone != status.Reduced {
		t.Fatalf("bisect job: %+v", job)
	}
	base, err := s1.BisectResult(job.ID)
	if err != nil {
		t.Fatal(err)
	}
	if len(base.Outcomes) != status.Reduced || base.TransformBuckets != status.Buckets {
		t.Fatalf("result set %+v vs campaign %+v", base, status)
	}
	// No ordering between the three counts is guaranteed: intersection
	// refines the bisection partition but drops groups whose reductions kept
	// no transformations (the type heuristic cannot investigate those).
	if base.BisectBuckets == 0 || base.IntersectionBuckets == 0 {
		t.Fatalf("bucket counts: %+v", base)
	}
	for _, out := range base.Outcomes {
		if out.FirstBad == "" || out.Queries == 0 {
			t.Fatalf("empty verdict %+v", out)
		}
	}
	if m := s1.Metrics(); m.BisectJobs != 1 || m.BisectJobsDone != 1 || m.Bisect.Bisections == 0 {
		t.Fatalf("bisect metrics: %+v", m)
	}
	baseJSON, _ := json.Marshal(base)
	s1.Close(context.Background())

	// Simulate the SIGKILL: rewind the journal so only the first verdict
	// survives, drop bisect_done, and tear the tail mid-record as an interrupted append would.
	raw, err := os.ReadFile(filepath.Join(dir, "journal.jsonl"))
	if err != nil {
		t.Fatal(err)
	}
	var kept []string
	verdicts := 0
	for _, line := range strings.Split(strings.TrimSpace(string(raw)), "\n") {
		var rec struct {
			Campaign string `json:"campaign"`
			Type     string `json:"type"`
		}
		if err := json.Unmarshal([]byte(line), &rec); err != nil {
			t.Fatalf("journal line %q: %v", line, err)
		}
		if rec.Campaign == job.ID {
			switch rec.Type {
			case recCaseBisected:
				verdicts++
				if verdicts > 1 {
					continue
				}
			case recBisectDone:
				continue
			}
		}
		kept = append(kept, line)
	}
	if verdicts < 2 {
		t.Fatalf("journal has %d verdicts, cannot rewind", verdicts)
	}
	torn := `{"seq":999999,"campaign":"` + job.ID + `","type":"case_bisected","data":{"case":"te`
	kept = append(kept, torn)
	if err := os.WriteFile(filepath.Join(dir, "journal.jsonl"), []byte(strings.Join(kept, "\n")), 0o644); err != nil {
		t.Fatal(err)
	}

	// The next service must recover the job as pending, resume it without
	// being asked, skip the surviving verdict, and converge on the same set.
	st2, err := store.Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	s2, err := New(st2, Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer s2.Close(context.Background())
	resumed := waitBisect(t, s2, job.ID, 2*time.Minute)
	if resumed.State != StateDone {
		t.Fatalf("resumed job: %+v", resumed)
	}
	if resumed.SkippedCases != 1 {
		t.Fatalf("skipped %d verdicts, want the 1 journaled one: %+v", resumed.SkippedCases, resumed)
	}
	if m := s2.Metrics(); m.JobsSkipped == 0 {
		t.Fatalf("metrics show no journal reuse: %+v", m)
	}
	got, err := s2.BisectResult(job.ID)
	if err != nil {
		t.Fatal(err)
	}
	gotJSON, _ := json.Marshal(got)
	if string(gotJSON) != string(baseJSON) {
		t.Fatalf("bisect set diverged after torn-journal resume:\n%s\nvs uninterrupted\n%s", gotJSON, baseJSON)
	}
}
