package cluster

import (
	"bytes"
	"context"
	"encoding/json"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"sync"
	"testing"
	"time"

	"spirvfuzz/internal/service"
	"spirvfuzz/internal/store"
)

// testSpec is the canonical campaign every cluster test runs: small enough
// to finish in seconds, large enough to produce bugs on several targets and
// exercise both phases across multiple shards.
func testSpec() service.CampaignSpec {
	return service.CampaignSpec{Tests: 12}
}

// testOpts shards finely and leases briefly, so a handful of tests exercise
// dispatch, locality, and requeue for real.
func testOpts() Options {
	return Options{ShardTests: 2, ShardCases: 1, LeaseTTL: 300 * time.Millisecond}
}

var (
	refOnce    sync.Once
	refBuckets []byte
	refErr     error
)

// referenceBuckets runs testSpec once on the single-node service and returns
// the canonical bucket JSON every cluster configuration must reproduce
// bitwise. Computed lazily and shared across tests.
func referenceBuckets(t *testing.T) []byte {
	t.Helper()
	refOnce.Do(func() {
		dir, err := os.MkdirTemp("", "cluster-ref-*")
		if err != nil {
			refErr = err
			return
		}
		defer os.RemoveAll(dir)
		st, err := store.Open(dir)
		if err != nil {
			refErr = err
			return
		}
		svc, err := service.New(st, service.Options{Workers: 4})
		if err != nil {
			refErr = err
			return
		}
		defer svc.Close(context.Background())
		status, err := svc.CreateCampaign(testSpec())
		if err != nil {
			refErr = err
			return
		}
		if err := waitDone(func() (service.CampaignStatus, bool) { return svc.Campaign(status.ID) }); err != nil {
			refErr = err
			return
		}
		sets, err := svc.Buckets(status.ID)
		if err != nil {
			refErr = err
			return
		}
		refBuckets, refErr = json.Marshal(sets)
	})
	if refErr != nil {
		t.Fatalf("single-node reference run: %v", refErr)
	}
	return refBuckets
}

type statusFn func() (service.CampaignStatus, bool)

// waitDone polls a campaign status until done (or failed / timed out).
func waitDone(get statusFn) error {
	deadline := time.Now().Add(180 * time.Second)
	for time.Now().Before(deadline) {
		st, ok := get()
		if ok {
			switch st.State {
			case service.StateDone:
				return nil
			case service.StateFailed:
				return errAsFailure(st)
			}
		}
		time.Sleep(10 * time.Millisecond)
	}
	return context.DeadlineExceeded
}

func errAsFailure(st service.CampaignStatus) error {
	return &campaignFailedError{st.Error}
}

type campaignFailedError struct{ msg string }

func (e *campaignFailedError) Error() string { return "campaign failed: " + e.msg }

func clusterBuckets(t *testing.T, co *Coordinator, id string) []byte {
	t.Helper()
	sets, err := co.Buckets(id)
	if err != nil {
		t.Fatalf("Buckets: %v", err)
	}
	data, err := json.Marshal(sets)
	if err != nil {
		t.Fatalf("marshal buckets: %v", err)
	}
	return data
}

// TestClusterMatchesSingleNode is the core merge-soundness claim: a 3-node
// simulated cluster produces buckets bitwise-identical to a single-node run
// of the same campaign, with some referenced blob bytes deduplicated by the
// hash negotiation. How many depends on which node reduces which case;
// TestSyncFetchesOnlyMissingBlobs pins the property exactly on one node.
func TestClusterMatchesSingleNode(t *testing.T) {
	want := referenceBuckets(t)

	st, err := store.Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	co, err := NewCoordinator(st, testOpts())
	if err != nil {
		t.Fatal(err)
	}
	defer co.Close()
	sim, err := StartSim(co, 3, t.TempDir(), 2)
	if err != nil {
		t.Fatal(err)
	}
	defer sim.Stop()

	status, err := co.CreateCampaign(testSpec())
	if err != nil {
		t.Fatal(err)
	}
	if err := waitDone(func() (service.CampaignStatus, bool) { return co.Campaign(status.ID) }); err != nil {
		t.Fatal(err)
	}
	if got := clusterBuckets(t, co, status.ID); !bytes.Equal(got, want) {
		t.Fatalf("3-node buckets differ from single-node run:\n got %s\nwant %s", got, want)
	}
	m := co.Metrics()
	if m.Cluster.ShardsCompleted == 0 || m.Cluster.ShardsDispatched < m.Cluster.ShardsCompleted {
		t.Fatalf("implausible shard counters: %+v", m.Cluster)
	}
	if m.Cluster.Sync.BlobsTransferred == 0 || m.Cluster.Sync.BytesReferenced == 0 {
		t.Fatalf("no blob sync traffic recorded: %+v", m.Cluster.Sync)
	}
	if frac := m.Cluster.BlobDedupFraction; frac <= 0 {
		t.Fatalf("blob dedup fraction %.2f, want > 0 (sync %+v)", frac, m.Cluster.Sync)
	}
	if m.Runner.Misses == 0 {
		t.Fatalf("merged runner stats show no executions: %+v", m.Runner)
	}
	if m.CampaignsDone != 1 {
		t.Fatalf("CampaignsDone = %d, want 1", m.CampaignsDone)
	}
}

// TestSyncFetchesOnlyMissingBlobs: a worker fetches only the blobs its
// store lacks. On one node every sequence a reduce shard needs was fuzzed
// there, so the coordinator serves no blob at all, while the shards still
// reference them.
func TestSyncFetchesOnlyMissingBlobs(t *testing.T) {
	st, err := store.Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	co, err := NewCoordinator(st, testOpts())
	if err != nil {
		t.Fatal(err)
	}
	defer co.Close()
	sim, err := StartSim(co, 1, t.TempDir(), 2)
	if err != nil {
		t.Fatal(err)
	}
	defer sim.Stop()
	status, err := co.CreateCampaign(testSpec())
	if err != nil {
		t.Fatal(err)
	}
	if err := waitDone(func() (service.CampaignStatus, bool) { return co.Campaign(status.ID) }); err != nil {
		t.Fatal(err)
	}
	m := co.Metrics()
	if m.Cluster.Sync.BlobsReferenced == 0 || m.Store.SyncBlobsIn == 0 {
		t.Fatalf("no blob sync traffic recorded: %+v", m.Cluster.Sync)
	}
	if m.Store.SyncBlobsOut != 0 {
		t.Fatalf("the node fetched %d blobs it produced itself: %+v", m.Store.SyncBlobsOut, m.Cluster.Sync)
	}
}

// TestClusterKillRejoin SIGKILLs (in-process: hard-cancels) a worker that
// holds a reduce-shard lease, lets a cold new node join, and requires the
// converged buckets to still be bitwise-identical to the single-node run —
// the degraded-cluster half of the acceptance criteria.
func TestClusterKillRejoin(t *testing.T) {
	want := referenceBuckets(t)

	st, err := store.Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	co, err := NewCoordinator(st, testOpts())
	if err != nil {
		t.Fatal(err)
	}
	defer co.Close()
	sim, err := StartSim(co, 3, t.TempDir(), 2)
	if err != nil {
		t.Fatal(err)
	}
	defer sim.Stop()

	spec := testSpec()
	spec.ReduceSlowdownMS = 25 // stretch reductions so the kill lands mid-shard
	status, err := co.CreateCampaign(spec)
	if err != nil {
		t.Fatal(err)
	}

	// Wait until some node is mid-reduction (holds a reduce lease), then
	// kill exactly that node.
	victim := ""
	deadline := time.Now().Add(120 * time.Second)
	for victim == "" && time.Now().Before(deadline) {
		co.mu.Lock()
		for _, ss := range co.leased {
			if ss.phase == service.PhaseReduce {
				victim = ss.node
				break
			}
		}
		co.mu.Unlock()
		if victim == "" {
			if cst, _ := co.Campaign(status.ID); cst.State == service.StateDone {
				t.Fatalf("campaign finished before a reduce lease was observed; slow down the spec")
			}
			time.Sleep(5 * time.Millisecond)
		}
	}
	if victim == "" {
		t.Fatalf("no reduce lease observed before timeout")
	}
	sim.KillWorker(victim)
	if _, err := sim.AddWorker(); err != nil {
		t.Fatal(err)
	}

	if err := waitDone(func() (service.CampaignStatus, bool) { return co.Campaign(status.ID) }); err != nil {
		t.Fatal(err)
	}
	if got := clusterBuckets(t, co, status.ID); !bytes.Equal(got, want) {
		t.Fatalf("post-kill buckets differ from single-node run:\n got %s\nwant %s", got, want)
	}
	if m := co.Metrics(); m.Cluster.ShardsRequeued == 0 {
		t.Fatalf("killed a leased node but no shard was requeued: %+v", m.Cluster)
	}
}

// TestCoordinatorResumeTornTail kills the whole cluster mid-campaign,
// corrupts the journal with a torn trailing record (the on-disk state a
// SIGKILL mid-append leaves), and restarts the coordinator with fresh
// workers: journaled shards must be skipped, the torn record discarded, and
// the converged buckets bitwise-identical to the single-node run.
func TestCoordinatorResumeTornTail(t *testing.T) {
	want := referenceBuckets(t)

	dir := t.TempDir()
	st, err := store.Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	co, err := NewCoordinator(st, testOpts())
	if err != nil {
		t.Fatal(err)
	}
	sim, err := StartSim(co, 3, t.TempDir(), 2)
	if err != nil {
		t.Fatal(err)
	}

	spec := testSpec()
	spec.ReduceSlowdownMS = 25
	status, err := co.CreateCampaign(spec)
	if err != nil {
		t.Fatal(err)
	}
	// Let the campaign get partway: all fuzz shards plus at least one
	// reduction journaled.
	deadline := time.Now().Add(120 * time.Second)
	for time.Now().Before(deadline) {
		cst, _ := co.Campaign(status.ID)
		if cst.Reduced >= 1 {
			break
		}
		if cst.State == service.StateDone {
			t.Fatalf("campaign finished before the interruption point")
		}
		time.Sleep(5 * time.Millisecond)
	}

	// Kill everything, then tear the journal tail.
	sim.Stop()
	co.Close()
	st.Close()
	f, err := os.OpenFile(filepath.Join(dir, "journal.jsonl"), os.O_APPEND|os.O_WRONLY, 0o644)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.WriteString(`{"seq":999999,"campaign":"c001","type":"reduced","data":{"case":"c0`); err != nil {
		t.Fatal(err)
	}
	f.Close()

	st2, err := store.Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer st2.Close()
	co2, err := NewCoordinator(st2, testOpts())
	if err != nil {
		t.Fatalf("reopen over torn journal: %v", err)
	}
	defer co2.Close()
	cst, ok := co2.Campaign(status.ID)
	if !ok {
		t.Fatalf("campaign lost across restart")
	}
	if cst.SkippedTests == 0 && cst.SkippedReductions == 0 {
		t.Fatalf("restart skipped nothing; journal replay is not reusing shards: %+v", cst)
	}
	sim2, err := StartSim(co2, 3, t.TempDir(), 2)
	if err != nil {
		t.Fatal(err)
	}
	defer sim2.Stop()
	if err := waitDone(func() (service.CampaignStatus, bool) { return co2.Campaign(status.ID) }); err != nil {
		t.Fatal(err)
	}
	if got := clusterBuckets(t, co2, status.ID); !bytes.Equal(got, want) {
		t.Fatalf("resumed buckets differ from single-node run:\n got %s\nwant %s", got, want)
	}
	if m := co2.Metrics(); m.JobsSkipped == 0 {
		t.Fatalf("resume reported no skipped steps")
	}
}

// TestCoordinatorKilledMidMerge models a coordinator killed between the last
// shard result and the campaign_done record: every shard is journaled, the
// completion record is gone, and the tail is torn.
// Recovery must rebuild the identical buckets from the journal alone,
// without any workers.
func TestCoordinatorKilledMidMerge(t *testing.T) {
	want := referenceBuckets(t)

	dir := t.TempDir()
	st, err := store.Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	co, err := NewCoordinator(st, testOpts())
	if err != nil {
		t.Fatal(err)
	}
	sim, err := StartSim(co, 3, t.TempDir(), 2)
	if err != nil {
		t.Fatal(err)
	}
	status, err := co.CreateCampaign(testSpec())
	if err != nil {
		t.Fatal(err)
	}
	if err := waitDone(func() (service.CampaignStatus, bool) { return co.Campaign(status.ID) }); err != nil {
		t.Fatal(err)
	}
	sim.Stop()
	done, _ := co.Campaign(status.ID)
	co.Close()
	st.Close()

	// Strip the campaign_done record and tear the tail.
	jpath := filepath.Join(dir, "journal.jsonl")
	data, err := os.ReadFile(jpath)
	if err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimRight(string(data), "\n"), "\n")
	kept := lines[:0]
	for _, ln := range lines {
		if strings.Contains(ln, `"type":"campaign_done"`) {
			continue
		}
		kept = append(kept, ln)
	}
	out := strings.Join(kept, "\n") + "\n" + `{"seq":999999,"campaign":"c001","type":"campaign_do`
	if err := os.WriteFile(jpath, []byte(out), 0o644); err != nil {
		t.Fatal(err)
	}

	st2, err := store.Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer st2.Close()
	co2, err := NewCoordinator(st2, testOpts())
	if err != nil {
		t.Fatalf("reopen after mid-merge kill: %v", err)
	}
	defer co2.Close()
	cst, ok := co2.Campaign(status.ID)
	if !ok || cst.State != service.StateDone {
		t.Fatalf("campaign did not re-merge from the journal: %+v", cst)
	}
	if !reflect.DeepEqual(withoutRunCounters(cst), withoutRunCounters(done)) {
		t.Fatalf("status changed across the restart:\n got %+v\nwant %+v", cst, done)
	}
	if got := clusterBuckets(t, co2, status.ID); !bytes.Equal(got, want) {
		t.Fatalf("re-merged buckets differ from single-node run:\n got %s\nwant %s", got, want)
	}

	// A second restart finds the re-merge's campaign_done and serves the
	// campaign done, with the same status.
	co2.Close()
	st2.Close()
	st3, err := store.Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer st3.Close()
	co3, err := NewCoordinator(st3, testOpts())
	if err != nil {
		t.Fatal(err)
	}
	defer co3.Close()
	if cst, _ := co3.Campaign(status.ID); !reflect.DeepEqual(withoutRunCounters(cst), withoutRunCounters(done)) {
		t.Fatalf("status changed across a second restart:\n got %+v\nwant %+v", cst, done)
	}
}

// referenceBisect runs testSpec plus a bisection job once on the single-node
// service and returns the canonical BisectSet JSON. Shared like
// referenceBuckets.
var (
	refBisectOnce sync.Once
	refBisect     []byte
	refBisectErr  error
)

func referenceBisect(t *testing.T) []byte {
	t.Helper()
	refBisectOnce.Do(func() {
		dir, err := os.MkdirTemp("", "cluster-bisect-ref-*")
		if err != nil {
			refBisectErr = err
			return
		}
		defer os.RemoveAll(dir)
		st, err := store.Open(dir)
		if err != nil {
			refBisectErr = err
			return
		}
		svc, err := service.New(st, service.Options{Workers: 4})
		if err != nil {
			refBisectErr = err
			return
		}
		defer svc.Close(context.Background())
		status, err := svc.CreateCampaign(testSpec())
		if err != nil {
			refBisectErr = err
			return
		}
		if err := waitDone(func() (service.CampaignStatus, bool) { return svc.Campaign(status.ID) }); err != nil {
			refBisectErr = err
			return
		}
		job, err := svc.CreateBisect(service.BisectSpec{Campaign: status.ID})
		if err != nil {
			refBisectErr = err
			return
		}
		if err := waitBisectDone(func() (service.BisectStatus, bool) { return svc.BisectJob(job.ID) }); err != nil {
			refBisectErr = err
			return
		}
		set, err := svc.BisectResult(job.ID)
		if err != nil {
			refBisectErr = err
			return
		}
		refBisect, refBisectErr = json.Marshal(set)
	})
	if refBisectErr != nil {
		t.Fatalf("single-node reference bisection: %v", refBisectErr)
	}
	return refBisect
}

// waitBisectDone polls a bisect-job status until done (or failed/timed out).
func waitBisectDone(get func() (service.BisectStatus, bool)) error {
	deadline := time.Now().Add(180 * time.Second)
	for time.Now().Before(deadline) {
		st, ok := get()
		if ok {
			switch st.State {
			case service.StateDone:
				return nil
			case service.StateFailed:
				return &campaignFailedError{st.Error}
			}
		}
		time.Sleep(10 * time.Millisecond)
	}
	return context.DeadlineExceeded
}

// TestClusterBisectMatchesSingleNode extends the merge-soundness claim to the
// second dedup signal: a bisection job sharded one case group at a time over
// a 3-node cluster converges on a BisectSet bitwise-identical to the
// single-node service's, and the coordinator surfaces the jobs and probe
// counters in its metrics.
func TestClusterBisectMatchesSingleNode(t *testing.T) {
	want := referenceBisect(t)

	st, err := store.Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	co, err := NewCoordinator(st, testOpts())
	if err != nil {
		t.Fatal(err)
	}
	defer co.Close()
	sim, err := StartSim(co, 3, t.TempDir(), 2)
	if err != nil {
		t.Fatal(err)
	}
	defer sim.Stop()

	status, err := co.CreateCampaign(testSpec())
	if err != nil {
		t.Fatal(err)
	}
	// A bisect job cannot target a campaign that is still running.
	if _, err := co.CreateBisect(service.BisectSpec{Campaign: status.ID}); err == nil {
		t.Fatal("bisect of a running campaign accepted")
	}
	if err := waitDone(func() (service.CampaignStatus, bool) { return co.Campaign(status.ID) }); err != nil {
		t.Fatal(err)
	}
	job, err := co.CreateBisect(service.BisectSpec{Campaign: status.ID})
	if err != nil {
		t.Fatal(err)
	}
	if err := waitBisectDone(func() (service.BisectStatus, bool) { return co.BisectJob(job.ID) }); err != nil {
		t.Fatal(err)
	}
	set, err := co.BisectResult(job.ID)
	if err != nil {
		t.Fatal(err)
	}
	got, err := json.Marshal(set)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want) {
		t.Fatalf("3-node bisect set differs from single-node run:\n got %s\nwant %s", got, want)
	}
	m := co.Metrics()
	if m.BisectJobs != 1 || m.BisectJobsDone != 1 {
		t.Fatalf("bisect job counters: %+v", m)
	}
	if m.Bisect.Bisections == 0 || m.Bisect.Queries == 0 {
		t.Fatalf("no bisection probes recorded: %+v", m.Bisect)
	}
	if m.Bisect.HitFraction() < 0.5 {
		t.Fatalf("cluster bisect cache-hit fraction %.2f, want >= 0.5 (%+v)", m.Bisect.HitFraction(), m.Bisect)
	}
}
