package cluster

import (
	"bytes"
	"context"
	"encoding/json"
	"net/http"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"
	"time"

	"spirvfuzz/internal/corpus"
	"spirvfuzz/internal/replay"
	"spirvfuzz/internal/runner"
	"spirvfuzz/internal/service"
	"spirvfuzz/internal/store"
)

// withoutRunCounters zeroes the status fields that describe one process's
// run rather than the campaign: the journal-skip and memo counters.
func withoutRunCounters(st service.CampaignStatus) service.CampaignStatus {
	st.SkippedTests, st.SkippedReductions = 0, 0
	st.MemoHits, st.MemoMisses = 0, 0
	return st
}

// waitFor polls cond until it holds, failing the test after two minutes.
func waitFor(t *testing.T, what string, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(2 * time.Minute)
	for !cond() {
		if time.Now().After(deadline) {
			t.Fatalf("timed out waiting for %s", what)
		}
		time.Sleep(2 * time.Millisecond)
	}
}

// forceClose drains a service at once: in-flight steps are canceled and left
// unjournaled, the on-disk state a killed daemon leaves.
func forceClose(svc *service.Service) {
	expired, cancel := context.WithDeadline(context.Background(), time.Now())
	cancel()
	svc.Close(expired)
}

// TestJournalPortableAcrossRoles: both spirvd roles write one journal, so
// either can finish what the other started. A standalone service
// interrupted mid-reduction is finished by a coordinator with sim workers;
// a cluster interrupted mid-reduction is finished by a standalone service,
// which then starts a bisection job a cluster finishes. Buckets and the
// bisection set must match the single-node references bitwise.
func TestJournalPortableAcrossRoles(t *testing.T) {
	if testing.Short() {
		t.Skip("multi-second cluster test")
	}
	wantBuckets := referenceBuckets(t)
	wantBisect := referenceBisect(t)
	spec := testSpec()
	spec.ReduceSlowdownMS = 10 // keep the reduce phase open for the interruption

	t.Run("service-to-coordinator", func(t *testing.T) {
		dir := t.TempDir()
		st, err := store.Open(dir)
		if err != nil {
			t.Fatal(err)
		}
		svc, err := service.New(st, service.Options{Workers: 2})
		if err != nil {
			t.Fatal(err)
		}
		status, err := svc.CreateCampaign(spec)
		if err != nil {
			t.Fatal(err)
		}
		waitFor(t, "a reduction on the service", func() bool {
			cst, _ := svc.Campaign(status.ID)
			return cst.Reduced >= 1
		})
		forceClose(svc)

		st2, err := store.Open(dir)
		if err != nil {
			t.Fatal(err)
		}
		defer st2.Close()
		co, err := NewCoordinator(st2, testOpts())
		if err != nil {
			t.Fatalf("coordinator over a service journal: %v", err)
		}
		defer co.Close()
		sim, err := StartSim(co, 3, t.TempDir(), 2)
		if err != nil {
			t.Fatal(err)
		}
		defer sim.Stop()
		if err := waitDone(func() (service.CampaignStatus, bool) { return co.Campaign(status.ID) }); err != nil {
			t.Fatal(err)
		}
		if got := clusterBuckets(t, co, status.ID); !bytes.Equal(got, wantBuckets) {
			t.Fatalf("buckets differ from single-node run:\n got %s\nwant %s", got, wantBuckets)
		}
	})

	t.Run("coordinator-to-service", func(t *testing.T) {
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
		status, err := co.CreateCampaign(spec)
		if err != nil {
			t.Fatal(err)
		}
		waitFor(t, "a reduction on the cluster", func() bool {
			cst, _ := co.Campaign(status.ID)
			return cst.Reduced >= 1
		})
		sim.Stop()
		co.Close()
		st.Close()

		st2, err := store.Open(dir)
		if err != nil {
			t.Fatal(err)
		}
		svc, err := service.New(st2, service.Options{Workers: 2})
		if err != nil {
			t.Fatalf("service over a coordinator journal: %v", err)
		}
		if err := waitDone(func() (service.CampaignStatus, bool) { return svc.Campaign(status.ID) }); err != nil {
			t.Fatal(err)
		}
		sets, err := svc.Buckets(status.ID)
		if err != nil {
			t.Fatal(err)
		}
		if got, _ := json.Marshal(sets); !bytes.Equal(got, wantBuckets) {
			t.Fatalf("buckets differ from single-node run:\n got %s\nwant %s", got, wantBuckets)
		}
		job, err := svc.CreateBisect(service.BisectSpec{Campaign: status.ID})
		if err != nil {
			t.Fatal(err)
		}
		waitFor(t, "a verdict on the service", func() bool {
			js, _ := svc.BisectJob(job.ID)
			return js.CasesDone >= 1
		})
		forceClose(svc)

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
		sim3, err := StartSim(co3, 3, t.TempDir(), 2)
		if err != nil {
			t.Fatal(err)
		}
		defer sim3.Stop()
		if err := waitBisectDone(func() (service.BisectStatus, bool) { return co3.BisectJob(job.ID) }); err != nil {
			t.Fatal(err)
		}
		set, err := co3.BisectResult(job.ID)
		if err != nil {
			t.Fatal(err)
		}
		if got, _ := json.Marshal(set); !bytes.Equal(got, wantBisect) {
			t.Fatalf("bisect set differs from single-node run:\n got %s\nwant %s", got, wantBisect)
		}
	})
}

// honestWorker executes leased shards in the test process, against the
// coordinator's own store, and reports them through SyncBatch the way a
// worker's result push does.
type honestWorker struct {
	t    *testing.T
	co   *Coordinator
	env  service.Env
	refs []corpus.Item
}

func newHonestWorker(t *testing.T, co *Coordinator, st *store.Store) *honestWorker {
	return &honestWorker{
		t:    t,
		co:   co,
		env:  service.Env{Eng: runner.New(2), Reng: new(replay.Engine), Blobs: st},
		refs: corpus.References(),
	}
}

// runWhile leases and executes shards while cond holds.
func (w *honestWorker) runWhile(cond func() bool) {
	w.t.Helper()
	ctx := context.Background()
	for cond() {
		sh, ok := w.co.Next("honest")
		if !ok {
			// Units under another node's lease come back when it expires.
			time.Sleep(5 * time.Millisecond)
			continue
		}
		res := ShardResult{Campaign: sh.Campaign, Phase: sh.Phase, Index: sh.Index, Node: "honest"}
		switch sh.Phase {
		case service.PhaseFuzz:
			targets, err := service.ResolveTargets(sh.Spec.Targets)
			if err != nil {
				w.t.Fatal(err)
			}
			for i := sh.Lo; i < sh.Hi; i++ {
				bugs, err := service.FuzzStep(ctx, w.env, sh.Spec, targets, w.refs, corpus.Donors(), i)
				if err != nil {
					w.t.Fatal(err)
				}
				res.Tests = append(res.Tests, service.TestDone{Index: i, Bugs: bugs})
			}
		case service.PhaseReduce:
			for _, rc := range sh.Cases {
				rec, err := service.ReduceStep(ctx, w.env, sh.Campaign, sh.Spec, w.refs, rc)
				if err != nil {
					w.t.Fatal(err)
				}
				res.Reduced = append(res.Reduced, rec)
			}
		default:
			w.t.Fatalf("unexpected %s shard", sh.Phase)
		}
		if _, err := w.co.SyncBatch(syncRequest{Node: "honest", Result: &res}); err != nil {
			w.t.Fatalf("honest %s shard %d refused: %v", sh.Phase, sh.Index, err)
		}
	}
}

// TestCoordinatorRejectsForgedResults sends results naming units outside
// their campaign's current phase through SyncBatch: a test index past the
// spec, a negative one, a reduction while the campaign still fuzzes, and a
// reduction of a case the selection did not pick. Each must be a 400 that
// journals nothing and releases no lease. An empty or partial result naming
// a leased shard is accepted, and the shard's unrecorded units go back to
// the queue, since nothing else would re-dispatch them if their holder died.
// The campaign must still finish, from honest results, with the reference
// buckets.
func TestCoordinatorRejectsForgedResults(t *testing.T) {
	want := referenceBuckets(t)
	dir := t.TempDir()
	st, err := store.Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	co, err := NewCoordinator(st, testOpts())
	if err != nil {
		t.Fatal(err)
	}
	defer co.Close()
	spec := testSpec()
	status, err := co.CreateCampaign(spec)
	if err != nil {
		t.Fatal(err)
	}
	id := status.ID
	journal := filepath.Join(dir, "journal.jsonl")
	forge := func(what string, res ShardResult) {
		t.Helper()
		before, err := os.ReadFile(journal)
		if err != nil {
			t.Fatal(err)
		}
		res.Campaign, res.Node = id, "forger"
		_, err = co.SyncBatch(syncRequest{Node: "forger", Result: &res})
		if err == nil || syncStatus(err) != http.StatusBadRequest {
			t.Fatalf("%s: got %v, want a 400", what, err)
		}
		after, err := os.ReadFile(journal)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(before, after) {
			t.Fatalf("%s: journaled %q", what, after[len(before):])
		}
	}
	// A refused result also leaves the lease of the shard it names alone.
	leased, _ := co.Next("victim")
	forge("test index past the spec", ShardResult{Phase: service.PhaseFuzz, Index: leased.Index, Tests: []service.TestDone{{Index: spec.Tests}}})
	co.mu.Lock()
	_, held := co.leased[leased.Key()]
	co.mu.Unlock()
	if !held {
		t.Fatalf("refused result released the lease of shard %s", leased.Key())
	}
	forge("negative test index", ShardResult{Phase: service.PhaseFuzz, Tests: []service.TestDone{{Index: -1}}})
	forge("reduction while fuzzing", ShardResult{Phase: service.PhaseReduce, Reduced: []service.ReducedRec{{Case: id + "/seed0/Mesa"}}})

	w := newHonestWorker(t, co, st)
	requeued := func(what string, sh Shard, res ShardResult, want []int) {
		t.Helper()
		res.Campaign, res.Phase, res.Index, res.Node = id, sh.Phase, sh.Index, "forger"
		if _, err := co.SyncBatch(syncRequest{Result: &res}); err != nil {
			t.Fatalf("%s: %v", what, err)
		}
		co.mu.Lock()
		defer co.mu.Unlock()
		if _, held := co.leased[sh.Key()]; held {
			t.Fatalf("%s: lease of shard %s kept", what, sh.Key())
		}
		var got []int
		for _, u := range co.queue {
			if u.Job == id && u.Phase == service.PhaseFuzz && u.Index >= sh.Lo && u.Index < sh.Hi {
				got = append(got, u.Index)
			}
		}
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("%s: queued tests %v of shard %s, want %v", what, got, sh.Key(), want)
		}
	}
	requeued("empty result", leased, ShardResult{}, []int{leased.Lo, leased.Lo + 1})
	// The partial result's test is fuzzed before its shard is leased, so
	// the lease cannot expire in between.
	co.mu.Lock()
	next := co.queue[0].Index
	co.mu.Unlock()
	targets, err := service.ResolveTargets(status.Spec.Targets)
	if err != nil {
		t.Fatal(err)
	}
	bugs, err := service.FuzzStep(context.Background(), w.env, status.Spec, targets, w.refs, corpus.Donors(), next)
	if err != nil {
		t.Fatal(err)
	}
	partial, _ := co.Next("victim")
	if partial.Lo != next || partial.Hi != next+2 {
		t.Fatalf("leased shard [%d, %d), want [%d, %d)", partial.Lo, partial.Hi, next, next+2)
	}
	requeued("partial result", partial, ShardResult{Tests: []service.TestDone{{Index: next, Bugs: bugs}}}, []int{next + 1})
	w.runWhile(func() bool {
		cst, _ := co.Campaign(id)
		return cst.State == service.StateFuzzing
	})
	if cst, _ := co.Campaign(id); cst.State != service.StateReducing || cst.TestsDone != spec.Tests {
		t.Fatalf("after the fuzz phase: %+v", cst)
	}
	forge("unselected case", ShardResult{Phase: service.PhaseReduce, Reduced: []service.ReducedRec{{Case: id + "/seed999999/Mesa"}}})
	w.runWhile(func() bool {
		cst, _ := co.Campaign(id)
		return cst.State == service.StateReducing
	})
	cst, _ := co.Campaign(id)
	if cst.State != service.StateDone || cst.Reduced != cst.ReduceTotal || cst.ReduceTotal == 0 {
		t.Fatalf("campaign after honest results: %+v", cst)
	}
	if got := clusterBuckets(t, co, id); !bytes.Equal(got, want) {
		t.Fatalf("buckets differ from single-node run:\n got %s\nwant %s", got, want)
	}

	// A forged bug passes the index check: its test_done names a signature
	// the sequence does not trigger. The worker that reduces the selected
	// case reports the error instead of crashing, the campaign fails naming
	// the case, and the coordinator and its workers finish the next campaign.
	fstatus, err := co.CreateCampaign(spec)
	if err != nil {
		t.Fatal(err)
	}
	fid := fstatus.ID
	sh, ok := co.Next("forger")
	if !ok || sh.Campaign != fid || sh.Phase != service.PhaseFuzz {
		t.Fatalf("leased %+v, want a fuzz shard of %s", sh, fid)
	}
	// The forged record claims, for the shard's first test, the first real
	// bug of the spec under a signature nothing crashes with.
	var bug service.BugRef
	for i := 0; i < spec.Tests && bug.SeqHash == ""; i++ {
		bugs, err := service.FuzzStep(context.Background(), w.env, fstatus.Spec, targets, w.refs, corpus.Donors(), i)
		if err != nil {
			t.Fatal(err)
		}
		if len(bugs) > 0 {
			bug = bugs[0]
		}
	}
	if bug.SeqHash == "" {
		t.Fatal("the spec finds no bug to forge")
	}
	bug.Seed, bug.Signature = fstatus.Spec.SeedBase+int64(sh.Lo), "no such crash"
	forged := service.CaseName(fid, bug)
	res := ShardResult{Campaign: fid, Phase: sh.Phase, Index: sh.Index, Node: "forger"}
	for i := sh.Lo; i < sh.Hi; i++ {
		res.Tests = append(res.Tests, service.TestDone{Index: i})
	}
	res.Tests[0].Bugs = []service.BugRef{bug}
	if _, err := co.SyncBatch(syncRequest{Result: &res}); err != nil {
		t.Fatalf("forged bug: %v", err)
	}
	sim, err := StartSim(co, 2, t.TempDir(), 2)
	if err != nil {
		t.Fatal(err)
	}
	defer sim.Stop()
	err = waitDone(func() (service.CampaignStatus, bool) { return co.Campaign(fid) })
	if err == nil || !strings.Contains(err.Error(), forged) {
		t.Fatalf("campaign with a forged bug: %v, want a failure naming %s", err, forged)
	}
	again, err := co.CreateCampaign(spec)
	if err != nil {
		t.Fatal(err)
	}
	if err := waitDone(func() (service.CampaignStatus, bool) { return co.Campaign(again.ID) }); err != nil {
		t.Fatalf("campaign after the forged one: %v", err)
	}
}

// TestCoordinatorCreateFailsWithoutJournal: a create whose record cannot be
// journaled fails and registers nothing, so no job is listed that would
// never run.
func TestCoordinatorCreateFailsWithoutJournal(t *testing.T) {
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
	sim, err := StartSim(co, 2, t.TempDir(), 2)
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
	if err := st.Journal().Close(); err != nil {
		t.Fatal(err)
	}
	if _, err := co.CreateCampaign(testSpec()); err == nil {
		t.Fatal("campaign created without a journal")
	}
	if got := co.Campaigns(); len(got) != 1 {
		t.Fatalf("unjournaled campaign listed: %+v", got)
	}
	if _, err := co.CreateBisect(service.BisectSpec{Campaign: status.ID}); err == nil {
		t.Fatal("bisect job created without a journal")
	}
	if got := co.BisectJobs(); len(got) != 0 {
		t.Fatalf("unjournaled bisect job listed: %+v", got)
	}
}
