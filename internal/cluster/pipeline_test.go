package cluster

import (
	"bytes"
	"compress/gzip"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"runtime"
	"testing"
	"time"

	"spirvfuzz/internal/memostore"
	"spirvfuzz/internal/service"
	"spirvfuzz/internal/store"
)

// TestClusterPipelineIdentityMatrix is the transport property test: the
// pipelined transport (prefetch, batched gzip sync, adaptive shards) must
// produce buckets and a bisect set bitwise-identical to the single-node
// service at any node count. The transport moves bytes and overlaps waits;
// it is never allowed to change results. The "pipelined" rows cut shards of
// 2 tests and 1 case, enough per node that some arrive prefetched; the
// "defaults" rows leave the caps unset, as spirvd does, so one reduce or
// bisect shard carries several cases and a node may see a single shard; the
// "wide-reduce" rows spread the fuzz phase over every node in 2-test shards
// and then cut reduce and bisect shards at the default case cap, so one
// shard needs blobs that several nodes produced.
func TestClusterPipelineIdentityMatrix(t *testing.T) {
	if testing.Short() {
		t.Skip("multi-second cluster test")
	}
	want := referenceBuckets(t)
	wantBisect := referenceBisect(t)
	for _, cfg := range []struct {
		name     string
		opts     Options
		prefetch bool
	}{
		{"pipelined", testOpts(), true},
		{"defaults", Options{}, false},
		{"wide-reduce", Options{ShardTests: 2, ShardCases: DefaultShardCases}, false},
	} {
		for _, nodes := range []int{1, 3} {
			cfg, nodes := cfg, nodes
			t.Run(fmt.Sprintf("%s-%dnode", cfg.name, nodes), func(t *testing.T) {
				t.Parallel()
				st, err := store.Open(t.TempDir())
				if err != nil {
					t.Fatal(err)
				}
				defer st.Close()
				opts := cfg.opts
				opts.AdaptiveShards = true
				co, err := NewCoordinator(st, opts)
				if err != nil {
					t.Fatal(err)
				}
				defer co.Close()
				sim, err := StartSim(co, nodes, t.TempDir(), 2)
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
					t.Fatalf("%d-node buckets differ from single-node run:\n got %s\nwant %s", nodes, got, want)
				}
				m := co.Metrics()
				if m.Cluster.Sync.RoundTrips == 0 {
					t.Fatalf("no round trips counted: %+v", m.Cluster.Sync)
				}
				if cfg.prefetch && m.Cluster.Sync.Prefetched == 0 {
					t.Fatalf("no shard arrived prefetched: %+v", m.Cluster.Sync)
				}
				if len(m.Cluster.Sizing) == 0 {
					t.Fatalf("adaptive sizing reported no phases: %+v", m.Cluster)
				}
				for _, sz := range m.Cluster.Sizing {
					if sz.Size < 1 || sz.Size > sz.MaxSize {
						t.Fatalf("sizing out of bounds: %+v", sz)
					}
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
				if got, err := json.Marshal(set); err != nil {
					t.Fatal(err)
				} else if !bytes.Equal(got, wantBisect) {
					t.Fatalf("%d-node bisect set differs from single-node run:\n got %s\nwant %s", nodes, got, wantBisect)
				}
			})
		}
	}
}

// TestDefaultShardsLeaseSizes: with the caps unset, a lease takes up to
// DefaultShardTests consecutive tests of one campaign, so a 24-test
// campaign goes out whole and a 40-test one as 32 then 8.
func TestDefaultShardsLeaseSizes(t *testing.T) {
	st, err := store.Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	co, err := NewCoordinator(st, Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer co.Close()
	for _, tests := range []int{24, 40} {
		if _, err := co.CreateCampaign(service.CampaignSpec{Tests: tests}); err != nil {
			t.Fatal(err)
		}
	}
	var got []int
	for {
		sh, ok := co.Next("solo")
		if !ok {
			break
		}
		got = append(got, sh.Hi-sh.Lo)
	}
	if want := []int{24, DefaultShardTests, 40 - DefaultShardTests}; fmt.Sprint(got) != fmt.Sprint(want) {
		t.Fatalf("lease sizes %v, want %v", got, want)
	}
}

// TestClusterKillRejoinMidPrefetch kills a worker at a moment it provably
// holds two leases — the executing shard and a prefetched one — then adds a
// fresh node. Both in-flight shards must expire, re-queue, re-execute, and
// the final buckets must stay bitwise-identical to the single-node run.
func TestClusterKillRejoinMidPrefetch(t *testing.T) {
	if testing.Short() {
		t.Skip("multi-second cluster test")
	}
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
	sim, err := StartSim(co, 2, t.TempDir(), 2)
	if err != nil {
		t.Fatal(err)
	}
	defer sim.Stop()

	spec := testSpec()
	// Stretch both phases so executions outlast the kill window and the
	// prefetched shard is still unreported when the victim dies.
	spec.FuzzSlowdownMS = 20
	spec.ReduceSlowdownMS = 20
	status, err := co.CreateCampaign(spec)
	if err != nil {
		t.Fatal(err)
	}

	// Wait until some node holds at least two leases (one executing, one
	// prefetched), then kill exactly that node.
	victim := ""
	deadline := time.Now().Add(120 * time.Second)
	for victim == "" && time.Now().Before(deadline) {
		co.mu.Lock()
		held := map[string]int{}
		for _, ss := range co.leased {
			held[ss.node]++
		}
		for node, n := range held {
			if n >= 2 {
				victim = node
				break
			}
		}
		co.mu.Unlock()
		if victim == "" {
			time.Sleep(2 * time.Millisecond)
		}
	}
	if victim == "" {
		t.Fatalf("no node ever held two leases before timeout")
	}
	sim.KillWorker(victim)
	if _, err := sim.AddWorker(); err != nil {
		t.Fatal(err)
	}

	if err := waitDone(func() (service.CampaignStatus, bool) { return co.Campaign(status.ID) }); err != nil {
		t.Fatal(err)
	}
	if got := clusterBuckets(t, co, status.ID); !bytes.Equal(got, want) {
		t.Fatalf("buckets after mid-prefetch kill differ from single-node run:\n got %s\nwant %s", got, want)
	}
	m := co.Metrics()
	if m.Cluster.ShardsRequeued == 0 {
		t.Fatalf("killed a double-leased node but nothing re-queued: %+v", m.Cluster)
	}
	if m.Cluster.Sync.Prefetched == 0 {
		t.Fatalf("prefetch on but no shard arrived prefetched: %+v", m.Cluster.Sync)
	}
}

// TestClusterLeaseStealDuplicateDropped force-expires a reduce lease while
// the owner is mid-execution, so the shard is stolen and executed twice. The
// coordinator must drop the extra result (records already merged) and the
// buckets must stay bitwise-identical.
func TestClusterLeaseStealDuplicateDropped(t *testing.T) {
	if testing.Short() {
		t.Skip("multi-second cluster test")
	}
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
	sim, err := StartSim(co, 2, t.TempDir(), 2)
	if err != nil {
		t.Fatal(err)
	}
	defer sim.Stop()

	spec := testSpec()
	spec.ReduceSlowdownMS = 30 // keep the owner busy while the lease is stolen
	status, err := co.CreateCampaign(spec)
	if err != nil {
		t.Fatal(err)
	}

	// Find a live reduce lease and expire it in place: the sweep re-queues
	// the shard while its owner is still executing it.
	stolen := false
	deadline := time.Now().Add(120 * time.Second)
	for !stolen && time.Now().Before(deadline) {
		co.mu.Lock()
		for _, ss := range co.leased {
			if ss.phase == service.PhaseReduce {
				ss.deadline = time.Now().Add(-time.Second)
				co.sweepLeases(time.Now())
				stolen = true
				break
			}
		}
		co.mu.Unlock()
		if !stolen {
			time.Sleep(2 * time.Millisecond)
		}
	}
	if !stolen {
		t.Fatalf("no reduce lease observed before timeout")
	}

	if err := waitDone(func() (service.CampaignStatus, bool) { return co.Campaign(status.ID) }); err != nil {
		t.Fatal(err)
	}
	if got := clusterBuckets(t, co, status.ID); !bytes.Equal(got, want) {
		t.Fatalf("buckets after lease steal differ from single-node run:\n got %s\nwant %s", got, want)
	}
	if m := co.Metrics(); m.Cluster.ShardsRequeued == 0 {
		t.Fatalf("stole a lease but nothing re-queued: %+v", m.Cluster)
	}
	// The robbed owner may still be mid-reduction when the campaign
	// finishes; its late report is the duplicate, so wait for it.
	dupDeadline := time.Now().Add(60 * time.Second)
	for {
		m := co.Metrics()
		if m.Cluster.ShardsDuplicate > 0 {
			break
		}
		if time.Now().After(dupDeadline) {
			t.Fatalf("shard executed twice but no duplicate result dropped: %+v", m.Cluster)
		}
		time.Sleep(5 * time.Millisecond)
	}
}

// TestWorkerIdleBackoff checks the jittered exponential idle backoff: delays
// grow from Poll toward PollMax, each sleep is jittered into [d/2, d), and
// work resets the ladder.
func TestWorkerIdleBackoff(t *testing.T) {
	w, err := NewWorker(WorkerOptions{
		Node: "backoff", Coordinator: "http://127.0.0.1:0",
		StoreDir: t.TempDir(),
		Poll:     4 * time.Millisecond, PollMax: 16 * time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer w.Close()
	ctx := context.Background()
	wantNext := []time.Duration{8, 16, 16, 16} // ms: doubling from Poll, capped
	for i, want := range wantNext {
		start := time.Now()
		if !w.idleSleep(ctx) {
			t.Fatal("idleSleep returned false with a live context")
		}
		slept := time.Since(start)
		prev := want * time.Millisecond / 2
		if i == 0 {
			prev = 4 * time.Millisecond
		}
		if slept < prev/2 {
			t.Fatalf("sleep %d: slept %v, want at least half of %v", i, slept, prev)
		}
		if w.idle != want*time.Millisecond {
			t.Fatalf("sleep %d: next delay %v, want %v", i, w.idle, want*time.Millisecond)
		}
	}
	w.gotWork()
	if w.idle != 0 {
		t.Fatalf("gotWork did not reset backoff: %v", w.idle)
	}
	canceled, cancel := context.WithCancel(context.Background())
	cancel()
	if w.idleSleep(canceled) {
		t.Fatal("idleSleep returned true with a canceled context")
	}
}

// TestTransportGzipRoundTrip drives postWire against a real coordinator mux
// and checks the negotiated compression and its accounting: a compressible
// blob push and fetch over /cluster/sync shrink on the wire in both
// directions, and a heartbeat, below the gzip size floor both ways, crosses
// the wire with wire bytes equal to raw bytes.
func TestTransportGzipRoundTrip(t *testing.T) {
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
	srv := httptest.NewServer(co.Mux())
	defer srv.Close()

	hc := newWorkerClient()
	ctx := context.Background()
	blob := bytes.Repeat([]byte("spirv-transform-sequence "), 1024) // highly compressible, ~25 KiB
	hash := store.HashBytes(blob)

	var upSync SyncStats
	if _, err := postWire(ctx, hc, srv.URL, "/cluster/sync", syncRequest{Node: "w", BlobPush: [][]byte{blob}}, &syncResponse{}, &upSync); err != nil {
		t.Fatal(err)
	}
	if !st.HasBlob(hash) {
		t.Fatalf("pushed blob %s not stored", hash)
	}
	if upSync.WireBytesOut >= upSync.RawBytesOut {
		t.Fatalf("compressible request did not shrink: wire %d raw %d", upSync.WireBytesOut, upSync.RawBytesOut)
	}

	var fetch syncResponse
	var downSync SyncStats
	if _, err := postWire(ctx, hc, srv.URL, "/cluster/sync", syncRequest{Node: "w", BlobFetch: []string{hash}}, &fetch, &downSync); err != nil {
		t.Fatal(err)
	}
	if len(fetch.Blobs) != 1 || !bytes.Equal(fetch.Blobs[0], blob) {
		t.Fatalf("fetched blob differs from stored blob")
	}
	if downSync.WireBytesIn >= downSync.RawBytesIn {
		t.Fatalf("compressible response did not shrink: wire %d raw %d", downSync.WireBytesIn, downSync.RawBytesIn)
	}

	var hbSync SyncStats
	if _, err := postWire(ctx, hc, srv.URL, "/cluster/heartbeat", nodeRequest{Node: "w"}, &okResponse{}, &hbSync); err != nil {
		t.Fatal(err)
	}
	if hbSync.RawBytesOut >= gzipMinBytes || hbSync.RawBytesIn >= gzipMinBytes {
		t.Fatalf("heartbeat bodies reached the gzip floor: %+v", hbSync)
	}
	if hbSync.WireBytesIn != hbSync.RawBytesIn || hbSync.WireBytesOut != hbSync.RawBytesOut {
		t.Fatalf("heartbeat below the gzip floor but wire != raw: %+v", hbSync)
	}
}

// TestWriteWireAcceptEncoding is the coordinator's side of compression
// negotiation, driven through its handler: a response above the gzip floor
// is gzip-coded exactly when the request's Accept-Encoding codings, across
// all its header lines, name gzip in any case — never with a weight of 0,
// never by a longer token that merely contains it. Either way the body
// decodes to the same blob.
func TestWriteWireAcceptEncoding(t *testing.T) {
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
	mux := co.Mux()
	blob := bytes.Repeat([]byte("spirv-transform-sequence "), 1024)
	hash, err := st.PutBlob(blob)
	if err != nil {
		t.Fatal(err)
	}
	fetch, err := json.Marshal(syncRequest{Node: "w", BlobFetch: []string{hash}})
	if err != nil {
		t.Fatal(err)
	}

	for _, tc := range []struct {
		accept []string
		gzip   bool
	}{
		{nil, false},
		{[]string{"gzip"}, true},
		{[]string{"GZip"}, true},
		{[]string{"identity, gzip"}, true},
		{[]string{"br;q=1.0, gzip;q=0.5"}, true},
		{[]string{"deflate", "gzip"}, true},
		{[]string{"gzip;q=0"}, false},
		{[]string{"gzip ; Q=0.000"}, false},
		{[]string{"gzip;q=0, *"}, false},
		{[]string{"deflate", "gzip;q=0"}, false},
		{[]string{"gzip;q=abc"}, false},
		{[]string{"x-gzip-foo"}, false},
		{[]string{"deflate, br"}, false},
		{[]string{""}, false},
	} {
		req := httptest.NewRequest("POST", "/cluster/sync", bytes.NewReader(fetch))
		for _, line := range tc.accept {
			req.Header.Add("Accept-Encoding", line)
		}
		rec := httptest.NewRecorder()
		mux.ServeHTTP(rec, req)
		if rec.Code != http.StatusOK {
			t.Fatalf("%q: status %d (%s)", tc.accept, rec.Code, rec.Body.String())
		}
		body := rec.Body.Bytes()
		if got := rec.Header().Get("Content-Encoding"); (got == "gzip") != tc.gzip || (got != "gzip" && got != "") {
			t.Fatalf("%q: Content-Encoding %q, want gzip %v", tc.accept, got, tc.gzip)
		}
		if tc.gzip {
			zr, err := gzip.NewReader(bytes.NewReader(body))
			if err != nil {
				t.Fatalf("%q: %v", tc.accept, err)
			}
			if body, err = io.ReadAll(zr); err != nil {
				t.Fatalf("%q: %v", tc.accept, err)
			}
		}
		var resp syncResponse
		if err := json.Unmarshal(body, &resp); err != nil || len(resp.Blobs) != 1 || !bytes.Equal(resp.Blobs[0], blob) {
			t.Fatalf("%q: response does not carry the blob (err %v)", tc.accept, err)
		}
	}
}

// TestSyncStatusCodes checks how /cluster/sync answers failing legs: a
// fetch of a blob the coordinator lacks is a 404; a malformed leg — a bad
// hash, a result for an unknown campaign or with an unknown phase, a bad
// memo key — is a 400.
func TestSyncStatusCodes(t *testing.T) {
	st, err := store.Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	hub, err := memostore.Open(t.TempDir(), 0)
	if err != nil {
		t.Fatal(err)
	}
	defer hub.Close()
	opts := testOpts()
	opts.Memo = hub
	co, err := NewCoordinator(st, opts)
	if err != nil {
		t.Fatal(err)
	}
	defer co.Close()
	created, err := co.CreateCampaign(testSpec())
	if err != nil {
		t.Fatal(err)
	}
	mux := co.Mux()

	for _, tc := range []struct {
		name string
		req  syncRequest
		want int
	}{
		{"missing blob", syncRequest{Node: "w", BlobFetch: []string{store.HashBytes([]byte("absent"))}}, http.StatusNotFound},
		{"malformed hash", syncRequest{Node: "w", BlobFetch: []string{"zz"}}, http.StatusBadRequest},
		{"unknown campaign", syncRequest{Node: "w", Result: &ShardResult{Campaign: "c999", Phase: service.PhaseFuzz}}, http.StatusBadRequest},
		{"unknown phase", syncRequest{Node: "w", Result: &ShardResult{Campaign: created.ID, Phase: "polish"}}, http.StatusBadRequest},
		{"bad memo key", syncRequest{Node: "w", MemoFetch: []string{"not-a-key"}}, http.StatusBadRequest},
	} {
		body, err := json.Marshal(tc.req)
		if err != nil {
			t.Fatal(err)
		}
		rec := httptest.NewRecorder()
		mux.ServeHTTP(rec, httptest.NewRequest("POST", "/cluster/sync", bytes.NewReader(body)))
		if rec.Code != tc.want {
			t.Fatalf("%s: status %d, want %d (%s)", tc.name, rec.Code, tc.want, rec.Body.String())
		}
	}
}

// gzipBomb returns a multistream gzip body of a few hundred KiB that
// inflates to 256 MiB of one JSON string, so it passes any raw-size cap of
// service.MaxBodyBytes and only a cap on the decoded stream stops it.
func gzipBomb(t *testing.T) []byte {
	t.Helper()
	// Concatenated gzip members form one valid multistream body.
	member := func(prefix string) []byte {
		var b bytes.Buffer
		zw, _ := gzip.NewWriterLevel(&b, gzip.BestCompression)
		zw.Write([]byte(prefix))
		zw.Write(bytes.Repeat([]byte("a"), 1<<20))
		zw.Close()
		return b.Bytes()
	}
	bomb := member(`{"node":"`)
	tail := member("")
	for i := 1; i < 256; i++ {
		bomb = append(bomb, tail...)
	}
	if len(bomb) >= service.MaxBodyBytes {
		t.Fatalf("bomb is %d bytes on the wire; it must pass the raw cap", len(bomb))
	}
	return bomb
}

// TestRequestBodyBounded posts oversized bodies to the worker protocol's
// /cluster/sync: a gzip bomb and a plain body over the raw cap. Both must be
// refused with 413 after reading at most service.MaxBodyBytes, not buffered whole.
// The campaign API's bound is tested against both roles in cmd/spirvd.
func TestRequestBodyBounded(t *testing.T) {
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
	mux := co.Mux()

	bomb := gzipBomb(t)
	plain := append([]byte(`{"node":"`), bytes.Repeat([]byte("a"), service.MaxBodyBytes)...)

	for _, tc := range []struct {
		name string
		body []byte
		gzip bool
	}{
		{"gzip-bomb", bomb, true},
		{"raw-oversize", plain, false},
	} {
		var before, after runtime.MemStats
		runtime.GC()
		runtime.ReadMemStats(&before)
		req := httptest.NewRequest("POST", "/cluster/sync", bytes.NewReader(tc.body))
		if tc.gzip {
			req.Header.Set("Content-Encoding", "gzip")
		}
		rec := httptest.NewRecorder()
		mux.ServeHTTP(rec, req)
		runtime.ReadMemStats(&after)
		if rec.Code != http.StatusRequestEntityTooLarge {
			t.Fatalf("%s: status %d, want 413 (%s)", tc.name, rec.Code, rec.Body.String())
		}
		if alloc := after.TotalAlloc - before.TotalAlloc; alloc > 8*service.MaxBodyBytes {
			t.Fatalf("%s: handling allocated %d MiB", tc.name, alloc>>20)
		}
	}
}

// TestResponseBodyBounded is the worker side of the same cap: a coordinator
// (here an httptest server) answering with a gzip bomb or a plain body over
// service.MaxBodyBytes must make postWire fail with an error after reading at most
// the cap, never buffer the whole body or panic.
func TestResponseBodyBounded(t *testing.T) {
	bomb := gzipBomb(t)
	plain := append([]byte(`{"node":"`), bytes.Repeat([]byte("a"), service.MaxBodyBytes)...)
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "application/json")
		if r.URL.Path == "/bomb" {
			w.Header().Set("Content-Encoding", "gzip")
			w.Write(bomb)
			return
		}
		w.Write(plain)
	}))
	defer srv.Close()

	for _, path := range []string{"/bomb", "/plain"} {
		var before, after runtime.MemStats
		runtime.GC()
		runtime.ReadMemStats(&before)
		var out nodeRequest
		_, err := postWire(context.Background(), srv.Client(), srv.URL, path, nodeRequest{Node: "w"}, &out, nil)
		runtime.ReadMemStats(&after)
		if !errors.Is(err, errBodyTooLarge) {
			t.Fatalf("%s: err %v, want %v", path, err, errBodyTooLarge)
		}
		if alloc := after.TotalAlloc - before.TotalAlloc; alloc > 8*service.MaxBodyBytes {
			t.Fatalf("%s: reading the response allocated %d MiB", path, alloc>>20)
		}
	}
}
