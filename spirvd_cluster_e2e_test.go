// End-to-end test of the distributed deployment: a coordinator process plus
// real worker processes over HTTP must converge on buckets bitwise-identical
// to a standalone daemon running the same campaign — including when one
// worker is SIGKILLed mid-reduction and a cold replacement node joins — with
// the hash-negotiated blob sync deduplicating most referenced bytes and the
// transport counters (round trips, wire/raw bytes, prefetches, adaptive
// sizing) surfaced through /metrics.
package spirvfuzz_test

import (
	"encoding/json"
	"os"
	"os/exec"
	"path/filepath"
	"syscall"
	"testing"
	"time"

	"spirvfuzz/internal/cluster"
	"spirvfuzz/internal/service"
)

var clusterSpecArgs = []string{"-tests", "12", "-reduce-slowdown-ms", "25"}

// startCoordinator launches spirvd -role coordinator and returns the process
// and its bound address.
func startCoordinator(t *testing.T, bin, storeDir string, extra ...string) (*exec.Cmd, string) {
	t.Helper()
	portFile := filepath.Join(t.TempDir(), "addr")
	args := append([]string{
		"-role", "coordinator", "-store", storeDir, "-addr", "127.0.0.1:0",
		"-portfile", portFile, "-lease-ttl", "500ms",
		"-shard-tests", "2", "-shard-cases", "1",
	}, extra...)
	cmd := exec.Command(bin, args...)
	cmd.Stderr = os.Stderr
	if err := cmd.Start(); err != nil {
		t.Fatal(err)
	}
	deadline := time.Now().Add(30 * time.Second)
	for {
		data, err := os.ReadFile(portFile)
		if err == nil && len(data) > 0 {
			return cmd, string(data)
		}
		if time.Now().After(deadline) {
			cmd.Process.Kill()
			t.Fatal("coordinator never wrote its portfile")
		}
		time.Sleep(10 * time.Millisecond)
	}
}

// startWorker launches a spirvd -role worker process against the coordinator.
func startWorker(t *testing.T, bin, coordAddr, node, storeDir string) *exec.Cmd {
	t.Helper()
	cmd := exec.Command(bin, "-role", "worker", "-join", "http://"+coordAddr,
		"-node", node, "-store", storeDir, "-workers", "2")
	cmd.Stderr = os.Stderr
	if err := cmd.Start(); err != nil {
		t.Fatal(err)
	}
	return cmd
}

func clusterMetrics(t *testing.T, bin, addr string) cluster.Metrics {
	t.Helper()
	var m cluster.Metrics
	if err := json.Unmarshal(client(t, bin, addr, "metrics"), &m); err != nil {
		t.Fatal(err)
	}
	return m
}

func TestSpirvdClusterKillRejoinBitwiseIdentical(t *testing.T) {
	if testing.Short() {
		t.Skip("cluster end-to-end skipped in -short mode")
	}
	bin := buildSpirvd(t)

	// Uninterrupted standalone reference run.
	refCmd, refAddr := startDaemon(t, bin, filepath.Join(t.TempDir(), "store-ref"))
	defer refCmd.Process.Kill()
	var refStatus service.CampaignStatus
	if err := json.Unmarshal(client(t, bin, refAddr, append([]string{"submit", "-wait"}, clusterSpecArgs...)...), &refStatus); err != nil {
		t.Fatal(err)
	}
	if refStatus.State != service.StateDone || refStatus.Buckets == 0 || refStatus.Reduced < 4 {
		t.Fatalf("reference campaign too small to shard meaningfully: %+v", refStatus)
	}
	refBuckets := client(t, bin, refAddr, "buckets", "-campaign", refStatus.ID)
	refCmd.Process.Signal(syscall.SIGTERM)
	refCmd.Wait()

	// Coordinator plus two real worker processes.
	coord, addr := startCoordinator(t, bin, filepath.Join(t.TempDir(), "store-coord"))
	defer func() {
		coord.Process.Signal(syscall.SIGTERM)
		coord.Wait()
	}()
	workDir := t.TempDir()
	w1 := startWorker(t, bin, addr, "w1", filepath.Join(workDir, "w1"))
	defer w1.Process.Kill()
	w2 := startWorker(t, bin, addr, "w2", filepath.Join(workDir, "w2"))
	defer w2.Process.Kill()

	var status service.CampaignStatus
	if err := json.Unmarshal(client(t, bin, addr, append([]string{"submit"}, clusterSpecArgs...)...), &status); err != nil {
		t.Fatal(err)
	}

	// Wait for mid-reduction — with one case per shard and paced queries,
	// both workers hold reduce leases nearly the whole phase — then SIGKILL
	// one worker and join a cold replacement node.
	deadline := time.Now().Add(2 * time.Minute)
	for {
		st := campaignStatus(t, bin, addr, status.ID)
		if st.State == service.StateReducing && st.Reduced >= 1 {
			break
		}
		if st.State == service.StateDone || st.State == service.StateFailed {
			t.Fatalf("campaign finished before the kill landed (raise -reduce-slowdown-ms): %+v", st)
		}
		if time.Now().After(deadline) {
			t.Fatalf("campaign never reached mid-reduction: %+v", st)
		}
		time.Sleep(5 * time.Millisecond)
	}
	w1.Process.Kill()
	w1.Wait()
	w3 := startWorker(t, bin, addr, "w3", filepath.Join(workDir, "w3"))
	defer w3.Process.Kill()

	done := waitDone(t, bin, addr, status.ID, 3*time.Minute)
	if done.State != service.StateDone {
		t.Fatalf("cluster campaign: %+v", done)
	}

	// The merged bucket set must be bitwise-identical to the standalone run.
	gotBuckets := client(t, bin, addr, "buckets", "-campaign", status.ID)
	if string(gotBuckets) != string(refBuckets) {
		t.Fatalf("cluster buckets diverged from standalone:\n%s\nvs\n%s", gotBuckets, refBuckets)
	}

	m := clusterMetrics(t, bin, addr)
	if m.CampaignsDone != 1 {
		t.Fatalf("metrics: %+v", m)
	}
	if m.Cluster.ShardsCompleted == 0 {
		t.Fatalf("no shards completed: %+v", m.Cluster)
	}
	if m.Cluster.ShardsRequeued == 0 {
		t.Fatalf("SIGKILLed a mid-shard worker but nothing was requeued: %+v", m.Cluster)
	}
	if m.Cluster.BlobDedupFraction <= 0 {
		t.Fatalf("blob sync dedup %.2f: the hash negotiation saved nothing: %+v", m.Cluster.BlobDedupFraction, m.Cluster.Sync)
	}
	// Transport telemetry merged from both protocols: round trips and wire
	// bytes were counted, gzip never inflated a body past its raw size, and
	// the pipelined workers actually prefetched shards behind execution.
	s := m.Cluster.Sync
	if s.RoundTrips == 0 {
		t.Fatalf("no transport round trips counted: %+v", s)
	}
	if s.WireBytesOut == 0 || s.WireBytesIn == 0 {
		t.Fatalf("wire byte counters missing: %+v", s)
	}
	if s.RawBytesOut < s.WireBytesOut || s.RawBytesIn < s.WireBytesIn {
		t.Fatalf("wire bytes exceed raw bytes: %+v", s)
	}
	if s.Prefetched == 0 {
		t.Fatalf("pipelined workers never prefetched a shard: %+v", s)
	}
	// The adaptive sizer observed service/sync time for each executed phase.
	if len(m.Cluster.Sizing) == 0 {
		t.Fatalf("no adaptive sizing snapshot in /metrics: %+v", m.Cluster)
	}
	for _, sz := range m.Cluster.Sizing {
		if sz.Size < 1 || sz.Size > sz.MaxSize {
			t.Fatalf("sizing target out of bounds: %+v", sz)
		}
	}
	// Merged worker telemetry crossed the wire: the workers executed
	// toolchains and compiled modules; the coordinator itself ran nothing.
	if m.Runner.Misses == 0 || m.Runner.CompileMisses == 0 {
		t.Fatalf("merged runner stats missing worker work: %+v", m.Runner)
	}
}

// TestSpirvdCoordinatorLocalNodes covers the -nodes flag: a coordinator that
// spawns its own in-process worker nodes is a self-contained single-machine
// cluster and must reproduce the standalone buckets too.
func TestSpirvdCoordinatorLocalNodes(t *testing.T) {
	if testing.Short() {
		t.Skip("cluster end-to-end skipped in -short mode")
	}
	bin := buildSpirvd(t)

	refCmd, refAddr := startDaemon(t, bin, filepath.Join(t.TempDir(), "store-ref"))
	defer refCmd.Process.Kill()
	var refStatus service.CampaignStatus
	if err := json.Unmarshal(client(t, bin, refAddr, "submit", "-wait", "-tests", "12"), &refStatus); err != nil {
		t.Fatal(err)
	}
	refBuckets := client(t, bin, refAddr, "buckets", "-campaign", refStatus.ID)
	refCmd.Process.Signal(syscall.SIGTERM)
	refCmd.Wait()

	coord, addr := startCoordinator(t, bin, filepath.Join(t.TempDir(), "store-coord"), "-nodes", "3")
	defer func() {
		coord.Process.Signal(syscall.SIGTERM)
		coord.Wait()
	}()
	var status service.CampaignStatus
	if err := json.Unmarshal(client(t, bin, addr, "submit", "-wait", "-tests", "12"), &status); err != nil {
		t.Fatal(err)
	}
	if status.State != service.StateDone {
		t.Fatalf("campaign: %+v", status)
	}
	gotBuckets := client(t, bin, addr, "buckets", "-campaign", status.ID)
	if string(gotBuckets) != string(refBuckets) {
		t.Fatalf("-nodes buckets diverged from standalone:\n%s\nvs\n%s", gotBuckets, refBuckets)
	}
}
