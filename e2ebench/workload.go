package main

import (
	"context"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"time"

	"spirvfuzz/internal/cluster"
	"spirvfuzz/internal/interp"
	"spirvfuzz/internal/opt"
	"spirvfuzz/internal/service"
	"spirvfuzz/internal/store"
)

// Scale of the deployment the benchmark runs: one engine worker, and a
// cluster of one single-worker node behind the coordinator. On a small
// shared host, a second worker turns every parallel wave into a wait for
// whichever core the host stalled, and run-to-run spread with it; one
// worker leaves the other core to the garbage collector, the coordinator
// and the transport.
const (
	engineWorkers     = 1
	clusterNodes      = 1
	clusterWorkersPer = 1
	// tracedWorkers is the traced run's engine pool: one worker, so every
	// layer's time is its own cost, not shared with a concurrent twin.
	tracedWorkers = 1
	// pollEvery is how often the client polls a job it waits on.
	pollEvery = time.Millisecond
)

// workload is one benchmark input: a campaign spec drawn from the seed and
// the deployment that serves it.
type workload struct {
	name string
	kind string // "standalone", "cluster" or "memo"
	// tests and capPerSig shape the campaign; cap 0 keeps the default of 2.
	tests, capPerSig int
}

var workloads = []workload{
	// Few tests at a high cap: ddmin, replay, oracle and bisection dominate.
	{name: "reduce-bisect", kind: "standalone", tests: 350, capPerSig: 20},
	// Many tests at the default cap, where fuzz, 9-target classify and blob
	// writes dominate and reduction saturates at a few dozen cases, on a
	// one-node loopback cluster.
	{name: "cluster", kind: "cluster", tests: 500},
	// The cluster's campaign on a standalone service, served warm from the
	// persistent memo store.
	{name: "memo-repeat", kind: "memo", tests: 500},
}

func findWorkload(name string) (workload, error) {
	for _, w := range workloads {
		if w.name == name {
			return w, nil
		}
	}
	return workload{}, fmt.Errorf("unknown workload %q", name)
}

// spec is the campaign of the workload's i-th sample for seed: the default
// spec (spirv-fuzz, all nine targets, the 8×8 default grid, no pacing) with
// the workload's size. Test j fuzzes with seed SeedBase + j, and SeedBase
// is seed·seedStride + i·tests, so every sample of a run is a campaign of
// its own: the cost of reducing a case varies widely from case to case, and
// a run's median over many campaigns does not hang on one campaign's cases.
func (w workload) spec(seed int64, i int) service.CampaignSpec {
	return service.CampaignSpec{
		Tests:           w.tests,
		SeedBase:        seed*seedStride + int64(i*w.tests),
		CapPerSignature: w.capPerSig,
	}
}

// seedStride separates the campaigns of two seeds: a run times far fewer
// than seedStride tests.
const seedStride = 1_000_000

// refusePacing rejects the fault-injection pacing knobs: a benchmark
// campaign runs at the speed of its real work.
func refusePacing(spec service.CampaignSpec, sim *cluster.SimConfig) error {
	if spec.FuzzSlowdownMS != 0 || spec.ReduceSlowdownMS != 0 {
		return fmt.Errorf("pacing knobs set (fuzz %d ms, reduce %d ms)", spec.FuzzSlowdownMS, spec.ReduceSlowdownMS)
	}
	if sim != nil && sim.Latency != 0 {
		return fmt.Errorf("injected cluster latency %v", sim.Latency)
	}
	return nil
}

// daemon is the campaign API a client drives; the standalone service and
// the cluster coordinator both serve it.
type daemon interface {
	CreateCampaign(service.CampaignSpec) (service.CampaignStatus, error)
	Campaign(id string) (service.CampaignStatus, bool)
	Buckets(id string) ([]service.BucketSet, error)
	CreateBisect(service.BisectSpec) (service.BisectStatus, error)
	BisectJob(id string) (service.BisectStatus, bool)
	BisectResult(id string) (service.BisectSet, error)
}

// served is what one client job got back.
type served struct {
	campaign, job string
	buckets       []service.Bucket
	bisect        service.BisectSet
}

// errJobFailed marks a job that the daemon finished in state failed.
var errJobFailed = errors.New("job failed")

// serveJob is the closed-loop client: submit the campaign, wait for its
// buckets, submit the bisect job, wait for its result.
func serveJob(ctx context.Context, d daemon, spec service.CampaignSpec) (served, error) {
	c, err := d.CreateCampaign(spec)
	if err != nil {
		return served{}, err
	}
	for {
		st, ok := d.Campaign(c.ID)
		if !ok {
			return served{}, fmt.Errorf("campaign %s vanished", c.ID)
		}
		if st.State == service.StateFailed {
			return served{}, fmt.Errorf("campaign %s: %w: %s", c.ID, errJobFailed, st.Error)
		}
		if st.State == service.StateDone {
			break
		}
		if err := pause(ctx); err != nil {
			return served{}, fmt.Errorf("campaign %s in %s: %w", c.ID, st.State, err)
		}
	}
	sets, err := d.Buckets(c.ID)
	if err != nil {
		return served{}, err
	}
	if len(sets) != 1 {
		return served{}, fmt.Errorf("campaign %s: %d bucket sets", c.ID, len(sets))
	}
	b, err := d.CreateBisect(service.BisectSpec{Campaign: c.ID})
	if err != nil {
		return served{}, err
	}
	for {
		st, ok := d.BisectJob(b.ID)
		if !ok {
			return served{}, fmt.Errorf("bisect job %s vanished", b.ID)
		}
		if st.State == service.StateFailed {
			return served{}, fmt.Errorf("bisect job %s: %w: %s", b.ID, errJobFailed, st.Error)
		}
		if st.State == service.StateDone {
			break
		}
		if err := pause(ctx); err != nil {
			return served{}, fmt.Errorf("bisect job %s in %s: %w", b.ID, st.State, err)
		}
	}
	set, err := d.BisectResult(b.ID)
	if err != nil {
		return served{}, err
	}
	return served{campaign: c.ID, job: b.ID, buckets: sets[0].Buckets, bisect: set}, nil
}

func pause(ctx context.Context) error {
	t := time.NewTimer(pollEvery)
	defer t.Stop()
	select {
	case <-t.C:
		return nil
	case <-ctx.Done():
		return ctx.Err()
	}
}

// sample is one set-up plus one timed job of the untraced loop.
type sample struct {
	setups     []time.Duration
	wall, cpu  time.Duration
	allocBytes uint64
	got        served
	digest     string
	// coldDigest is memo-repeat's set-up campaign, which the warm job must
	// reproduce.
	coldDigest string
	reduced    []service.ReducedRec
	// layers are the counters read around the timed job; only the cluster
	// workload reports them (its layers run behind HTTP, out of a trace's
	// reach), plus the service's job counters.
	layers map[string]float64
	// probes are hostProbe's times just before and just after the sample.
	probes [2]time.Duration
}

// timeJob runs the timed part of a sample: one client job against d.
func timeJob(ctx context.Context, s *sample, d daemon, spec service.CampaignSpec) error {
	before := snapProc()
	start := time.Now()
	got, err := serveJob(ctx, d, spec)
	s.wall = time.Since(start)
	after := snapProc()
	if err != nil {
		return err
	}
	s.cpu = after.cpu - before.cpu
	s.allocBytes = after.alloc - before.alloc
	s.got = got
	s.digest = digest(got.buckets, got.bisect)
	return nil
}

// setupReps is how many times a sample sets up its daemon; all but the
// last set-up are torn down again, and setup_s is the median of every
// set-up in the run. A set-up that includes a cold campaign runs once.
const setupReps = 10

// runService is one standalone sample in dir: open the store and build the
// service (for memo-repeat: run the spec once cold, then restart over the
// same store and memo directory), then time one job.
func runService(ctx context.Context, dir string, spec service.CampaignSpec, memo bool) (sample, error) {
	var s sample
	storeDir := filepath.Join(dir, "store")
	opts := service.Options{Workers: engineWorkers}
	reps := setupReps
	if memo {
		opts.MemoDir = filepath.Join(dir, "memo")
		reps = 1
	}
	var svc *service.Service
	for rep := 0; rep < reps; rep++ {
		if svc != nil {
			if err := svc.Close(ctx); err != nil {
				return s, err
			}
		}
		start := time.Now()
		var err error
		if svc, err = openService(storeDir, opts); err != nil {
			return s, err
		}
		if memo {
			if s.coldDigest, err = coldJob(ctx, svc, spec); err != nil {
				return s, err
			}
			if svc, err = openService(storeDir, opts); err != nil {
				return s, err
			}
		}
		s.setups = append(s.setups, time.Since(start))
	}
	err := timeJob(ctx, &s, svc, spec)
	m := svc.Metrics()
	if cerr := svc.Close(ctx); err == nil {
		err = cerr
	}
	if err != nil {
		return s, err
	}
	s.layers = map[string]float64{
		"service.jobs":         float64(m.JobsSubmitted),
		"service.jobs_retried": float64(m.JobsRetried),
		"service.jobs_failed":  float64(m.JobsFailed),
	}
	s.reduced, err = journalReduced(storeDir, s.got.campaign)
	return s, err
}

// coldJob serves spec once on a fresh memo store and shuts the service
// down, which flushes the memo; it returns the job's digest.
func coldJob(ctx context.Context, svc *service.Service, spec service.CampaignSpec) (string, error) {
	cold, err := serveJob(ctx, svc, spec)
	if cerr := svc.Close(ctx); err == nil {
		err = cerr
	}
	if err != nil {
		return "", fmt.Errorf("cold campaign: %w", err)
	}
	return digest(cold.buckets, cold.bisect), nil
}

func openService(dir string, opts service.Options) (*service.Service, error) {
	st, err := store.Open(dir)
	if err != nil {
		return nil, err
	}
	svc, err := service.New(st, opts)
	if err != nil {
		st.Close()
		return nil, err
	}
	return svc, nil
}

// clusterRig is a coordinator over its own store plus a loopback sim of
// worker nodes.
type clusterRig struct {
	st  *store.Store
	co  *cluster.Coordinator
	sim *cluster.Sim
}

// startCluster builds a coordinator with adaptive shards and a sim of
// clusterNodes nodes on the default pipelined transport, and waits until
// every node has joined.
func startCluster(ctx context.Context, coordDir string, cfg cluster.SimConfig) (*clusterRig, error) {
	st, err := store.Open(coordDir)
	if err != nil {
		return nil, err
	}
	r := &clusterRig{st: st}
	if r.co, err = cluster.NewCoordinator(st, cluster.Options{AdaptiveShards: true}); err != nil {
		r.close()
		return nil, err
	}
	if r.sim, err = cluster.StartSimCfg(r.co, cfg); err != nil {
		r.close()
		return nil, err
	}
	for r.co.Metrics().Cluster.Nodes < cfg.Nodes {
		if err := ctx.Err(); err != nil {
			r.close()
			return nil, fmt.Errorf("waiting for %d nodes to join: %w", cfg.Nodes, err)
		}
		time.Sleep(50 * time.Microsecond)
	}
	return r, nil
}

// close stops the nodes, then the coordinator, then its store.
func (r *clusterRig) close() error {
	if r.sim != nil {
		r.sim.Stop()
	}
	if r.co != nil {
		r.co.Close()
	}
	return r.st.Close()
}

// runCluster is one cluster sample in dir: set up the cluster, then time one
// job. The layer counters are deltas of process-wide counters and the
// coordinator's merged metrics around the job.
func runCluster(ctx context.Context, dir string, spec service.CampaignSpec) (s sample, err error) {
	coordDir := filepath.Join(dir, "coordinator")
	cfg := cluster.SimConfig{Nodes: clusterNodes, Dir: filepath.Join(dir, "nodes"), WorkersPer: clusterWorkersPer}
	if err := refusePacing(spec, &cfg); err != nil {
		return s, err
	}
	var r *clusterRig
	for rep := 0; rep < setupReps; rep++ {
		if r != nil {
			if err := r.close(); err != nil {
				return s, err
			}
		}
		start := time.Now()
		if r, err = startCluster(ctx, coordDir, cfg); err != nil {
			return s, err
		}
		s.setups = append(s.setups, time.Since(start))
	}
	optBefore, laneBefore, wireBefore := opt.PassStats(), interp.LaneTotals(), cluster.SnapshotWire()
	err = timeJob(ctx, &s, r.co, spec)
	m := r.co.Metrics()
	wire := cluster.SnapshotWire().Sub(wireBefore)
	lanes := interp.LaneTotals()
	if cerr := r.close(); err == nil {
		err = cerr
	}
	if err != nil {
		return s, err
	}
	s.layers = clusterLayers(spec, m, wire, optDelta(optBefore, opt.PassStats()), lanes.Groups-laneBefore.Groups)
	if s.reduced, err = journalReduced(coordDir, s.got.campaign); err != nil {
		return s, err
	}
	s.layers["reduce.cases"] = float64(len(s.reduced))
	for _, rec := range s.reduced {
		s.layers["reduce.queries"] += float64(rec.Queries)
	}
	return s, nil
}

// clusterLayers maps one cluster job's counters onto the per-layer metrics.
// The optimizer profile is the process-wide delta: the in-process sim nodes
// share one process, so the coordinator's merged runner stats hold only one
// node's reading of it.
func clusterLayers(spec service.CampaignSpec, m cluster.Metrics, wire cluster.WireStats, opts map[string]opt.PassStat, laneGroups uint64) map[string]float64 {
	v := zeroLayers()
	runnerLayers(v, m.Runner)
	optLayers(v, opts)
	v["interp.plan_s"] = float64(m.Runner.PlanCompileNanos) / 1e9
	v["interp.lane_groups"] = float64(laneGroups)
	v["replay.queries"] = float64(m.Replay.Queries)
	v["replay.hit_rate"] = m.Replay.HitRate()
	v["replay.saved_frac"] = m.Replay.SavedFraction()
	v["replay.applied"] = float64(m.Replay.Applied)
	v["bisect.queries"] = float64(m.Bisect.Queries)
	v["bisect.cache_hit_frac"] = m.Bisect.HitFraction()
	v["bisect.compiles"] = float64(m.Bisect.Compiles)
	v["store.puts"] = float64(m.Store.BlobsWritten + m.Store.BlobDedupHits)
	v["store.put_bytes"] = float64(m.Store.BlobBytes)
	v["store.journal_appends"] = float64(m.Store.JournalRecords)
	c := m.Cluster
	v["cluster.shards"] = float64(c.ShardsDispatched)
	v["cluster.shards_requeued"] = float64(c.ShardsRequeued)
	v["cluster.shards_duplicate"] = float64(c.ShardsDuplicate)
	v["cluster.round_trips"] = float64(wire.RoundTrips)
	v["cluster.wire_bytes"] = float64(wire.WireBytesOut + wire.WireBytesIn)
	v["cluster.raw_bytes"] = float64(wire.RawBytesOut + wire.RawBytesIn)
	v["cluster.wire_bytes_per_test"] = frac(v["cluster.wire_bytes"], float64(spec.Tests))
	v["cluster.blob_dedup_frac"] = c.BlobDedupFraction
	v["cluster.prefetched_frac"] = frac(float64(c.Sync.Prefetched), float64(c.ShardsCompleted))
	v["cluster.sync_s"] = float64(c.Sync.Nanos) / 1e9
	for _, sz := range c.Sizing {
		v["cluster."+sz.Phase+".unit_ms_ewma"] = sz.UnitMS
		v["cluster."+sz.Phase+".sync_ms_ewma"] = sz.SyncMS
	}
	// The coordinator has no job queue: its jobs are shards, and a shard
	// whose lease expired is retried on another node.
	v["service.jobs"] = float64(c.ShardsDispatched)
	v["service.jobs_retried"] = float64(c.ShardsRequeued)
	return v
}

// sampleOne runs one sample of workload w in a fresh directory dir.
func sampleOne(ctx context.Context, w workload, dir string, spec service.CampaignSpec) (s sample, err error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return sample{}, err
	}
	before := hostProbe()
	runtime.GC() // start every sample from a collected heap, probe or not
	switch w.kind {
	case "cluster":
		s, err = runCluster(ctx, dir, spec)
	default:
		s, err = runService(ctx, dir, spec, w.kind == "memo")
	}
	s.probes = [2]time.Duration{before, hostProbe()}
	return s, err
}
