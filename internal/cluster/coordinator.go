package cluster

import (
	"errors"
	"fmt"
	"io/fs"
	"net/http"
	"sort"
	"sync"
	"time"

	"spirvfuzz/internal/bisect"
	"spirvfuzz/internal/corpus"
	"spirvfuzz/internal/memostore"
	"spirvfuzz/internal/replay"
	"spirvfuzz/internal/runner"
	"spirvfuzz/internal/service"
	"spirvfuzz/internal/store"
)

// Default shard caps: the most tests a fuzz shard, and the most cases a
// reduce or bisect shard, carries when Options leaves the cap unset.
// spirvd's -shard-tests and -shard-cases flags default to them.
const (
	DefaultShardTests = 32
	DefaultShardCases = 8
)

// Options configures a Coordinator.
type Options struct {
	// ShardTests is the maximum number of tests per fuzz shard; <= 0 selects
	// DefaultShardTests. With AdaptiveShards off every shard is cut at this
	// size, or smaller where the phase has fewer consecutive tests left; with
	// it on the coordinator sizes shards dynamically up to this bound.
	// Merged results are identical either way: completeness is derived from
	// the merged records, never from shard geometry.
	ShardTests int
	// ShardCases is the maximum number of reduction (and bisect) cases per
	// shard; <= 0 selects DefaultShardCases.
	ShardCases int
	// AdaptiveShards lets the coordinator resize shards at dispatch time from
	// an EWMA of observed per-unit service time vs per-shard sync time,
	// targeting shards large enough that sync overhead stays below
	// SyncFraction of shard wall time. Bounded above by ShardTests /
	// ShardCases, below by 1.
	AdaptiveShards bool
	// SyncFraction is the sync-overhead budget adaptive sizing aims for, as a
	// fraction of total shard time; <= 0 selects 0.2.
	SyncFraction float64
	// LeaseTTL is how long a dispatched shard may go without a heartbeat
	// before it is re-queued for another node; <= 0 selects 5s.
	LeaseTTL time.Duration
	// Memo, when non-nil, makes the coordinator the cluster's memo-sync
	// hub: workers with their own memo stores pull records they lack (at
	// join, and before each shard) and push new ones back after each shard,
	// so a cold-rejoining node warm-starts from the cluster's accumulated
	// execution history. The caller keeps ownership (and Close) of the
	// store, like the blob store.
	Memo *memostore.Store
}

func (o *Options) normalize() {
	if o.ShardTests <= 0 {
		o.ShardTests = DefaultShardTests
	}
	if o.ShardCases <= 0 {
		o.ShardCases = DefaultShardCases
	}
	if o.LeaseTTL <= 0 {
		o.LeaseTTL = 5 * time.Second
	}
	if o.SyncFraction <= 0 || o.SyncFraction >= 1 {
		o.SyncFraction = 0.2
	}
}

// phaseSizer is the adaptive shard-sizing state of one phase: EWMAs of
// per-unit service nanos and per-shard sync nanos, and the current target
// size. The policy: a shard of n units costs roughly sync + n·unit, so
// keeping sync below fraction f of the total needs
// n ≥ sync·(1−f)/(f·unit). Sizes only move on observed results, so a quiet
// cluster keeps its last estimate.
type phaseSizer struct {
	unitNanos float64
	syncNanos float64
	size      int
	resizes   uint64
}

// sizerAlpha is the EWMA weight of each new observation.
const sizerAlpha = 0.3

func (ps *phaseSizer) observe(units int, serviceNanos, syncNanos int64) {
	if units <= 0 || serviceNanos <= 0 {
		return
	}
	unit := float64(serviceNanos) / float64(units)
	if ps.unitNanos == 0 {
		ps.unitNanos = unit
	} else {
		ps.unitNanos += sizerAlpha * (unit - ps.unitNanos)
	}
	sn := float64(syncNanos)
	if ps.syncNanos == 0 {
		ps.syncNanos = sn
	} else {
		ps.syncNanos += sizerAlpha * (sn - ps.syncNanos)
	}
}

func (ps *phaseSizer) retarget(f float64, maxSize int) {
	if ps.unitNanos <= 0 {
		return
	}
	want := int(ps.syncNanos*(1-f)/(f*ps.unitNanos)) + 1
	if want < 1 {
		want = 1
	}
	if want > maxSize {
		want = maxSize
	}
	if ps.size == 0 {
		ps.size = want
		return
	}
	if want != ps.size {
		ps.size = want
		ps.resizes++
	}
}

// ShardSizing is one phase's adaptive-sizing snapshot in /metrics: the
// current target size against its configured maximum (a lease carries fewer
// units only where its phase has fewer queued), the EWMAs behind it,
// and how often the target moved. These are the worker auto-scaling hints —
// a size pinned at max with a deep queue says "add nodes"; sync-dominated
// tiny units say "the transport, not compute, is the bottleneck".
type ShardSizing struct {
	Phase   string  `json:"phase"`
	Size    int     `json:"size"`
	MaxSize int     `json:"max_size"`
	UnitMS  float64 `json:"unit_ms"`
	SyncMS  float64 `json:"sync_ms"`
	Resizes uint64  `json:"resizes"`
}

// shardState is a leased in-flight shard: the units it was cut from, who
// holds it, and when the lease expires.
type shardState struct {
	job      string
	phase    string
	index    int // first unit's index; the wire Shard.Index and key suffix
	units    []*service.Unit
	node     string    // leased to
	deadline time.Time // lease expiry
}

func (ss *shardState) key() string {
	return fmt.Sprintf("%s/%s/%d", ss.job, ss.phase, ss.index)
}

// ClusterStats is the cluster block of coordinator /metrics.
type ClusterStats struct {
	Nodes             int       `json:"nodes"`
	ShardsDispatched  uint64    `json:"shards_dispatched"`
	ShardsCompleted   uint64    `json:"shards_completed"`
	ShardsRequeued    uint64    `json:"shards_requeued"`
	ShardsDuplicate   uint64    `json:"shards_duplicate"`
	Sync              SyncStats `json:"sync"`
	BlobDedupFraction float64   `json:"blob_dedup_fraction"`
	// QueueDepth and LeasedShards snapshot the dispatch queue (in work
	// units) and in-flight shard count; with Sizing they are the
	// auto-scaling hints: deep queue + sizes pinned at max → add workers.
	QueueDepth   int           `json:"queue_depth"`
	LeasedShards int           `json:"leased_shards"`
	Sizing       []ShardSizing `json:"sizing,omitempty"`
}

// Metrics is the coordinator-wide counter snapshot (GET /metrics), shaped
// like the single-node service's with an extra cluster block. Runner is the
// MergeStats aggregate of the latest per-node engine snapshots; Bisect is
// the sum of per-node bisection-engine snapshots.
type Metrics struct {
	service.Tally
	Runner  runner.Stats `json:"runner"`
	Replay  replay.Stats `json:"replay"`
	Bisect  bisect.Stats `json:"bisect"`
	Store   store.Stats  `json:"store"`
	Cluster ClusterStats `json:"cluster"`
	// Memo is the coordinator memo-sync hub's snapshot (its Pulled/Pushed
	// are the hub's side of worker sync traffic); nil without a memo store.
	Memo *memostore.Stats `json:"memo,omitempty"`
}

// nodeState tracks one joined worker.
type nodeState struct {
	procToken string
	lastSeen  time.Time
	runner    runner.Stats // latest cumulative snapshot
	replay    replay.Stats
	bisect    bisect.Stats
}

// Coordinator serves a cluster's campaigns: the shared service.Machine
// holds their journaled state in the coordinator's store, and the
// coordinator leases the units it hands out to workers. It executes nothing
// itself: all fuzzing, reduction and bisection happens on workers; the
// coordinator shards, dispatches, and records.
type Coordinator struct {
	*service.Machine
	st   *store.Store
	opts Options
	memo *memostore.Store // nil without Options.Memo

	mu     sync.Mutex
	corpus []BlobRef // ordered manifest; index i is reference i
	nodes  map[string]*nodeState
	queue  []*service.Unit        // pending units, FIFO
	leased map[string]*shardState // shard key -> in flight
	sizers map[string]*phaseSizer // phase -> adaptive sizing state

	shardsDispatched uint64
	shardsCompleted  uint64
	shardsRequeued   uint64
	shardsDuplicate  uint64
	sync             SyncStats
}

// NewCoordinator builds a coordinator over an open store, replays the
// journal, and queues every unit of every unfinished job that has no
// journaled result. The caller keeps ownership of the store until Close.
func NewCoordinator(st *store.Store, opts Options) (*Coordinator, error) {
	opts.normalize()
	m, units, err := service.NewMachine(st, nil)
	if err != nil {
		return nil, err
	}
	co := &Coordinator{
		Machine: m,
		st:      st,
		opts:    opts,
		memo:    opts.Memo,
		nodes:   make(map[string]*nodeState),
		leased:  make(map[string]*shardState),
		sizers:  make(map[string]*phaseSizer),
	}
	co.enqueue(units)
	if len(units) > 0 {
		if err := co.ensureCorpus(); err != nil {
			return nil, err
		}
	}
	return co, nil
}

// Close syncs the journal. The store itself stays open for the caller.
func (co *Coordinator) Close() error {
	return co.st.Journal().Sync()
}

// ensureCorpus builds (or idempotently rebuilds, after a restart) the
// ordered corpus manifest every shard carries: each reference item encoded
// and stored as a blob. Encoding is deterministic, so the manifest — and with
// it every shard payload — is identical across coordinator restarts. Caller
// holds co.mu (or is in construction).
func (co *Coordinator) ensureCorpus() error {
	if co.corpus != nil {
		return nil
	}
	refs := corpus.References()
	manifest := make([]BlobRef, 0, len(refs))
	for _, it := range refs {
		data, err := encodeCorpusItem(it)
		if err != nil {
			return err
		}
		hash, err := co.st.PutBlob(data)
		if err != nil {
			return err
		}
		manifest = append(manifest, BlobRef{Hash: hash, Size: int64(len(data))})
	}
	co.corpus = manifest
	return nil
}

// CreateCampaign validates, journals, and queues a new campaign. IDs follow
// the single-node service's scheme (c001, c002, ...), so case names — which
// embed the campaign ID — match a single-node run of the same spec.
func (co *Coordinator) CreateCampaign(spec service.CampaignSpec) (service.CampaignStatus, error) {
	co.mu.Lock()
	defer co.mu.Unlock()
	if err := co.ensureCorpus(); err != nil {
		return service.CampaignStatus{}, err
	}
	status, units, err := co.StartCampaign(spec)
	if err != nil {
		return service.CampaignStatus{}, err
	}
	co.enqueue(units)
	return status, nil
}

// CreateBisect validates, journals, and queues a bisection job over a
// finished campaign, one unit per case.
func (co *Coordinator) CreateBisect(spec service.BisectSpec) (service.BisectStatus, error) {
	co.mu.Lock()
	defer co.mu.Unlock()
	status, units, err := co.StartBisect(spec)
	if err != nil {
		return service.BisectStatus{}, err
	}
	co.enqueue(units)
	return status, nil
}

// enqueue appends units to the dispatch queue. The queue holds pointers:
// Next removes units from its middle, and a unit is a few hundred bytes.
// Caller holds co.mu (or is in construction).
func (co *Coordinator) enqueue(units []service.Unit) {
	for i := range units {
		co.queue = append(co.queue, &units[i])
	}
}

// sweepLeases re-queues the units of every leased shard whose deadline
// passed — the work-stealing path for killed or wedged nodes. Caller holds
// co.mu.
func (co *Coordinator) sweepLeases(now time.Time) {
	var expired []string
	for k, ss := range co.leased {
		if now.After(ss.deadline) {
			expired = append(expired, k)
		}
	}
	sort.Strings(expired)
	for _, k := range expired {
		ss := co.leased[k]
		delete(co.leased, k)
		co.shardsRequeued++
		co.queue = append(co.queue, ss.units...)
	}
}

// Join registers (or refreshes) a worker node.
func (co *Coordinator) Join(node, procToken string) time.Duration {
	co.mu.Lock()
	defer co.mu.Unlock()
	ns := co.nodes[node]
	if ns == nil {
		ns = &nodeState{}
		co.nodes[node] = ns
	}
	ns.procToken = procToken
	ns.lastSeen = time.Now()
	return co.opts.LeaseTTL
}

// Heartbeat renews the leases held by a node.
func (co *Coordinator) Heartbeat(node string) {
	co.mu.Lock()
	defer co.mu.Unlock()
	now := time.Now()
	if ns := co.nodes[node]; ns != nil {
		ns.lastSeen = now
	}
	for _, ss := range co.leased {
		if ss.node == node {
			ss.deadline = now.Add(co.opts.LeaseTTL)
		}
	}
	co.sweepLeases(now)
}

// shardCap is the configured maximum shard size of a phase.
func (co *Coordinator) shardCap(phase string) int {
	if phase == service.PhaseFuzz {
		return co.opts.ShardTests
	}
	return co.opts.ShardCases
}

// targetShardSize is how many units the next shard of a phase should carry:
// the configured per-phase maximum, or — with adaptive sizing on and
// observations in — the sizer's current target, never above the maximum.
func (co *Coordinator) targetShardSize(phase string) int {
	max := co.shardCap(phase)
	if !co.opts.AdaptiveShards {
		return max
	}
	if ps := co.sizers[phase]; ps != nil && ps.size > 0 && ps.size < max {
		return ps.size
	}
	return max
}

// Next cuts a shard from the unit queue and leases it to a node, preferring
// units whose locality hint names it. The shard gathers queue-adjacent units
// of the same job and phase up to the target size (fuzz units must also be
// index-consecutive, since the wire shard is a [Lo, Hi) range). The second
// return is false when no work is pending (the worker backs off and polls
// again).
func (co *Coordinator) Next(node string) (Shard, bool) {
	co.mu.Lock()
	defer co.mu.Unlock()
	now := time.Now()
	if ns := co.nodes[node]; ns != nil {
		ns.lastSeen = now
	}
	co.sweepLeases(now)
	if len(co.queue) == 0 {
		return Shard{}, false
	}
	pick := 0
	for i, u := range co.queue {
		if u.Node == node {
			pick = i
			break
		}
	}
	first := co.queue[pick]
	units := []*service.Unit{first}
	co.queue = append(co.queue[:pick], co.queue[pick+1:]...)
	target := co.targetShardSize(first.Phase)
	for len(units) < target && pick < len(co.queue) {
		u := co.queue[pick]
		if u.Job != first.Job || u.Phase != first.Phase {
			break
		}
		if u.Phase == service.PhaseFuzz && u.Index != units[len(units)-1].Index+1 {
			break
		}
		units = append(units, u)
		co.queue = append(co.queue[:pick], co.queue[pick+1:]...)
	}
	ss := &shardState{
		job:      first.Job,
		phase:    first.Phase,
		index:    first.Index,
		units:    units,
		node:     node,
		deadline: now.Add(co.opts.LeaseTTL),
	}
	co.leased[ss.key()] = ss
	co.shardsDispatched++

	sh := Shard{
		Campaign: ss.job,
		Phase:    ss.phase,
		Index:    ss.index,
		Spec:     first.Spec,
		Corpus:   co.corpus,
	}
	switch ss.phase {
	case service.PhaseFuzz:
		sh.Lo = units[0].Index
		sh.Hi = units[len(units)-1].Index + 1
	case service.PhaseReduce:
		for _, u := range units {
			sh.Cases = append(sh.Cases, u.Case)
			if size, ok := co.st.StatBlob(u.Case.Bug.SeqHash); ok {
				sh.Needs = append(sh.Needs, BlobRef{Hash: u.Case.Bug.SeqHash, Size: size})
			}
		}
	case service.PhaseBisect:
		for _, u := range units {
			sh.Recs = append(sh.Recs, u.Rec)
			if size, ok := co.st.StatBlob(u.Rec.ReportHash); ok {
				sh.Needs = append(sh.Needs, BlobRef{Hash: u.Rec.ReportHash, Size: size})
			}
		}
	}
	return sh, true
}

// observeShard feeds one merged shard result into the phase's adaptive
// sizer. Observations are recorded (and surfaced in /metrics) even with
// AdaptiveShards off — only dispatch consults the flag — so the sizing
// hints are available before anyone opts in. Caller holds co.mu.
func (co *Coordinator) observeShard(res ShardResult, units int) {
	if units <= 0 {
		return
	}
	ps := co.sizers[res.Phase]
	if ps == nil {
		ps = &phaseSizer{}
		co.sizers[res.Phase] = ps
	}
	ps.observe(units, res.ServiceNanos, res.Sync.Nanos)
	ps.retarget(co.opts.SyncFraction, co.shardCap(res.Phase))
}

// Result records a worker's shard result, one unit at a time through the
// Machine, which validates every unit against its job's current phase before
// journaling any: a unit outside it is a 400 and records nothing. A
// duplicate — a slow or prefetching node finishing a shard that was
// re-queued and completed elsewhere — is acknowledged and dropped; both
// executions produced identical records. Units of the next phase re-enter
// the dispatch queue.
func (co *Coordinator) Result(res ShardResult) error {
	co.mu.Lock()
	defer co.mu.Unlock()
	now := time.Now()
	if ns := co.nodes[res.Node]; ns != nil {
		ns.lastSeen = now
		ns.procToken = res.ProcToken
		ns.runner = res.Runner
		ns.replay = res.Replay
		ns.bisect = res.Bisect
	}
	co.sync.add(res.Sync)
	key := fmt.Sprintf("%s/%s/%d", res.Campaign, res.Phase, res.Index)
	var next []service.Unit
	var err error
	switch {
	case res.Phase != service.PhaseFuzz && res.Phase != service.PhaseReduce && res.Phase != service.PhaseBisect:
		return badRequest("cluster: result with unknown phase %q", res.Phase)
	case res.Error != "":
		err = co.Fail(res.Campaign, fmt.Sprintf("shard %s on %s: %s", key, res.Node, res.Error))
	case res.Phase == service.PhaseFuzz:
		for i := range res.Tests {
			res.Tests[i].Node = res.Node
		}
		next, err = co.RecordTests(res.Campaign, res.Tests)
	case res.Phase == service.PhaseReduce:
		next, err = co.RecordReduced(res.Campaign, res.Reduced)
	default:
		next, err = co.RecordBisected(res.Campaign, res.Bisects)
	}
	switch {
	case errors.Is(err, service.ErrInvalidRecord):
		// A refused result releases no lease: its holder may be executing
		// the shard honestly.
		return &statusError{http.StatusBadRequest, err}
	case errors.Is(err, service.ErrDuplicate):
		co.release(key)
		co.shardsDuplicate++
		return nil
	case err != nil:
		// Not recorded: the lease stays and expires into a re-dispatch.
		return err
	case res.Error != "":
		co.drop(res.Campaign)
		return nil
	}
	co.release(key)
	co.shardsCompleted++
	co.observeShard(res, len(res.Tests)+len(res.Reduced)+len(res.Bisects))
	co.enqueue(next)
	return nil
}

// release ends the lease on key, if any, and re-queues the shard's units the
// Machine still needs: a result may record only part of the shard whose key
// it names, and the lease is what would have re-dispatched the rest. Caller
// holds co.mu.
func (co *Coordinator) release(key string) {
	ss := co.leased[key]
	if ss == nil {
		return
	}
	delete(co.leased, key)
	for _, u := range ss.units {
		if co.Missing(*u) {
			co.queue = append(co.queue, u)
		}
	}
}

// drop removes a failed job's queued units and leases. Caller holds co.mu.
func (co *Coordinator) drop(job string) {
	kept := co.queue[:0]
	for _, u := range co.queue {
		if u.Job != job {
			kept = append(kept, u)
		}
	}
	co.queue = kept
	for k, ss := range co.leased {
		if ss.job == job {
			delete(co.leased, k)
		}
	}
}

// Metrics returns the cluster-wide counter snapshot. Engine stats are the
// latest cumulative snapshot per node, merged with runner.MergeStats grouped
// by process token — N in-process simulated nodes share their process-wide
// optimizer profile, which MergeStats counts once instead of N times.
func (co *Coordinator) Metrics() Metrics {
	co.mu.Lock()
	defer co.mu.Unlock()
	groups := make(map[string][]runner.Stats)
	var rep replay.Stats
	var bis bisect.Stats
	names := make([]string, 0, len(co.nodes))
	for name := range co.nodes {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		ns := co.nodes[name]
		groups[ns.procToken] = append(groups[ns.procToken], ns.runner)
		bis.Add(ns.bisect)
		rep.Queries += ns.replay.Queries
		rep.Applied += ns.replay.Applied
	}
	m := Metrics{
		Tally:  co.Tally(),
		Runner: runner.MergeStats(groups),
		Replay: rep,
		Bisect: bis,
		Store:  co.st.Stats(),
		Cluster: ClusterStats{
			Nodes:             len(co.nodes),
			ShardsDispatched:  co.shardsDispatched,
			ShardsCompleted:   co.shardsCompleted,
			ShardsRequeued:    co.shardsRequeued,
			ShardsDuplicate:   co.shardsDuplicate,
			Sync:              co.sync,
			BlobDedupFraction: co.sync.DedupFraction(),
			QueueDepth:        len(co.queue),
			LeasedShards:      len(co.leased),
		},
	}
	phases := make([]string, 0, len(co.sizers))
	for phase := range co.sizers {
		phases = append(phases, phase)
	}
	sort.Strings(phases)
	for _, phase := range phases {
		ps := co.sizers[phase]
		max := co.shardCap(phase)
		size := ps.size
		if size <= 0 || size > max {
			size = max
		}
		m.Cluster.Sizing = append(m.Cluster.Sizing, ShardSizing{
			Phase:   phase,
			Size:    size,
			MaxSize: max,
			UnitMS:  ps.unitNanos / 1e6,
			SyncMS:  ps.syncNanos / 1e6,
			Resizes: ps.resizes,
		})
	}
	if co.memo != nil {
		ms := co.memo.Stats()
		m.Memo = &ms
	}
	return m
}

// MemoStore returns the coordinator's memo-sync hub store, nil without one.
func (co *Coordinator) MemoStore() *memostore.Store { return co.memo }

// SyncBatch serves one /cluster/sync exchange: pushes land first (blobs,
// then memo records), then the folded shard result — so merged records
// always find their blobs already in the store — then the node's leases
// renew (a sync exchange doubles as a heartbeat), then the queries answer.
// Every leg is optional. A malformed leg fails with a 400 statusError, a
// fetch of a blob the store lacks with a 404 one; any other error is a
// store or journal failure.
func (co *Coordinator) SyncBatch(req syncRequest) (syncResponse, error) {
	var resp syncResponse
	if len(req.BlobPush) > 0 {
		if _, err := co.st.PutBatch(req.BlobPush); err != nil {
			return resp, err
		}
	}
	if len(req.MemoPush) > 0 {
		// Memo records are an optimization; a bad record drops rather than
		// failing the exchange (which carries the shard result).
		co.memoPush(req.MemoPush)
	}
	if req.Result != nil {
		if err := co.Result(*req.Result); err != nil {
			return resp, err
		}
	}
	if req.Node != "" {
		co.Heartbeat(req.Node)
	}
	if len(req.BlobFetch) > 0 {
		blobs, err := co.st.GetBatch(req.BlobFetch)
		switch {
		case errors.Is(err, store.ErrMalformedHash):
			return resp, &statusError{http.StatusBadRequest, err}
		case errors.Is(err, fs.ErrNotExist):
			return resp, &statusError{http.StatusNotFound, err}
		case err != nil:
			return resp, err
		}
		resp.Blobs = blobs
	}
	if len(req.BlobOffer) > 0 {
		hashes := make([]string, len(req.BlobOffer))
		for i, ref := range req.BlobOffer {
			hashes[i] = ref.Hash
		}
		has := co.st.HasBatch(hashes)
		resp.BlobWant = make([]bool, len(has))
		for i, h := range has {
			resp.BlobWant[i] = !h
		}
	}
	if req.MemoSince != nil {
		resp.MemoKeys, resp.MemoMark, resp.MemoOK = co.memoKeys(*req.MemoSince)
	}
	if len(req.MemoFetch) > 0 {
		recs, err := co.memoFetch(req.MemoFetch)
		if err != nil {
			return resp, err
		}
		resp.MemoRecords = recs
	}
	if len(req.MemoOffer) > 0 {
		has := co.memoHas(req.MemoOffer)
		resp.MemoWant = make([]bool, len(has))
		for i, h := range has {
			resp.MemoWant[i] = !h
		}
	}
	resp.OK = true
	return resp, nil
}
