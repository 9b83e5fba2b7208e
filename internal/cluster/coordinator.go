package cluster

import (
	"encoding/json"
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

// Coordinator journal record types. Like the single-node service, the
// journal is the sole source of truth: shard results are journaled before
// they count, so a coordinator killed at any point replays the journal and
// re-dispatches exactly the shards that never landed.
const (
	recCampaignCreated = "cluster_campaign_created" // data: CampaignSpec (normalized)
	recShardDone       = "cluster_shard_done"       // data: shardDoneRec
	recCampaignDone    = "cluster_campaign_done"    // data: campaignDoneRec
	recCampaignFailed  = "cluster_campaign_failed"  // data: campaignFailedRec
	// Bisection-job records; journaled — like the job's shard results — under
	// the job's own ID ("b001", ...).
	recBisectCreated = "cluster_bisect_created" // data: bisectCreatedRec
	recBisectDone    = "cluster_bisect_done"    // data: bisectDoneRec
	recBisectFailed  = "cluster_bisect_failed"  // data: campaignFailedRec
)

// shardDoneRec journals one merged shard result.
type shardDoneRec struct {
	Phase   string                  `json:"phase"`
	Index   int                     `json:"index"`
	Node    string                  `json:"node,omitempty"`
	Tests   []TestResult            `json:"tests,omitempty"`
	Reduced []service.ReducedRec    `json:"reduced,omitempty"`
	Bisects []service.BisectOutcome `json:"bisects,omitempty"`
}

type bisectCreatedRec struct {
	Campaign string `json:"campaign"`
}

type bisectDoneRec struct {
	BisectBuckets int `json:"bisect_buckets"`
}

type campaignDoneRec struct {
	Buckets int `json:"buckets"`
}

type campaignFailedRec struct {
	Error string `json:"error"`
}

// Options configures a Coordinator.
type Options struct {
	// ShardTests is the maximum number of tests per fuzz shard; <= 0 selects
	// 4. With AdaptiveShards off every shard is cut at exactly this size;
	// with it on the coordinator sizes shards dynamically up to this bound.
	// Merged results are identical either way: completeness is derived from
	// the merged records, never from shard geometry.
	ShardTests int
	// ShardCases is the maximum number of reduction (and bisect) cases per
	// shard; <= 0 selects 2.
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
		o.ShardTests = 4
	}
	if o.ShardCases <= 0 {
		o.ShardCases = 2
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
// current target size against its configured maximum, the EWMAs behind it,
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

// clusterCampaign is the coordinator's in-memory state of one campaign,
// derived from the journal exactly like the single-node service's campaign.
type clusterCampaign struct {
	id     string
	spec   service.CampaignSpec
	state  string
	corpus []BlobRef // ordered manifest; index i is reference i

	testsDone map[int][]service.BugRef

	cases    []service.ReduceCase // set when the fuzz phase completes
	caseNode map[string]string    // case -> node that fuzzed its test (locality hint)
	reduced  map[string]service.ReducedRec

	buckets []service.Bucket
	errMsg  string

	skippedTests      int
	skippedReductions int
}

// clusterBisect is the coordinator's in-memory state of one bisection job.
// Its case list is derived from the finished campaign's merged records in
// the canonical selection order, so sharding is deterministic and the merged
// result set is bitwise-identical to a single-node run's.
type clusterBisect struct {
	id    string
	camp  *clusterCampaign
	state string

	recs     []service.ReducedRec // case group source, selection order
	cases    []service.ReduceCase
	outcomes map[string]service.BisectOutcome
	set      *service.BisectSet
	errMsg   string
	skipped  int
}

func (b *clusterBisect) status() service.BisectStatus {
	st := service.BisectStatus{
		ID:           b.id,
		Campaign:     b.camp.id,
		State:        b.state,
		CasesTotal:   len(b.recs),
		CasesDone:    len(b.outcomes),
		SkippedCases: b.skipped,
		Error:        b.errMsg,
	}
	if b.set != nil {
		// Recovered from the checkpoint without re-listing the cases.
		st.CasesTotal = len(b.set.Outcomes)
		st.CasesDone = len(b.set.Outcomes)
	}
	return st
}

func (c *clusterCampaign) status() service.CampaignStatus {
	st := service.CampaignStatus{
		ID:                c.id,
		State:             c.state,
		Spec:              c.spec,
		TestsDone:         len(c.testsDone),
		ReduceTotal:       len(c.cases),
		Reduced:           len(c.reduced),
		Buckets:           len(c.buckets),
		SkippedTests:      c.skippedTests,
		SkippedReductions: c.skippedReductions,
		Error:             c.errMsg,
	}
	for _, bugs := range c.testsDone {
		st.Bugs += len(bugs)
	}
	return st
}

// workUnit is the queue's granularity: one fuzz test index, one reduction
// case, or one bisect case group. The queue is unit-granular so shard
// boundaries are a *dispatch-time* decision — adaptive sizing can cut
// differently-sized shards from the same queue, and an expired lease's units
// simply rejoin it. Completeness is always derived from merged records, so
// no geometry choice can change the merged result.
type workUnit struct {
	c     *clusterCampaign
	b     *clusterBisect
	phase string
	// index is the fuzz test index, or the position of the case in the
	// canonical selection order for reduce/bisect units.
	index    int
	locality string // preferred node, best-effort
}

func (u *workUnit) ownerID() string {
	if u.b != nil {
		return u.b.id
	}
	return u.c.id
}

// shardState is a leased in-flight shard: the units it was cut from, who
// holds it, and when the lease expires.
type shardState struct {
	c        *clusterCampaign
	b        *clusterBisect
	phase    string
	index    int // first unit's index; the wire Shard.Index and key suffix
	units    []*workUnit
	node     string    // leased to
	deadline time.Time // lease expiry
}

// ownerID is the job ID shard keys and wire shards carry: the bisection
// job's for bisect shards, the campaign's otherwise.
func (ss *shardState) ownerID() string {
	if ss.b != nil {
		return ss.b.id
	}
	return ss.c.id
}

func (ss *shardState) key() string {
	return fmt.Sprintf("%s/%s/%d", ss.ownerID(), ss.phase, ss.index)
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
	Campaigns      int          `json:"campaigns"`
	CampaignsDone  int          `json:"campaigns_done"`
	BisectJobs     int          `json:"bisect_jobs"`
	BisectJobsDone int          `json:"bisect_jobs_done"`
	JobsSkipped    uint64       `json:"jobs_skipped"`
	Runner         runner.Stats `json:"runner"`
	Replay         replay.Stats `json:"replay"`
	Bisect         bisect.Stats `json:"bisect"`
	Store          store.Stats  `json:"store"`
	Cluster        ClusterStats `json:"cluster"`
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

// Coordinator owns the authoritative store and campaign state of a cluster
// and serves both the campaign API and the worker protocol. It executes
// nothing itself: all fuzzing and reduction happens on workers; the
// coordinator shards, dispatches, journals, and merges.
type Coordinator struct {
	st   *store.Store
	opts Options
	memo *memostore.Store // nil without Options.Memo

	mu           sync.Mutex
	campaigns    map[string]*clusterCampaign
	order        []string
	nextID       int
	bisects      map[string]*clusterBisect
	bisectOrder  []string
	nextBisectID int
	nodes        map[string]*nodeState
	queue        []*workUnit            // pending units, FIFO
	leased       map[string]*shardState // shard key -> in flight
	sizers       map[string]*phaseSizer // phase -> adaptive sizing state

	shardsDispatched uint64
	shardsCompleted  uint64
	shardsRequeued   uint64
	shardsDuplicate  uint64
	skipped          uint64
	sync             SyncStats
}

// NewCoordinator builds a coordinator over an open store, replays the
// journal, and re-queues every shard of every unfinished campaign that has
// no journaled result. The caller keeps ownership of the store until Close.
func NewCoordinator(st *store.Store, opts Options) (*Coordinator, error) {
	opts.normalize()
	co := &Coordinator{
		st:           st,
		opts:         opts,
		memo:         opts.Memo,
		campaigns:    make(map[string]*clusterCampaign),
		nextID:       1,
		bisects:      make(map[string]*clusterBisect),
		nextBisectID: 1,
		nodes:        make(map[string]*nodeState),
		leased:       make(map[string]*shardState),
		sizers:       make(map[string]*phaseSizer),
	}
	if err := co.recover(); err != nil {
		return nil, err
	}
	return co, nil
}

// Close syncs the journal. The store itself stays open for the caller.
func (co *Coordinator) Close() error {
	return co.st.Journal().Sync()
}

func newClusterCampaign(id string, spec service.CampaignSpec) *clusterCampaign {
	return &clusterCampaign{
		id:        id,
		spec:      spec,
		state:     service.StatePending,
		testsDone: make(map[int][]service.BugRef),
		caseNode:  make(map[string]string),
		reduced:   make(map[string]service.ReducedRec),
	}
}

// recover rebuilds campaign and shard state from the journal, then
// re-activates unfinished campaigns: journaled shards are counted as
// skipped work, the rest re-enters the dispatch queue.
func (co *Coordinator) recover() error {
	err := co.st.Journal().Replay(func(r store.Record) error {
		switch r.Type {
		case recBisectCreated, recBisectDone, recBisectFailed:
			return co.recoverBisect(r)
		case recShardDone:
			// Bisect shard results are journaled under the job's ID.
			if j := co.bisects[r.Campaign]; j != nil {
				var rec shardDoneRec
				if err := json.Unmarshal(r.Data, &rec); err != nil {
					return err
				}
				for _, out := range rec.Bisects {
					j.outcomes[out.Case] = out
				}
				return nil
			}
		}
		c := co.campaigns[r.Campaign]
		if c == nil && r.Type != recCampaignCreated {
			return fmt.Errorf("cluster: journal references unknown campaign %q", r.Campaign)
		}
		switch r.Type {
		case recCampaignCreated:
			if c != nil {
				return fmt.Errorf("cluster: campaign %q created twice", r.Campaign)
			}
			var spec service.CampaignSpec
			if err := json.Unmarshal(r.Data, &spec); err != nil {
				return fmt.Errorf("cluster: campaign %q spec: %w", r.Campaign, err)
			}
			c = newClusterCampaign(r.Campaign, spec)
			co.campaigns[r.Campaign] = c
			co.order = append(co.order, r.Campaign)
		case recShardDone:
			var rec shardDoneRec
			if err := json.Unmarshal(r.Data, &rec); err != nil {
				return err
			}
			co.applyShard(c, rec)
		case recCampaignDone:
			// The bucket checkpoint is saved before campaign_done is
			// journaled; if it is nonetheless missing, the campaign stays
			// pending and the bucket build re-runs from the journaled shards.
			var set service.BucketSet
			ok, err := co.st.LoadCheckpoint("buckets-"+r.Campaign, &set)
			if err != nil || !ok {
				break
			}
			c.buckets = set.Buckets
			c.state = service.StateDone
		case recCampaignFailed:
			var rec campaignFailedRec
			if err := json.Unmarshal(r.Data, &rec); err != nil {
				return err
			}
			c.state = service.StateFailed
			c.errMsg = rec.Error
		}
		return nil
	})
	if err != nil {
		return err
	}
	for _, id := range co.order {
		var n int
		if _, scanErr := fmt.Sscanf(id, "c%d", &n); scanErr == nil && n >= co.nextID {
			co.nextID = n + 1
		}
	}
	for _, id := range co.bisectOrder {
		var n int
		if _, scanErr := fmt.Sscanf(id, "b%d", &n); scanErr == nil && n >= co.nextBisectID {
			co.nextBisectID = n + 1
		}
	}
	// Re-activate unfinished campaigns. Journal-satisfied steps become skip
	// counters (the cluster analogue of the service's checkpoint-reuse
	// metric); everything else re-enters the queue.
	for _, id := range co.order {
		c := co.campaigns[id]
		if c.state != service.StatePending {
			continue
		}
		c.skippedTests = len(c.testsDone)
		c.skippedReductions = len(c.reduced)
		co.skipped += uint64(c.skippedTests + c.skippedReductions)
		if err := co.activate(c); err != nil {
			return err
		}
	}
	// Re-activate unfinished bisect jobs the same way.
	for _, id := range co.bisectOrder {
		j := co.bisects[id]
		if j.state != service.StatePending {
			continue
		}
		j.skipped = len(j.outcomes)
		co.skipped += uint64(j.skipped)
		if err := co.activateBisect(j); err != nil {
			return err
		}
	}
	return nil
}

// recoverBisect applies one bisect-job journal record during recovery.
func (co *Coordinator) recoverBisect(r store.Record) error {
	j := co.bisects[r.Campaign]
	if j == nil && r.Type != recBisectCreated {
		return fmt.Errorf("cluster: journal references unknown bisect job %q", r.Campaign)
	}
	switch r.Type {
	case recBisectCreated:
		if j != nil {
			return fmt.Errorf("cluster: bisect job %q created twice", r.Campaign)
		}
		var rec bisectCreatedRec
		if err := json.Unmarshal(r.Data, &rec); err != nil {
			return fmt.Errorf("cluster: bisect job %q spec: %w", r.Campaign, err)
		}
		camp := co.campaigns[rec.Campaign]
		if camp == nil {
			return fmt.Errorf("cluster: bisect job %q references unknown campaign %q", r.Campaign, rec.Campaign)
		}
		j = &clusterBisect{
			id:       r.Campaign,
			camp:     camp,
			state:    service.StatePending,
			outcomes: make(map[string]service.BisectOutcome),
		}
		co.bisects[r.Campaign] = j
		co.bisectOrder = append(co.bisectOrder, r.Campaign)
	case recBisectDone:
		var set service.BisectSet
		ok, err := co.st.LoadCheckpoint("bisect-"+r.Campaign, &set)
		if err != nil || !ok {
			break // stays pending; recovery rebuilds from journaled verdicts
		}
		j.set = &set
		j.state = service.StateDone
	case recBisectFailed:
		var rec campaignFailedRec
		if err := json.Unmarshal(r.Data, &rec); err != nil {
			return err
		}
		j.state = service.StateFailed
		j.errMsg = rec.Error
	}
	return nil
}

// applyShard merges one journaled or freshly-reported shard result into the
// campaign state. Records are deterministic, so merging a duplicate is
// idempotent. Caller holds co.mu (or is in single-threaded recovery).
func (co *Coordinator) applyShard(c *clusterCampaign, rec shardDoneRec) {
	switch rec.Phase {
	case PhaseFuzz:
		for _, tr := range rec.Tests {
			c.testsDone[tr.Index] = tr.Bugs
			for _, bug := range tr.Bugs {
				c.caseNode[service.CaseName(c.id, bug)] = rec.Node
			}
		}
	case PhaseReduce:
		for _, rr := range rec.Reduced {
			c.reduced[rr.Case] = rr
		}
	}
}

// ensureCorpus builds (or idempotently rebuilds, after a restart) the
// campaign's ordered corpus manifest: every reference item encoded and
// stored as a blob. Encoding is deterministic, so the manifest — and with it
// every shard payload — is identical across coordinator restarts.
func (co *Coordinator) ensureCorpus(c *clusterCampaign) error {
	if c.corpus != nil {
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
	c.corpus = manifest
	return nil
}

// activate moves a pending campaign to its current phase and enqueues every
// unit without a journaled result. Caller holds co.mu (or recovery).
func (co *Coordinator) activate(c *clusterCampaign) error {
	if err := co.ensureCorpus(c); err != nil {
		return err
	}
	if len(c.testsDone) < c.spec.Tests {
		c.state = service.StateFuzzing
		for i := 0; i < c.spec.Tests; i++ {
			if _, ok := c.testsDone[i]; !ok {
				co.enqueue(&workUnit{c: c, phase: PhaseFuzz, index: i})
			}
		}
		return nil
	}
	return co.enterReduce(c)
}

// enterReduce runs the deterministic selection over the merged fuzz records
// and enqueues the missing reduction cases; with nothing left to reduce it
// goes straight to bucketing.
func (co *Coordinator) enterReduce(c *clusterCampaign) error {
	c.cases = service.SelectReductions(c.id, c.spec, c.testsDone)
	if len(c.reduced) >= len(c.cases) {
		return co.finish(c)
	}
	c.state = service.StateReducing
	for i, rc := range c.cases {
		if _, ok := c.reduced[rc.Name]; ok {
			continue
		}
		// Prefer the node that fuzzed the case: it already holds the
		// sequence blob, so the sync manifest dedupes fully.
		co.enqueue(&workUnit{c: c, phase: PhaseReduce, index: i, locality: c.caseNode[rc.Name]})
	}
	return nil
}

// finish builds the merged buckets, checkpoints them, and journals
// completion — the same build the single-node service runs, over records in
// the same canonical order.
func (co *Coordinator) finish(c *clusterCampaign) error {
	c.state = service.StateBucketing
	buckets, err := service.BuildBuckets(c.id, c.spec, c.cases, c.reduced)
	if err != nil {
		return err
	}
	set := service.BucketSet{Campaign: c.id, Buckets: buckets}
	if err := co.st.SaveCheckpoint("buckets-"+c.id, set); err != nil {
		return err
	}
	if _, err := co.st.Journal().Append(c.id, recCampaignDone, campaignDoneRec{Buckets: len(buckets)}); err != nil {
		return err
	}
	if err := co.st.Journal().Sync(); err != nil {
		return err
	}
	c.buckets = buckets
	c.state = service.StateDone
	return nil
}

// activateBisect lists the finished campaign's reduced cases in canonical
// selection order and enqueues every bisect shard (one per case group)
// without journaled verdicts. Caller holds co.mu (or recovery).
func (co *Coordinator) activateBisect(j *clusterBisect) error {
	c := j.camp
	if len(c.testsDone) < c.spec.Tests {
		return fmt.Errorf("cluster: bisect job %s: campaign %s has unmerged tests", j.id, c.id)
	}
	j.cases = service.SelectReductions(c.id, c.spec, c.testsDone)
	j.recs = make([]service.ReducedRec, len(j.cases))
	for i, rc := range j.cases {
		rec, ok := c.reduced[rc.Name]
		if !ok {
			return fmt.Errorf("cluster: bisect job %s: campaign %s case %s not reduced", j.id, c.id, rc.Name)
		}
		j.recs[i] = rec
	}
	if len(j.outcomes) >= len(j.recs) {
		return co.finishBisect(j)
	}
	j.state = service.StateBisecting
	for i, rec := range j.recs {
		if _, ok := j.outcomes[rec.Case]; ok {
			continue
		}
		// Prefer the node that fuzzed the case: its store already holds the
		// campaign corpus and likely the report blob.
		co.enqueue(&workUnit{c: c, b: j, phase: PhaseBisect, index: i, locality: c.caseNode[rec.Case]})
	}
	return nil
}

// finishBisect assembles the merged result set, checkpoints it, and journals
// completion — the same BuildBisectSet the single-node service runs, over
// records in the same canonical order, so the sharded set is bitwise-
// identical to a standalone run's. The transform-signal bucket count is
// rebuilt from the merged records rather than read off the campaign.
func (co *Coordinator) finishBisect(j *clusterBisect) error {
	c := j.camp
	buckets, err := service.BuildBuckets(c.id, c.spec, j.cases, c.reduced)
	if err != nil {
		return err
	}
	set, err := service.BuildBisectSet(j.id, c.id, j.cases, c.reduced, j.outcomes, len(buckets))
	if err != nil {
		return err
	}
	if err := co.st.SaveCheckpoint("bisect-"+j.id, set); err != nil {
		return err
	}
	if _, err := co.st.Journal().Append(j.id, recBisectDone, bisectDoneRec{BisectBuckets: set.BisectBuckets}); err != nil {
		return err
	}
	if err := co.st.Journal().Sync(); err != nil {
		return err
	}
	j.set = &set
	j.state = service.StateDone
	return nil
}

// failBisect marks a bisect job failed, journals it, and drops its shards.
func (co *Coordinator) failBisect(j *clusterBisect, msg string) {
	j.state = service.StateFailed
	j.errMsg = msg
	co.st.Journal().Append(j.id, recBisectFailed, campaignFailedRec{Error: msg})
	kept := co.queue[:0]
	for _, u := range co.queue {
		if u.b != j {
			kept = append(kept, u)
		}
	}
	co.queue = kept
	for k, ss := range co.leased {
		if ss.b == j {
			delete(co.leased, k)
		}
	}
}

// fail marks a campaign failed, journals it, and drops its queued shards.
func (co *Coordinator) fail(c *clusterCampaign, msg string) {
	c.state = service.StateFailed
	c.errMsg = msg
	// Best-effort: an unjournaled failure leaves the campaign resumable,
	// which is the safer outcome.
	co.st.Journal().Append(c.id, recCampaignFailed, campaignFailedRec{Error: msg})
	kept := co.queue[:0]
	for _, u := range co.queue {
		if u.c != c {
			kept = append(kept, u)
		}
	}
	co.queue = kept
	for k, ss := range co.leased {
		if ss.c == c {
			delete(co.leased, k)
		}
	}
}

func (co *Coordinator) enqueue(u *workUnit) {
	co.queue = append(co.queue, u)
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

// targetShardSize is how many units the next shard of a phase should carry:
// the configured per-phase maximum, or — with adaptive sizing on and
// observations in — the sizer's current target, never above the maximum.
func (co *Coordinator) targetShardSize(phase string) int {
	max := co.opts.ShardCases
	if phase == PhaseFuzz {
		max = co.opts.ShardTests
	}
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
		if u.locality == node {
			pick = i
			break
		}
	}
	first := co.queue[pick]
	units := []*workUnit{first}
	co.queue = append(co.queue[:pick], co.queue[pick+1:]...)
	target := co.targetShardSize(first.phase)
	for len(units) < target && pick < len(co.queue) {
		u := co.queue[pick]
		if u.c != first.c || u.b != first.b || u.phase != first.phase {
			break
		}
		if u.phase == PhaseFuzz && u.index != units[len(units)-1].index+1 {
			break
		}
		units = append(units, u)
		co.queue = append(co.queue[:pick], co.queue[pick+1:]...)
	}
	ss := &shardState{
		c:        first.c,
		b:        first.b,
		phase:    first.phase,
		index:    first.index,
		units:    units,
		node:     node,
		deadline: now.Add(co.opts.LeaseTTL),
	}
	co.leased[ss.key()] = ss
	co.shardsDispatched++

	sh := Shard{
		Campaign: ss.ownerID(),
		Phase:    ss.phase,
		Index:    ss.index,
		Spec:     ss.c.spec,
		Corpus:   ss.c.corpus,
	}
	switch ss.phase {
	case PhaseFuzz:
		sh.Lo = units[0].index
		sh.Hi = units[len(units)-1].index + 1
	case PhaseReduce:
		for _, u := range units {
			rc := ss.c.cases[u.index]
			sh.Cases = append(sh.Cases, rc)
			if size, ok := co.st.StatBlob(rc.Bug.SeqHash); ok {
				sh.Needs = append(sh.Needs, BlobRef{Hash: rc.Bug.SeqHash, Size: size})
			}
		}
	case PhaseBisect:
		for _, u := range units {
			rec := ss.b.recs[u.index]
			sh.Recs = append(sh.Recs, rec)
			if size, ok := co.st.StatBlob(rec.ReportHash); ok {
				sh.Needs = append(sh.Needs, BlobRef{Hash: rec.ReportHash, Size: size})
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
	max := co.opts.ShardCases
	if res.Phase == PhaseFuzz {
		max = co.opts.ShardTests
	}
	ps.retarget(co.opts.SyncFraction, max)
}

// Result merges a worker's shard result: journal first, then apply, then
// advance the campaign phase if the shard completed it. Duplicate results —
// a slow or prefetching node finishing a shard that was re-queued and
// completed elsewhere — are acknowledged and dropped; both executions
// produced identical records, so either journaling order yields the same
// campaign. Because shard geometry is a dispatch-time decision, duplicates
// are detected against the merged records (is every unit of this result
// already merged?), never against shard indices.
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
	if j := co.bisects[res.Campaign]; j != nil {
		return co.bisectResult(j, res)
	}
	c := co.campaigns[res.Campaign]
	if c == nil {
		return badRequest("cluster: result for unknown campaign %q", res.Campaign)
	}
	key := fmt.Sprintf("%s/%s/%d", res.Campaign, res.Phase, res.Index)
	delete(co.leased, key)
	dup := false
	switch res.Phase {
	case PhaseFuzz:
		dup = len(res.Tests) > 0
		for _, tr := range res.Tests {
			if _, ok := c.testsDone[tr.Index]; !ok {
				dup = false
				break
			}
		}
	case PhaseReduce:
		dup = len(res.Reduced) > 0 && len(c.cases) > 0
		for _, rr := range res.Reduced {
			if _, ok := c.reduced[rr.Case]; !ok {
				dup = false
				break
			}
		}
	default:
		return badRequest("cluster: result with unknown phase %q", res.Phase)
	}
	if dup || c.state == service.StateDone || c.state == service.StateFailed {
		co.shardsDuplicate++
		return nil
	}
	if res.Error != "" {
		co.fail(c, fmt.Sprintf("shard %s on %s: %s", key, res.Node, res.Error))
		return nil
	}
	rec := shardDoneRec{Phase: res.Phase, Index: res.Index, Node: res.Node, Tests: res.Tests, Reduced: res.Reduced}
	if _, err := co.st.Journal().Append(c.id, recShardDone, rec); err != nil {
		return err
	}
	co.applyShard(c, rec)
	co.shardsCompleted++
	co.observeShard(res, len(res.Tests)+len(res.Reduced))

	switch res.Phase {
	case PhaseFuzz:
		if len(c.testsDone) >= c.spec.Tests {
			if err := co.enterReduce(c); err != nil {
				co.fail(c, err.Error())
			}
		}
	case PhaseReduce:
		if len(c.reduced) >= len(c.cases) {
			if err := co.finish(c); err != nil {
				co.fail(c, err.Error())
			}
		}
	}
	return nil
}

// bisectResult merges one bisect shard result under the job's ID: journal
// first, then apply verdicts, then finish the job when every case is merged.
// Caller holds co.mu.
func (co *Coordinator) bisectResult(j *clusterBisect, res ShardResult) error {
	key := fmt.Sprintf("%s/%s/%d", res.Campaign, res.Phase, res.Index)
	delete(co.leased, key)
	if res.Phase != PhaseBisect {
		return badRequest("cluster: bisect job %s: result with phase %q", j.id, res.Phase)
	}
	dup := len(res.Bisects) > 0
	for _, out := range res.Bisects {
		if _, ok := j.outcomes[out.Case]; !ok {
			dup = false
			break
		}
	}
	if dup || j.state == service.StateDone || j.state == service.StateFailed {
		co.shardsDuplicate++
		return nil
	}
	if res.Error != "" {
		co.failBisect(j, fmt.Sprintf("shard %s on %s: %s", key, res.Node, res.Error))
		return nil
	}
	rec := shardDoneRec{Phase: res.Phase, Index: res.Index, Node: res.Node, Bisects: res.Bisects}
	if _, err := co.st.Journal().Append(j.id, recShardDone, rec); err != nil {
		return err
	}
	for _, out := range rec.Bisects {
		j.outcomes[out.Case] = out
	}
	co.shardsCompleted++
	co.observeShard(res, len(res.Bisects))
	if len(j.outcomes) >= len(j.recs) {
		if err := co.finishBisect(j); err != nil {
			co.failBisect(j, err.Error())
		}
	}
	return nil
}

// CreateBisect validates, journals, and activates a bisection job over a
// finished campaign. IDs follow the single-node service's scheme (b001,
// b002, ...).
func (co *Coordinator) CreateBisect(spec service.BisectSpec) (service.BisectStatus, error) {
	co.mu.Lock()
	defer co.mu.Unlock()
	if spec.Campaign == "" {
		return service.BisectStatus{}, fmt.Errorf("cluster: bisect needs a campaign ID")
	}
	c := co.campaigns[spec.Campaign]
	if c == nil {
		return service.BisectStatus{}, fmt.Errorf("cluster: no campaign %q", spec.Campaign)
	}
	if c.state != service.StateDone {
		return service.BisectStatus{}, fmt.Errorf("cluster: campaign %s is %s; bisection needs a finished campaign", c.id, c.state)
	}
	id := fmt.Sprintf("b%03d", co.nextBisectID)
	co.nextBisectID++
	j := &clusterBisect{
		id:       id,
		camp:     c,
		state:    service.StatePending,
		outcomes: make(map[string]service.BisectOutcome),
	}
	co.bisects[id] = j
	co.bisectOrder = append(co.bisectOrder, id)
	if _, err := co.st.Journal().Append(id, recBisectCreated, bisectCreatedRec{Campaign: c.id}); err != nil {
		return service.BisectStatus{}, err
	}
	if err := co.st.Journal().Sync(); err != nil {
		return service.BisectStatus{}, err
	}
	if err := co.activateBisect(j); err != nil {
		return service.BisectStatus{}, err
	}
	return j.status(), nil
}

// BisectJob returns the status of one bisection job.
func (co *Coordinator) BisectJob(id string) (service.BisectStatus, bool) {
	co.mu.Lock()
	defer co.mu.Unlock()
	j := co.bisects[id]
	if j == nil {
		return service.BisectStatus{}, false
	}
	return j.status(), true
}

// BisectJobs returns all bisection-job statuses in creation order.
func (co *Coordinator) BisectJobs() []service.BisectStatus {
	co.mu.Lock()
	defer co.mu.Unlock()
	out := make([]service.BisectStatus, 0, len(co.bisectOrder))
	for _, id := range co.bisectOrder {
		out = append(out, co.bisects[id].status())
	}
	return out
}

// BisectResult returns the merged result set of a finished bisection job.
func (co *Coordinator) BisectResult(id string) (service.BisectSet, error) {
	co.mu.Lock()
	defer co.mu.Unlock()
	j := co.bisects[id]
	if j == nil {
		return service.BisectSet{}, fmt.Errorf("cluster: no bisect job %q", id)
	}
	if j.set == nil {
		return service.BisectSet{}, fmt.Errorf("cluster: bisect job %s is %s, not done", id, j.state)
	}
	return *j.set, nil
}

// CreateCampaign validates, journals, and activates a new campaign. IDs
// follow the single-node service's scheme (c001, c002, ...), so case names
// — which embed the campaign ID — match a single-node run of the same spec.
func (co *Coordinator) CreateCampaign(spec service.CampaignSpec) (service.CampaignStatus, error) {
	if err := spec.Normalize(); err != nil {
		return service.CampaignStatus{}, err
	}
	if spec.CrossBucketPrecheck {
		// Each pre-check verdict depends on every minimized variant before it
		// in selection order — inherently serial, so sharding it would break
		// the bitwise-identical-merge guarantee.
		return service.CampaignStatus{}, fmt.Errorf("cluster: cross_bucket_precheck is serial and not cluster-shardable")
	}
	co.mu.Lock()
	defer co.mu.Unlock()
	id := fmt.Sprintf("c%03d", co.nextID)
	co.nextID++
	c := newClusterCampaign(id, spec)
	co.campaigns[id] = c
	co.order = append(co.order, id)
	if _, err := co.st.Journal().Append(id, recCampaignCreated, spec); err != nil {
		return service.CampaignStatus{}, err
	}
	if err := co.st.Journal().Sync(); err != nil {
		return service.CampaignStatus{}, err
	}
	if err := co.activate(c); err != nil {
		return service.CampaignStatus{}, err
	}
	return c.status(), nil
}

// Campaign returns the status of one campaign.
func (co *Coordinator) Campaign(id string) (service.CampaignStatus, bool) {
	co.mu.Lock()
	defer co.mu.Unlock()
	c := co.campaigns[id]
	if c == nil {
		return service.CampaignStatus{}, false
	}
	return c.status(), true
}

// Campaigns returns all campaign statuses in creation order.
func (co *Coordinator) Campaigns() []service.CampaignStatus {
	co.mu.Lock()
	defer co.mu.Unlock()
	out := make([]service.CampaignStatus, 0, len(co.order))
	for _, id := range co.order {
		out = append(out, co.campaigns[id].status())
	}
	return out
}

// Buckets mirrors service.Buckets: the merged recommended reports of every
// finished campaign, or of one campaign when id is non-empty.
func (co *Coordinator) Buckets(id string) ([]service.BucketSet, error) {
	co.mu.Lock()
	defer co.mu.Unlock()
	ids := co.order
	if id != "" {
		if co.campaigns[id] == nil {
			return nil, fmt.Errorf("cluster: no campaign %q", id)
		}
		ids = []string{id}
	}
	var out []service.BucketSet
	for _, cid := range ids {
		c := co.campaigns[cid]
		set := service.BucketSet{Campaign: cid, Buckets: append([]service.Bucket(nil), c.buckets...)}
		if id != "" || len(set.Buckets) > 0 {
			out = append(out, set)
		}
	}
	return out, nil
}

// ReportBlob returns the raw reduced-report blob stored under hash.
func (co *Coordinator) ReportBlob(hash string) ([]byte, error) {
	return co.st.GetBlob(hash)
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
		rep.Hits += ns.replay.Hits
		rep.FullHits += ns.replay.FullHits
		rep.Misses += ns.replay.Misses
		rep.Applied += ns.replay.Applied
		rep.Requested += ns.replay.Requested
		rep.Snapshots += ns.replay.Snapshots
		rep.Bytes += ns.replay.Bytes
		rep.Evictions += ns.replay.Evictions
		rep.Sessions += ns.replay.Sessions
	}
	m := Metrics{
		JobsSkipped: co.skipped,
		Runner:      runner.MergeStats(groups),
		Replay:      rep,
		Bisect:      bis,
		Store:       co.st.Stats(),
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
		max := co.opts.ShardCases
		if phase == PhaseFuzz {
			max = co.opts.ShardTests
		}
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
	for _, id := range co.order {
		m.Campaigns++
		if co.campaigns[id].state == service.StateDone {
			m.CampaignsDone++
		}
	}
	for _, id := range co.bisectOrder {
		m.BisectJobs++
		if co.bisects[id].state == service.StateDone {
			m.BisectJobsDone++
		}
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
