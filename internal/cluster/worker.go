package cluster

import (
	"context"
	"fmt"
	"math/rand"
	"net/http"
	"sort"
	"time"

	"spirvfuzz/internal/bisect"
	"spirvfuzz/internal/corpus"
	"spirvfuzz/internal/memostore"
	"spirvfuzz/internal/replay"
	"spirvfuzz/internal/runner"
	"spirvfuzz/internal/service"
	"spirvfuzz/internal/store"
)

// WorkerOptions configures a worker node.
type WorkerOptions struct {
	// Node is the worker's cluster-unique name.
	Node string
	// Coordinator is the coordinator's base URL (e.g. "http://127.0.0.1:8080").
	Coordinator string
	// StoreDir roots the worker's local content-addressed store (its blob
	// cache; workers keep no journal).
	StoreDir string
	// Workers sizes the local runner engine's pool; <= 0 selects GOMAXPROCS.
	Workers int
	// MemoDir, when non-empty, attaches a persistent execution memo store
	// at that directory and syncs it with the coordinator's hub (pull
	// missing records at join and before each shard, push new ones after
	// each shard). Memoized results are bitwise-identical to re-execution,
	// so shard results are unaffected — a warm node just skips work.
	MemoDir string
	// MemoMaxBytes bounds the memo store's segment bytes; <= 0 selects
	// memostore.DefaultMaxBytes. Ignored without MemoDir.
	MemoMaxBytes int64
	// Poll is the initial idle backoff between work requests; <= 0 selects
	// 10ms. Idle sleeps are jittered and double up to PollMax, resetting
	// whenever work arrives.
	Poll time.Duration
	// PollMax caps the idle backoff; <= 0 selects 500ms.
	PollMax time.Duration
}

// prefetched is a shard whose lease and blob sync already happened, plus the
// sync traffic that cost; the Run loop hands it straight to execution.
type prefetched struct {
	shard Shard
	sync  SyncStats
}

// Worker is one pull-model cluster node: it loops requesting shards from the
// coordinator, syncs the blobs each shard references into its local store
// (fetching only what it lacks — the hash negotiation), executes the shard
// on its local runner and replay engine via the shared service step
// functions, pushes result blobs the coordinator lacks, and reports the
// merged-ready records. Workers are stateless above their blob cache: kill
// one at any point and its leased shards re-queue on the coordinator.
type Worker struct {
	opts     WorkerOptions
	st       *store.Store
	eng      *runner.Engine
	reng     *replay.Engine
	beng     *bisect.Engine
	hc       *http.Client
	leaseTTL time.Duration

	// Idle-backoff state (Run loop only): current delay and the jitter rng.
	idle time.Duration
	rng  *rand.Rand

	// pendingSync accumulates transport traffic that has no shard to bill
	// yet — the join exchange, the warm memo pull, the round trip that
	// carried the previous result — and drains into the next shard's
	// report. Run loop only.
	pendingSync SyncStats

	// inFlight is the outcome channel of the one asynchronous report the
	// pipelined loop may have outstanding; nil when none. Run loop only.
	inFlight chan reportOutcome

	// Memo-sync state (nil/zero without WorkerOptions.MemoDir). The marks
	// are the incremental cursors of the two sync directions. All are
	// touched only from the Run loop.
	memo     *memostore.Store
	memoSync bool
	pullMark uint64
	pushMark uint64

	// Decoded reference-corpus cache, keyed by the manifest's joined hashes
	// (content-addressed, so a perfect cache key).
	refsKey string
	refs    []corpus.Item
}

// NewWorker builds a worker over a local store directory.
func NewWorker(opts WorkerOptions) (*Worker, error) {
	if opts.Node == "" {
		return nil, fmt.Errorf("cluster: worker needs a node name")
	}
	if opts.Poll <= 0 {
		opts.Poll = 10 * time.Millisecond
	}
	if opts.PollMax <= 0 {
		opts.PollMax = 500 * time.Millisecond
	}
	if opts.PollMax < opts.Poll {
		opts.PollMax = opts.Poll
	}
	st, err := store.Open(opts.StoreDir)
	if err != nil {
		return nil, err
	}
	eng := runner.New(opts.Workers)
	w := &Worker{
		opts:     opts,
		st:       st,
		eng:      eng,
		reng:     new(replay.Engine),
		beng:     bisect.New(eng),
		hc:       newWorkerClient(),
		leaseTTL: 5 * time.Second,
		rng:      rand.New(rand.NewSource(time.Now().UnixNano())),
	}
	if opts.MemoDir != "" {
		memo, err := memostore.Open(opts.MemoDir, opts.MemoMaxBytes)
		if err != nil {
			st.Close()
			return nil, err
		}
		w.memo = memo
		w.memoSync = true
		eng.SetMemoStore(memo)
	}
	return w, nil
}

// Close releases the worker's local store and memo store.
func (w *Worker) Close() error {
	err := w.st.Close()
	if w.memo != nil {
		if merr := w.memo.Close(); err == nil {
			err = merr
		}
	}
	return err
}

// Run joins the cluster and processes shards until ctx is canceled. Errors
// talking to the coordinator (down, restarting) are retried with jittered
// exponential backoff; deterministic shard failures are reported so the
// coordinator can fail the campaign rather than re-dispatch forever.
func (w *Worker) Run(ctx context.Context) error {
	for ctx.Err() == nil {
		var jr joinResponse
		err := w.post(ctx, "/cluster/join", joinRequest{Node: w.opts.Node, ProcToken: runner.ProcessToken()}, &jr, &w.pendingSync)
		if err == nil {
			if jr.LeaseTTLMS > 0 {
				w.leaseTTL = time.Duration(jr.LeaseTTLMS) * time.Millisecond
			}
			w.gotWork()
			// Warm-start: pull the cluster's accumulated execution memo
			// before taking any work. A rejoining cold node skips every
			// execution the cluster has already done.
			w.pullMemo(ctx, &w.pendingSync)
			break
		}
		if !w.idleSleep(ctx) {
			return ctx.Err()
		}
	}
	// Before returning, collect any report still in flight so Close never
	// races a goroutine still reading the store (it exits promptly once ctx
	// is canceled).
	defer w.joinReport()
	// ahead is the shard leased and synced behind the previous execution.
	var ahead *prefetched
	for ctx.Err() == nil {
		cur := ahead
		if cur != nil {
			cur.sync.Prefetched++
		} else if cur = w.prefetch(ctx); cur == nil {
			// No work, or the sync failed (coordinator blip): an abandoned
			// lease expires and the shard re-queues.
			if !w.idleSleep(ctx) {
				break
			}
			continue
		}
		w.gotWork()
		// Pipeline: lease + sync the next shard while this one executes.
		// The execute loop's heartbeats are node-wide, so they keep every
		// in-flight lease alive — the executing shard, the prefetched one,
		// and an unacknowledged report's.
		pf := make(chan *prefetched, 1)
		go func() { pf <- w.prefetch(ctx) }()
		res, produced := w.execute(ctx, &cur.shard, cur.sync)
		if ctx.Err() != nil {
			// Killed mid-shard: report nothing; the leases expire and the
			// coordinator re-queues every in-flight shard.
			break
		}
		// The report's round trips overlap the next shard's execution. At
		// most one report is outstanding, joined before the next one starts
		// (and before any memo-cursor use), so the Run loop's state never
		// races the sender.
		w.joinReport()
		rep := w.prepareReport(&res, produced)
		ch := make(chan reportOutcome, 1)
		go func() { ch <- w.sendReport(ctx, rep) }()
		w.inFlight = ch
		ahead = <-pf
	}
	return ctx.Err()
}

// reportOutcome is what an asynchronous report hands back to the Run loop:
// traffic to bill to the next shard and the memo push cursor to commit.
type reportOutcome struct {
	sync     SyncStats
	pushMark uint64
	pushed   int
}

// joinReport blocks until the in-flight report (if any) lands and applies
// its outcome to the Run loop's state.
func (w *Worker) joinReport() {
	if w.inFlight == nil {
		return
	}
	w.applyReport(<-w.inFlight)
	w.inFlight = nil
}

// tryJoinReport applies the in-flight report's outcome if it already landed.
// Returns true when no report remains outstanding afterwards.
func (w *Worker) tryJoinReport() bool {
	if w.inFlight == nil {
		return true
	}
	select {
	case o := <-w.inFlight:
		w.applyReport(o)
		w.inFlight = nil
		return true
	default:
		return false
	}
}

func (w *Worker) applyReport(o reportOutcome) {
	w.pendingSync.add(o.sync)
	if o.pushMark > w.pushMark {
		w.pushMark = o.pushMark
	}
	if o.pushed > 0 && w.memo != nil {
		w.memo.AddPushed(o.pushed)
	}
}

// prefetch leases and blob-syncs one shard, ahead of execution or (when
// nothing was prefetched) inline. A nil return means no work was pending or
// the sync failed; an abandoned lease expires and re-queues, so dropping a
// prefetch is always safe.
func (w *Worker) prefetch(ctx context.Context) *prefetched {
	p := &prefetched{}
	start := time.Now()
	ok, err := w.next(ctx, &p.shard, &p.sync)
	if err != nil || !ok {
		return nil
	}
	if err := w.syncShardBlobs(ctx, &p.shard, &p.sync); err != nil {
		return nil
	}
	p.sync.Nanos += time.Since(start).Nanoseconds()
	return p
}

func sleepCtx(ctx context.Context, d time.Duration) bool {
	select {
	case <-time.After(d):
		return true
	case <-ctx.Done():
		return false
	}
}

// idleSleep sleeps the current backoff (jittered to [d/2, d)) and doubles it
// toward PollMax, so an idle fleet's /cluster/next polls thin out and spread
// instead of arriving in lockstep. Returns false when ctx ended.
func (w *Worker) idleSleep(ctx context.Context) bool {
	d := w.idle
	if d <= 0 {
		d = w.opts.Poll
	}
	jittered := d/2 + time.Duration(w.rng.Int63n(int64(d/2)+1))
	if !sleepCtx(ctx, jittered) {
		return false
	}
	w.idle = d * 2
	if w.idle > w.opts.PollMax {
		w.idle = w.opts.PollMax
	}
	return true
}

// gotWork resets the idle backoff to its floor.
func (w *Worker) gotWork() { w.idle = 0 }

// speculativePushMax bounds how many produced bytes a report will
// push without a has-negotiation round trip first.
const speculativePushMax = 64 << 10

// next asks the coordinator for a shard; false means no work is pending.
func (w *Worker) next(ctx context.Context, sh *Shard, sync *SyncStats) (bool, error) {
	status, err := postWire(ctx, w.hc, w.opts.Coordinator, "/cluster/next", nodeRequest{Node: w.opts.Node}, sh, sync)
	if err != nil {
		return false, err
	}
	return status == http.StatusOK, nil
}

// post sends a JSON request body and decodes a JSON response into out,
// accounting the traffic into sync (nil for unattributed requests like
// heartbeats, which still count process-wide).
func (w *Worker) post(ctx context.Context, path string, body, out any, sync *SyncStats) error {
	_, err := postWire(ctx, w.hc, w.opts.Coordinator, path, body, out, sync)
	return err
}

// syncShardBlobs pulls every blob the shard references (corpus manifest and
// extra needs) that the local store lacks, in one multi-key round trip.
// Every ref counts as referenced bytes; only the missing ones transfer.
func (w *Worker) syncShardBlobs(ctx context.Context, sh *Shard, sync *SyncStats) error {
	var missing []string
	seen := map[string]bool{}
	for _, refs := range [][]BlobRef{sh.Corpus, sh.Needs} {
		for _, ref := range refs {
			sync.BlobsReferenced++
			sync.BytesReferenced += uint64(ref.Size)
			if !w.st.HasBlob(ref.Hash) && !seen[ref.Hash] {
				seen[ref.Hash] = true
				missing = append(missing, ref.Hash)
			}
		}
	}
	if len(missing) == 0 {
		return nil
	}
	var sr syncResponse
	if err := w.post(ctx, "/cluster/sync", syncRequest{Node: w.opts.Node, BlobFetch: missing}, &sr, sync); err != nil {
		return err
	}
	if len(sr.Blobs) != len(missing) {
		return fmt.Errorf("cluster: sync fetch returned %d blobs for %d hashes", len(sr.Blobs), len(missing))
	}
	hashes, err := w.st.PutBatch(sr.Blobs)
	if err != nil {
		return err
	}
	for i, h := range hashes {
		if h != missing[i] {
			return fmt.Errorf("cluster: fetched blob %s hashes to %s", missing[i], h)
		}
		sync.BlobsTransferred++
		sync.BytesTransferred += uint64(len(sr.Blobs[i]))
	}
	return nil
}

// execute runs one already-synced shard and assembles its result. The
// heartbeat goroutine keeps the node's leases alive — this shard's and any
// concurrently prefetched one — for shards that outlast the TTL (long
// reductions). Returns the result and the produced blob hashes for report
// to upload.
func (w *Worker) execute(ctx context.Context, sh *Shard, pre SyncStats) (ShardResult, []string) {
	res := ShardResult{
		Campaign:  sh.Campaign,
		Phase:     sh.Phase,
		Index:     sh.Index,
		Node:      w.opts.Node,
		ProcToken: runner.ProcessToken(),
		Sync:      pre,
	}
	// Traffic with no shard of its own (join, warm pull, the previous
	// result's round trip) bills to this shard.
	res.Sync.add(w.pendingSync)
	w.pendingSync = SyncStats{}
	hbCtx, stopHB := context.WithCancel(ctx)
	defer stopHB()
	go func() {
		t := time.NewTicker(w.leaseTTL / 3)
		defer t.Stop()
		for {
			select {
			case <-hbCtx.Done():
				return
			case <-t.C:
				w.post(hbCtx, "/cluster/heartbeat", nodeRequest{Node: w.opts.Node}, nil, nil)
			}
		}
	}()
	if w.tryJoinReport() {
		// Pick up records other workers pushed meanwhile — but never while
		// a report is still in flight (the memo cursors belong to it until
		// it lands; skipping a pull costs nothing but a few re-executions).
		start := time.Now()
		w.pullMemo(ctx, &res.Sync)
		res.Sync.Nanos += time.Since(start).Nanoseconds()
	}
	start := time.Now()
	produced, err := w.executeInner(ctx, sh, &res)
	res.ServiceNanos = time.Since(start).Nanoseconds()
	if err != nil && ctx.Err() == nil {
		res.Error = err.Error()
	}
	res.Runner = w.eng.Stats()
	res.Replay = w.reng.Stats()
	res.Bisect = w.beng.Stats()
	return res, produced
}

// reportPrep is a report snapshot the Run loop assembles before handing the
// delivery to a goroutine: after prepareReport, sending touches no Run-loop
// state (the blob store and memo store are safe for concurrent readers).
type reportPrep struct {
	res       *ShardResult
	offer     []BlobRef
	memoKeys  []memostore.Key
	memoOffer []string
	memoMark  uint64
	start     time.Time
}

// prepareReport snapshots everything a report needs: the produced
// blob manifest (with sizes) and the memo keys appended since the last push
// cursor. Run loop only.
func (w *Worker) prepareReport(res *ShardResult, produced []string) reportPrep {
	rep := reportPrep{res: res, start: time.Now()}
	for _, h := range dedupeHashes(produced) {
		size, ok := w.st.StatBlob(h)
		if !ok {
			if res.Error == "" {
				res.Error = fmt.Sprintf("cluster: produced blob %s missing locally", h)
			}
			continue
		}
		rep.offer = append(rep.offer, BlobRef{Hash: h, Size: size})
		res.Sync.BlobsReferenced++
		res.Sync.BytesReferenced += uint64(size)
	}
	if w.memo != nil && w.memoSync {
		w.memo.Flush()
		rep.memoKeys, rep.memoMark = w.memo.KeysSince(w.pushMark)
		for _, k := range rep.memoKeys {
			rep.memoOffer = append(rep.memoOffer, k.String())
		}
	}
	return rep
}

// sendReport delivers a prepared report: round trip 1 offers the produced
// blob manifest and new memo keys (accounted into the result's own sync
// stats, since the result has not been marshaled yet); round trip 2 pushes
// the wanted bodies with the shard result folded in, retrying until it lands
// or ctx ends. Safe to run concurrently with the Run loop — it touches only
// the prep snapshot, the (concurrency-safe) stores, and its own outcome.
func (w *Worker) sendReport(ctx context.Context, rep reportPrep) reportOutcome {
	var out reportOutcome
	res := rep.res
	// Speculative push: produced blobs are almost always new to the
	// coordinator (fresh reduction reports, fresh bug sequences), so when
	// the whole payload is small the offer round trip costs more latency
	// than the negotiation could ever save in bytes. Push unconditionally
	// in that case — the coordinator's put-if-absent store makes a
	// redundant body harmless, and the size gate bounds the waste. Memo
	// offers always negotiate: other nodes routinely hold the same keys.
	speculative := len(rep.memoOffer) == 0
	if speculative {
		total := uint64(0)
		for _, ref := range rep.offer {
			total += uint64(ref.Size)
		}
		speculative = total <= speculativePushMax
	}
	var sr syncResponse
	if speculative {
		sr.BlobWant = make([]bool, len(rep.offer))
		for i := range sr.BlobWant {
			sr.BlobWant[i] = true
		}
	} else if len(rep.offer) > 0 || len(rep.memoOffer) > 0 {
		for ctx.Err() == nil {
			err := w.post(ctx, "/cluster/sync", syncRequest{Node: w.opts.Node, BlobOffer: rep.offer, MemoOffer: rep.memoOffer}, &sr, &res.Sync)
			if err == nil {
				break
			}
			sleepCtx(ctx, w.opts.Poll)
		}
		if ctx.Err() != nil {
			return out
		}
	}
	push := syncRequest{Node: w.opts.Node, Result: res}
	for i, want := range sr.BlobWant {
		if !want || i >= len(rep.offer) {
			continue
		}
		data, err := w.st.GetBlob(rep.offer[i].Hash)
		if err != nil {
			continue
		}
		push.BlobPush = append(push.BlobPush, data)
		res.Sync.BlobsTransferred++
		res.Sync.BytesTransferred += uint64(len(data))
	}
	for i, want := range sr.MemoWant {
		if !want || i >= len(rep.memoKeys) {
			continue
		}
		if rec, ok := w.memo.GetRecord(rep.memoKeys[i]); ok {
			push.MemoPush = append(push.MemoPush, memoRecord{K: rec.Key.String(), T: rec.Kind, D: rec.Data})
		}
	}
	res.Sync.MemoPushed += uint64(len(push.MemoPush))
	res.Sync.Nanos += time.Since(rep.start).Nanoseconds()
	for ctx.Err() == nil {
		var resp syncResponse
		// This round trip carries the result, so its own bytes bill to the
		// next shard via the outcome.
		if err := w.post(ctx, "/cluster/sync", push, &resp, &out.sync); err == nil {
			// Commit the push cursor only after delivery; a retry after a
			// failed attempt re-offers idempotently.
			out.pushMark = rep.memoMark
			out.pushed = len(push.MemoPush)
			return out
		}
		sleepCtx(ctx, w.opts.Poll)
	}
	return out
}

func dedupeHashes(hashes []string) []string {
	uniq := map[string]bool{}
	var manifest []string
	for _, h := range hashes {
		if h == "" || uniq[h] {
			continue
		}
		uniq[h] = true
		manifest = append(manifest, h)
	}
	sort.Strings(manifest)
	return manifest
}

// executeInner runs the shard's units (blobs already synced) and returns the
// produced blob hashes for the report to upload.
func (w *Worker) executeInner(ctx context.Context, sh *Shard, res *ShardResult) ([]string, error) {
	refs, err := w.decodeRefs(sh)
	if err != nil {
		return nil, err
	}
	env := service.Env{Eng: w.eng, Reng: w.reng, Blobs: w.st}
	switch sh.Phase {
	case service.PhaseFuzz:
		targets, err := service.ResolveTargets(sh.Spec.Targets)
		if err != nil {
			return nil, err
		}
		donors := corpus.Donors()
		var produced []string
		for i := sh.Lo; i < sh.Hi; i++ {
			bugs, err := service.FuzzStep(ctx, env, sh.Spec, targets, refs, donors, i)
			if err != nil {
				return produced, err
			}
			res.Tests = append(res.Tests, service.TestDone{Index: i, Bugs: bugs})
			for _, bug := range bugs {
				produced = append(produced, bug.SeqHash)
			}
		}
		return produced, nil
	case service.PhaseReduce:
		var produced []string
		for _, rc := range sh.Cases {
			rec, err := service.ReduceStep(ctx, env, sh.Campaign, sh.Spec, refs, rc)
			if err != nil {
				return produced, err
			}
			res.Reduced = append(res.Reduced, rec)
			produced = append(produced, rec.ReportHash)
		}
		return produced, nil
	case service.PhaseBisect:
		for _, rec := range sh.Recs {
			out, err := service.BisectStep(ctx, env, w.beng, refs, rec)
			if err != nil {
				return nil, err
			}
			res.Bisects = append(res.Bisects, out)
		}
		// Verdicts travel in the result record itself; no blobs to push.
		return nil, nil
	default:
		return nil, fmt.Errorf("cluster: unknown shard phase %q", sh.Phase)
	}
}

// decodeRefs decodes the shard's (already-synced) corpus manifest to
// reference items, memoizing the decode across shards of the same campaign
// (the manifest is content-addressed, so the joined hash is a perfect cache
// key). Run loop only — the prefetch goroutine syncs blobs but never touches
// this cache.
func (w *Worker) decodeRefs(sh *Shard) ([]corpus.Item, error) {
	key := ""
	for _, ref := range sh.Corpus {
		key += ref.Hash
	}
	if key == w.refsKey {
		return w.refs, nil
	}
	refs := make([]corpus.Item, 0, len(sh.Corpus))
	for _, ref := range sh.Corpus {
		data, err := w.st.GetBlob(ref.Hash)
		if err != nil {
			return nil, err
		}
		it, err := decodeCorpusItem(data)
		if err != nil {
			return nil, err
		}
		refs = append(refs, it)
	}
	w.refsKey, w.refs = key, refs
	return refs, nil
}
