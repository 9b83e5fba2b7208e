// Package cluster distributes spirvd campaigns across worker nodes: a
// coordinator shards each campaign's seed range into jobs, dispatches them
// over HTTP/JSON to pull-model workers, and merges the returned records into
// one campaign result.
//
// The design leans entirely on two properties the single-node pipeline
// already has:
//
//   - Every pipeline step is deterministic in (spec, step index), and the
//     coordinator and workers run the *same* step functions
//     (internal/service.FuzzStep, ReduceStep, SelectReductions,
//     BuildBuckets). Fuzz shards are contiguous test-index ranges whose
//     boundaries do not depend on the node count; reduction selection and
//     bucket deduplication run centrally on the coordinator over the merged
//     per-test records, in the same canonical order a single node uses. So a
//     3-node campaign — including one where a worker was SIGKILL'd and its
//     shards re-dispatched — produces buckets bitwise-identical to a
//     single-node run.
//
//   - Artifacts are content-addressed (internal/store), so blob transfer is
//     a hash negotiation: each shard carries a (hash, size) manifest of the
//     blobs it needs, a worker fetches only the ones its local store lacks,
//     and pushes back only result blobs the coordinator does not already
//     have. Repeated references — sequences that reduce on the node that
//     fuzzed them, re-pushed artifacts after a rejoin — cost nothing on the
//     wire. The dedup fraction (1 − transferred/referenced bytes) is
//     tracked per shard and reported in coordinator /metrics. What a node
//     can recompute — the reference corpus, the donors — is never shipped.
//
// Workers hold no durable campaign state. The coordinator records every
// unit of a shard result through the same journaled service.Machine a
// standalone daemon uses — so either role can resume the other's store —
// re-queues shards whose lease expired (node killed mid-shard), and on
// restart replays the journal and re-dispatches only the missing units.
package cluster

import (
	"fmt"

	"spirvfuzz/internal/bisect"
	"spirvfuzz/internal/replay"
	"spirvfuzz/internal/runner"
	"spirvfuzz/internal/service"
)

// BlobRef names a blob by content hash and size. Manifests of BlobRefs are
// how shards describe their inputs: the size lets both sides account
// referenced bytes without transferring anything.
type BlobRef struct {
	Hash string `json:"hash"`
	Size int64  `json:"size"`
}

// Shard is one dispatchable unit of campaign work. A fuzz shard covers the
// contiguous test range [Lo, Hi); a reduce shard carries its selected cases
// explicitly. Every shard embeds the normalized spec; the reference corpus
// and the donors are deterministic, so each worker builds them itself and
// needs no out-of-band configuration.
type Shard struct {
	// Campaign is the owning job's ID: a campaign ID for fuzz/reduce shards,
	// a bisection-job ID ("b001", ...) for bisect shards.
	Campaign string               `json:"campaign"`
	Phase    string               `json:"phase"`
	Index    int                  `json:"index"`
	Spec     service.CampaignSpec `json:"spec"`
	Lo       int                  `json:"lo,omitempty"`
	Hi       int                  `json:"hi,omitempty"`
	Cases    []service.ReduceCase `json:"cases,omitempty"`
	// Recs carries a bisect shard's case group: the reduction records whose
	// report blobs (listed in Needs) the worker replays and bisects.
	Recs []service.ReducedRec `json:"recs,omitempty"`
	// Needs lists the shard's input blobs: for reduce shards the journaled
	// transformation sequences, for bisect shards the reduced report blobs
	// of the cases. Fuzz shards need none.
	Needs []BlobRef `json:"needs,omitempty"`
}

// Key identifies a shard uniquely within a coordinator.
func (s *Shard) Key() string {
	return fmt.Sprintf("%s/%s/%d", s.Campaign, s.Phase, s.Index)
}

// ShardResult is a worker's report for one executed shard.
type ShardResult struct {
	Campaign  string `json:"campaign"`
	Phase     string `json:"phase"`
	Index     int    `json:"index"`
	Node      string `json:"node"`
	ProcToken string `json:"proc_token"`
	// Error marks a deterministic shard failure; re-dispatching would fail
	// identically, so the coordinator fails the campaign.
	Error string `json:"error,omitempty"`
	// Tests carries fuzz-phase results; their artifacts were pushed to the
	// coordinator by hash, and the coordinator sets their Node.
	Tests   []service.TestDone      `json:"tests,omitempty"`
	Reduced []service.ReducedRec    `json:"reduced,omitempty"`
	Bisects []service.BisectOutcome `json:"bisects,omitempty"`
	// Sync is this shard's blob-sync delta (both directions, as accounted by
	// the worker); Runner, Replay and Bisect are the node's cumulative engine
	// snapshots, aggregated coordinator-side (runner.MergeStats for Runner)
	// so process-wide counters are never double-counted.
	Sync   SyncStats    `json:"sync"`
	Runner runner.Stats `json:"runner"`
	Replay replay.Stats `json:"replay"`
	Bisect bisect.Stats `json:"bisect"`
	// ServiceNanos is the wall time the worker spent executing the shard's
	// units (excluding sync), the numerator of the coordinator's adaptive
	// shard-sizing EWMA.
	ServiceNanos int64 `json:"service_nanos,omitempty"`
}

// SyncStats accounts blob-sync traffic: how many bytes shard manifests
// referenced versus how many actually crossed the wire. The gap is the
// content-address dedup the protocol gets for free.
type SyncStats struct {
	BlobsReferenced  uint64 `json:"blobs_referenced"`
	BytesReferenced  uint64 `json:"bytes_referenced"`
	BlobsTransferred uint64 `json:"blobs_transferred"`
	BytesTransferred uint64 `json:"bytes_transferred"`
	// MemoPulled and MemoPushed count execution-memo records the worker
	// received from / sent to the coordinator around this shard (the
	// join-time warm pull is attributed to the node's first shard). Zero
	// when either side runs without a memo store.
	MemoPulled uint64 `json:"memo_pulled,omitempty"`
	MemoPushed uint64 `json:"memo_pushed,omitempty"`
	// Transport accounting: coordinator round trips made for this shard, and
	// the body bytes that crossed the wire versus their raw (pre-gzip) JSON
	// size, both directions. The raw/wire gap is the compression win; the
	// round-trip count is what batching collapses.
	RoundTrips   uint64 `json:"round_trips,omitempty"`
	WireBytesOut uint64 `json:"wire_bytes_out,omitempty"`
	WireBytesIn  uint64 `json:"wire_bytes_in,omitempty"`
	RawBytesOut  uint64 `json:"raw_bytes_out,omitempty"`
	RawBytesIn   uint64 `json:"raw_bytes_in,omitempty"`
	// Prefetched counts shards whose lease+sync were pipelined behind the
	// previous shard's execution; Nanos is the wall time spent syncing
	// (wherever it ran), the denominator of the adaptive-sizing EWMA.
	Prefetched uint64 `json:"prefetched,omitempty"`
	Nanos      int64  `json:"nanos,omitempty"`
}

func (s *SyncStats) add(o SyncStats) {
	s.BlobsReferenced += o.BlobsReferenced
	s.BytesReferenced += o.BytesReferenced
	s.BlobsTransferred += o.BlobsTransferred
	s.BytesTransferred += o.BytesTransferred
	s.MemoPulled += o.MemoPulled
	s.MemoPushed += o.MemoPushed
	s.RoundTrips += o.RoundTrips
	s.WireBytesOut += o.WireBytesOut
	s.WireBytesIn += o.WireBytesIn
	s.RawBytesOut += o.RawBytesOut
	s.RawBytesIn += o.RawBytesIn
	s.Prefetched += o.Prefetched
	s.Nanos += o.Nanos
}

// DedupFraction returns the fraction of referenced bytes that did NOT need
// transferring; 0 before any reference.
func (s SyncStats) DedupFraction() float64 {
	if s.BytesReferenced == 0 {
		return 0
	}
	return 1 - float64(s.BytesTransferred)/float64(s.BytesReferenced)
}

// Wire bodies of the coordinator's /cluster/ endpoints. [][]byte fields
// marshal as arrays of base64 strings, which is the blob encoding on the
// wire.
type (
	joinRequest struct {
		Node      string `json:"node"`
		ProcToken string `json:"proc_token"`
	}
	joinResponse struct {
		OK         bool  `json:"ok"`
		LeaseTTLMS int64 `json:"lease_ttl_ms"`
	}
	nodeRequest struct {
		Node string `json:"node"`
	}
	okResponse struct {
		OK bool `json:"ok"`
	}

	// syncRequest/syncResponse carry all blob and memo sync and the shard
	// result: one POST /cluster/sync round trip folds any subset of the
	// legs below. Every field is optional; the coordinator processes pushes
	// before the folded Result (so merged records always see their blobs)
	// and queries last. Any /cluster/sync request also renews the node's
	// leases, so a sync exchange doubles as a heartbeat.
	syncRequest struct {
		Node string `json:"node"`
		// Blob legs: fetch by hash, offer refs (response says which to push
		// next time), push bodies.
		BlobFetch []string  `json:"blob_fetch,omitempty"`
		BlobOffer []BlobRef `json:"blob_offer,omitempty"`
		BlobPush  [][]byte  `json:"blob_push,omitempty"`
		// Memo legs: list keys since a cursor, fetch records, offer keys
		// (response says which to push), push records.
		MemoSince *uint64      `json:"memo_since,omitempty"`
		MemoFetch []string     `json:"memo_fetch,omitempty"`
		MemoOffer []string     `json:"memo_offer,omitempty"`
		MemoPush  []memoRecord `json:"memo_push,omitempty"`
		// Result, when set, is the shard report folded into this round trip.
		Result *ShardResult `json:"result,omitempty"`
	}
	syncResponse struct {
		OK          bool         `json:"ok"`
		Blobs       [][]byte     `json:"blobs,omitempty"`
		BlobWant    []bool       `json:"blob_want,omitempty"`
		MemoOK      bool         `json:"memo_ok,omitempty"`
		MemoKeys    []string     `json:"memo_keys,omitempty"`
		MemoMark    uint64       `json:"memo_mark,omitempty"`
		MemoRecords []memoRecord `json:"memo_records,omitempty"`
		MemoWant    []bool       `json:"memo_want,omitempty"`
	}
)
