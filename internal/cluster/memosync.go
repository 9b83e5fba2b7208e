package cluster

import (
	"context"

	"spirvfuzz/internal/memostore"
)

// Memo sync has the same shape as blob sync — hash negotiation in both
// directions — but over memo records instead of blobs, and its legs ride in
// /cluster/sync bodies: MemoSince lists the coordinator's record keys
// appended after a cursor, a worker fetches (MemoFetch) only the ones its
// local store lacks, and offers (MemoOffer) then pushes (MemoPush) only new
// records the coordinator does not have. Records are content-addressed by
// execution key and their payloads deterministic, so put-if-absent merging
// is conflict-free by construction.
type memoRecord struct {
	K string `json:"k"` // hex execution key
	T uint8  `json:"t"` // record kind
	D []byte `json:"d"` // payload (base64 on the wire)
}

// memoKeys lists the coordinator's record keys appended after since, plus
// the new cursor. ok is false when the coordinator runs without a memo
// store; the worker then disables sync for the rest of its run.
func (co *Coordinator) memoKeys(since uint64) (keys []string, mark uint64, ok bool) {
	if co.memo == nil {
		return nil, 0, false
	}
	ks, mark := co.memo.KeysSince(since)
	for _, k := range ks {
		keys = append(keys, k.String())
	}
	return keys, mark, true
}

// memoHas answers which of the named records the coordinator already holds.
// Unparseable keys report false (the worker's push will surface the error).
func (co *Coordinator) memoHas(keys []string) []bool {
	has := make([]bool, len(keys))
	if co.memo == nil {
		return has
	}
	for i, s := range keys {
		if k, err := memostore.ParseKey(s); err == nil {
			has[i] = co.memo.Has(k)
		}
	}
	return has
}

// memoFetch returns the requested records. Keys the store no longer holds
// (evicted between the keys listing and the fetch) are silently omitted;
// the worker matches records by key, not by index.
func (co *Coordinator) memoFetch(keys []string) ([]memoRecord, error) {
	if co.memo == nil {
		return nil, nil
	}
	var recs []memoRecord
	for _, s := range keys {
		k, err := memostore.ParseKey(s)
		if err != nil {
			return nil, badRequest("cluster: memo fetch key %q: %w", s, err)
		}
		if rec, ok := co.memo.GetRecord(k); ok {
			recs = append(recs, memoRecord{K: rec.Key.String(), T: rec.Kind, D: rec.Data})
		}
	}
	co.memo.AddPushed(len(recs))
	return recs, nil
}

// memoPush merges worker-pushed records put-if-absent and returns how many
// were new. A coordinator without a memo store accepts and drops them.
func (co *Coordinator) memoPush(wrecs []memoRecord) (int, error) {
	if co.memo == nil {
		return 0, nil
	}
	recs := make([]memostore.Record, 0, len(wrecs))
	for _, wr := range wrecs {
		k, err := memostore.ParseKey(wr.K)
		if err != nil {
			return 0, badRequest("cluster: memo push key %q: %w", wr.K, err)
		}
		if co.memo.Has(k) {
			continue
		}
		recs = append(recs, memostore.Record{Key: k, Kind: wr.T, Data: wr.D})
	}
	if len(recs) == 0 {
		return 0, nil
	}
	if err := co.memo.PutBatch(recs); err != nil {
		return 0, err
	}
	co.memo.AddPulled(len(recs))
	return len(recs), nil
}

// pullMemo syncs coordinator memo records into the worker's local store:
// list keys since the last pull cursor, fetch only the locally-missing
// ones, merge put-if-absent. Called at join (warm start for a cold node)
// and before each shard (picks up records other workers pushed meanwhile).
// Sync errors are swallowed — the memo is an optimization; every record it
// would have saved simply re-executes. Traffic accrues into sync.
func (w *Worker) pullMemo(ctx context.Context, sync *SyncStats) {
	if w.memo == nil || !w.memoSync {
		return
	}
	since := w.pullMark
	var kr syncResponse
	if err := w.post(ctx, "/cluster/sync", syncRequest{Node: w.opts.Node, MemoSince: &since}, &kr, sync); err != nil {
		return
	}
	if !kr.MemoOK {
		w.memoSync = false
		return
	}
	w.pullMark = kr.MemoMark
	var missing []string
	for _, s := range kr.MemoKeys {
		k, err := memostore.ParseKey(s)
		if err != nil {
			return
		}
		if !w.memo.Has(k) {
			missing = append(missing, s)
		}
	}
	if len(missing) == 0 {
		return
	}
	var fr syncResponse
	if err := w.post(ctx, "/cluster/sync", syncRequest{Node: w.opts.Node, MemoFetch: missing}, &fr, sync); err != nil {
		return
	}
	recs := make([]memostore.Record, 0, len(fr.MemoRecords))
	for _, wr := range fr.MemoRecords {
		k, err := memostore.ParseKey(wr.K)
		if err != nil {
			return
		}
		recs = append(recs, memostore.Record{Key: k, Kind: wr.T, Data: wr.D})
	}
	if err := w.memo.PutBatch(recs); err != nil {
		return
	}
	w.memo.AddPulled(len(recs))
	sync.MemoPulled += uint64(len(recs))
	// Pulled records advanced the local seq counter; move the push cursor
	// past them so they are not offered straight back to the coordinator.
	if _, mark := w.memo.KeysSince(w.pushMark); mark > w.pushMark {
		w.pushMark = mark
	}
}
