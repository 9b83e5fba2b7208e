package store

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
)

// Batch blob-sync primitives. A cluster worker negotiates transfers by hash:
// it asks which of a shard's referenced blobs the peer already has
// (HasBatch), then ships only the missing ones (PutBatch) or pulls them
// (GetBatch). Content addressing makes the negotiation trivially sound —
// equal hash means equal bytes — and the Sync* counters in Stats record the
// store-side view of that traffic so dedup savings are measurable.

// HasBatch reports, element-wise, whether each hash is stored. Malformed
// hashes report false rather than erroring, matching HasBlob.
func (s *Store) HasBatch(hashes []string) []bool {
	out := make([]bool, len(hashes))
	for i, h := range hashes {
		out[i] = s.HasBlob(h)
	}
	s.syncHasQueries.Add(uint64(len(hashes)))
	return out
}

// PutBatch stores each blob under its content address and returns the hashes
// in order, appending every new blob to the blob log in one write. Blobs
// arriving over the sync protocol count as SyncBlobsIn / SyncBytesIn on top
// of the usual PutBlob accounting.
func (s *Store) PutBatch(blobs [][]byte) ([]string, error) {
	hs := make([]blobKey, len(blobs))
	for i, b := range blobs {
		hs[i] = sha256.Sum256(b)
	}
	written, err := s.blobs.putBatch(hs, blobs)
	if err != nil {
		return nil, fmt.Errorf("store: put batch: %w", err)
	}
	hashes := make([]string, len(blobs))
	for i, b := range blobs {
		hashes[i] = hex.EncodeToString(hs[i][:])
		s.countPut(written[i], len(b))
		s.syncBlobsIn.Add(1)
		s.syncBytesIn.Add(uint64(len(b)))
	}
	return hashes, nil
}

// GetBatch returns the blobs stored under hashes, in order. Blobs leaving
// over the sync protocol count as SyncBlobsOut / SyncBytesOut.
func (s *Store) GetBatch(hashes []string) ([][]byte, error) {
	out := make([][]byte, len(hashes))
	for i, h := range hashes {
		b, err := s.GetBlob(h)
		if err != nil {
			return nil, err
		}
		out[i] = b
		s.syncBlobsOut.Add(1)
		s.syncBytesOut.Add(uint64(len(b)))
	}
	return out, nil
}

// StatBlob returns the stored size of a blob without reading it, and whether
// it exists. Sync manifests carry (hash, size) pairs so referenced bytes can
// be accounted without transferring anything.
func (s *Store) StatBlob(hash string) (int64, bool) {
	h, err := parseHash(hash)
	if err != nil {
		return 0, false
	}
	sp, _, ok := s.blobs.lookup(h)
	return sp.n, ok
}
