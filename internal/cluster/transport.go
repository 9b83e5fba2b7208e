package cluster

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net"
	"net/http"
	"strings"
	"sync/atomic"
	"time"

	"spirvfuzz/internal/service"
)

// The worker↔coordinator transport. One tuned http.Transport is shared by
// every worker client in the process: connections are kept alive and reused
// across shards (the per-shard protocol is many small JSON posts to one
// host, the worst case for connection churn), and bodies in both directions
// are gzip-coded above a size floor. Both sides of every exchange are
// counted — raw JSON bytes vs bytes on the wire, and round trips — so the
// batching and compression wins are observable in SyncStats and /metrics
// rather than asserted.

// gzipMinBytes is the smallest body worth compressing: below it the gzip
// header overhead and the CPU both lose. JSON shard payloads and blob
// batches are far above it; heartbeats and join requests stay identity.
const gzipMinBytes = 512

// sharedTransport is the process-wide tuned transport. MaxIdleConnsPerHost
// is raised from the default 2 — a worker talks to exactly one host and the
// prefetch goroutine posts concurrently with execution and heartbeats, so
// the default would re-dial on almost every overlapped request.
var sharedTransport = &http.Transport{
	DialContext: (&net.Dialer{
		Timeout:   5 * time.Second,
		KeepAlive: 30 * time.Second,
	}).DialContext,
	TLSHandshakeTimeout:   5 * time.Second,
	ResponseHeaderTimeout: 60 * time.Second,
	MaxIdleConns:          64,
	MaxIdleConnsPerHost:   16,
	IdleConnTimeout:       90 * time.Second,
	// Compression is negotiated explicitly (and counted); the transport's
	// transparent mode would hide the wire bytes from the counters.
	DisableCompression: true,
}

// newWorkerClient returns an http.Client over the shared transport. There is
// deliberately no Client.Timeout: shard-scoped contexts bound every request,
// and a whole-request timeout would sever long blob batches on slow links
// while doing nothing a context does not already do.
func newWorkerClient() *http.Client {
	return &http.Client{Transport: sharedTransport}
}

// WireStats is the process-wide transport counter snapshot: every worker
// request this process made, including heartbeats and result posts that are
// not attributed to any one shard's SyncStats. Surfaced in gfauto -json and
// usable as a before/after delta around a campaign.
type WireStats struct {
	RoundTrips   uint64 `json:"round_trips"`
	WireBytesOut uint64 `json:"wire_bytes_out"`
	WireBytesIn  uint64 `json:"wire_bytes_in"`
	RawBytesOut  uint64 `json:"raw_bytes_out"`
	RawBytesIn   uint64 `json:"raw_bytes_in"`
	// CompressedBodies counts request/response bodies that crossed the wire
	// gzip-coded (0 when every body was below the size floor).
	CompressedBodies uint64 `json:"compressed_bodies"`
}

var procWire struct {
	roundTrips, wireOut, wireIn, rawOut, rawIn, compressed atomic.Uint64
}

// SnapshotWire returns the process-wide transport totals.
func SnapshotWire() WireStats {
	return WireStats{
		RoundTrips:       procWire.roundTrips.Load(),
		WireBytesOut:     procWire.wireOut.Load(),
		WireBytesIn:      procWire.wireIn.Load(),
		RawBytesOut:      procWire.rawOut.Load(),
		RawBytesIn:       procWire.rawIn.Load(),
		CompressedBodies: procWire.compressed.Load(),
	}
}

// Sub returns the counter delta s - o (for before/after measurements).
func (s WireStats) Sub(o WireStats) WireStats {
	return WireStats{
		RoundTrips:       s.RoundTrips - o.RoundTrips,
		WireBytesOut:     s.WireBytesOut - o.WireBytesOut,
		WireBytesIn:      s.WireBytesIn - o.WireBytesIn,
		RawBytesOut:      s.RawBytesOut - o.RawBytesOut,
		RawBytesIn:       s.RawBytesIn - o.RawBytesIn,
		CompressedBodies: s.CompressedBodies - o.CompressedBodies,
	}
}

// errBodyTooLarge reports a response body over service.MaxBodyBytes.
var errBodyTooLarge = fmt.Errorf("body exceeds %d bytes", service.MaxBodyBytes)

// readBounded reads r to EOF, failing with errBodyTooLarge as soon as it
// yields more than service.MaxBodyBytes, so a runaway or decompression-bomb
// response costs at most the cap.
func readBounded(r io.Reader) ([]byte, error) {
	b, err := io.ReadAll(io.LimitReader(r, service.MaxBodyBytes+1))
	if err != nil {
		return nil, err
	}
	if len(b) > service.MaxBodyBytes {
		return nil, errBodyTooLarge
	}
	return b, nil
}

// postWire is the counting, compression-negotiating JSON round trip every
// worker request goes through. The request body is gzip-coded when it clears
// the size floor, and a gzip response is always welcome. Counters accrue
// into sync (when non-nil) and always into the process-wide totals. Returns
// the HTTP status (with out decoded on 200) so callers can special-case 204
// no-work.
func postWire(ctx context.Context, hc *http.Client, base, path string, body, out any, sync *SyncStats) (int, error) {
	raw, err := json.Marshal(body)
	if err != nil {
		return 0, err
	}
	wire := raw
	encoding := ""
	if len(raw) >= gzipMinBytes {
		var buf bytes.Buffer
		if err := service.WriteGzip(&buf, raw); err != nil {
			return 0, err
		}
		wire = buf.Bytes()
		encoding = "gzip"
	}
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, base+path, bytes.NewReader(wire))
	if err != nil {
		return 0, err
	}
	req.Header.Set("Content-Type", "application/json")
	if encoding != "" {
		req.Header.Set("Content-Encoding", encoding)
	}
	req.Header.Set("Accept-Encoding", "gzip")
	resp, err := hc.Do(req)
	if err != nil {
		return 0, err
	}
	defer resp.Body.Close()
	respWire, err := readBounded(resp.Body)
	if err != nil {
		return 0, fmt.Errorf("cluster: %s: response: %w", path, err)
	}
	respRaw := respWire
	if strings.EqualFold(resp.Header.Get("Content-Encoding"), "gzip") {
		zr, err := service.OpenGzipReader(bytes.NewReader(respWire))
		if err != nil {
			return 0, fmt.Errorf("cluster: %s: bad gzip response: %w", path, err)
		}
		respRaw, err = readBounded(zr)
		zr.Release()
		if err != nil {
			return 0, fmt.Errorf("cluster: %s: bad gzip response: %w", path, err)
		}
		procWire.compressed.Add(1)
	}
	if encoding != "" {
		procWire.compressed.Add(1)
	}
	procWire.roundTrips.Add(1)
	procWire.wireOut.Add(uint64(len(wire)))
	procWire.wireIn.Add(uint64(len(respWire)))
	procWire.rawOut.Add(uint64(len(raw)))
	procWire.rawIn.Add(uint64(len(respRaw)))
	if sync != nil {
		sync.RoundTrips++
		sync.WireBytesOut += uint64(len(wire))
		sync.WireBytesIn += uint64(len(respWire))
		sync.RawBytesOut += uint64(len(raw))
		sync.RawBytesIn += uint64(len(respRaw))
	}
	switch resp.StatusCode {
	case http.StatusOK, http.StatusCreated:
		if out == nil {
			return resp.StatusCode, nil
		}
		return resp.StatusCode, json.Unmarshal(respRaw, out)
	case http.StatusNoContent:
		return resp.StatusCode, nil
	default:
		if len(respRaw) > 1024 {
			respRaw = respRaw[:1024]
		}
		return resp.StatusCode, fmt.Errorf("cluster: %s: %s: %s", path, resp.Status, respRaw)
	}
}
