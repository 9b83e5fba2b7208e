package cluster

import (
	"compress/gzip"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"strings"

	"spirvfuzz/internal/service"
)

// MaxBodyBytes caps every HTTP body a spirvd process reads, both as sent and
// after gzip decoding: requests to the coordinator and to the standalone
// daemon, and coordinator responses read by workers. The largest body a
// 500-test benchmark campaign sends is a ~40 KB /cluster/sync, so honest
// peers stay far below it; a decompression bomb or runaway peer is cut off
// (413 on the serving side, an error on the reading side) instead of being
// buffered whole.
const MaxBodyBytes = 16 << 20

// ReadJSON decodes a request body that may carry Content-Encoding: gzip —
// the worker protocol negotiates compression per request, and every handler
// must accept both codings so mixed clusters (compressing and legacy
// workers against one coordinator) need no handshake. A body over
// MaxBodyBytes, raw or decoded, fails with *http.MaxBytesError. The
// standalone daemon's handlers decode through it too.
func ReadJSON(w http.ResponseWriter, r *http.Request, v any) error {
	body := http.MaxBytesReader(w, r.Body, MaxBodyBytes)
	if strings.EqualFold(r.Header.Get("Content-Encoding"), "gzip") {
		zr, err := gzip.NewReader(body)
		if err != nil {
			return fmt.Errorf("bad gzip request body: %w", err)
		}
		body = http.MaxBytesReader(w, zr, MaxBodyBytes)
		defer body.Close()
	}
	return json.NewDecoder(body).Decode(v)
}

// RequestStatus is the status answering a request whose body ReadJSON
// rejected: 413 when the body overran MaxBodyBytes, 400 otherwise.
func RequestStatus(err error) int {
	var tooBig *http.MaxBytesError
	if errors.As(err, &tooBig) {
		return http.StatusRequestEntityTooLarge
	}
	return http.StatusBadRequest
}

// requestError answers a request whose body ReadJSON rejected.
func requestError(w http.ResponseWriter, err error) {
	clusterError(w, RequestStatus(err), err)
}

// acceptsGzip reports whether the client explicitly asked for gzip
// responses. Workers send Accept-Encoding explicitly either way, so this is
// the negotiation bit, not a heuristic.
func acceptsGzip(r *http.Request) bool {
	return strings.Contains(r.Header.Get("Accept-Encoding"), "gzip")
}

// Mux returns the coordinator's complete HTTP API: the same campaign
// endpoints spirvd serves in standalone mode (so the spirvd client and the
// e2e harness work unchanged against a coordinator), plus the worker
// protocol (/cluster/*) and the blob-sync endpoints (/blobs/*). All
// payloads are JSON; errors are {"error": "..."} with a matching status.
func (co *Coordinator) Mux() *http.ServeMux {
	mux := http.NewServeMux()

	// Campaign API, mirroring cmd/spirvd's standalone mux.
	mux.HandleFunc("POST /campaigns", func(w http.ResponseWriter, r *http.Request) {
		var spec service.CampaignSpec
		if err := ReadJSON(w, r, &spec); err != nil {
			requestError(w, err)
			return
		}
		status, err := co.CreateCampaign(spec)
		if err != nil {
			clusterError(w, http.StatusBadRequest, err)
			return
		}
		clusterJSON(w, http.StatusCreated, status)
	})
	mux.HandleFunc("GET /campaigns", func(w http.ResponseWriter, r *http.Request) {
		clusterJSON(w, http.StatusOK, co.Campaigns())
	})
	mux.HandleFunc("GET /campaigns/{id}", func(w http.ResponseWriter, r *http.Request) {
		status, ok := co.Campaign(r.PathValue("id"))
		if !ok {
			clusterError(w, http.StatusNotFound, fmt.Errorf("no campaign %q", r.PathValue("id")))
			return
		}
		clusterJSON(w, http.StatusOK, status)
	})
	mux.HandleFunc("GET /buckets", func(w http.ResponseWriter, r *http.Request) {
		sets, err := co.Buckets(r.URL.Query().Get("campaign"))
		if err != nil {
			clusterError(w, http.StatusNotFound, err)
			return
		}
		if sets == nil {
			sets = []service.BucketSet{}
		}
		clusterJSON(w, http.StatusOK, sets)
	})
	mux.HandleFunc("GET /reports/{hash}", func(w http.ResponseWriter, r *http.Request) {
		blob, err := co.ReportBlob(r.PathValue("hash"))
		if err != nil {
			clusterError(w, http.StatusNotFound, err)
			return
		}
		w.Header().Set("Content-Type", "application/json")
		w.Write(blob)
	})
	mux.HandleFunc("POST /bisect", func(w http.ResponseWriter, r *http.Request) {
		var spec service.BisectSpec
		if err := ReadJSON(w, r, &spec); err != nil {
			requestError(w, err)
			return
		}
		status, err := co.CreateBisect(spec)
		if err != nil {
			clusterError(w, http.StatusBadRequest, err)
			return
		}
		clusterJSON(w, http.StatusCreated, status)
	})
	mux.HandleFunc("GET /bisect", func(w http.ResponseWriter, r *http.Request) {
		clusterJSON(w, http.StatusOK, co.BisectJobs())
	})
	mux.HandleFunc("GET /bisect/{id}", func(w http.ResponseWriter, r *http.Request) {
		status, ok := co.BisectJob(r.PathValue("id"))
		if !ok {
			clusterError(w, http.StatusNotFound, fmt.Errorf("no bisect job %q", r.PathValue("id")))
			return
		}
		clusterJSON(w, http.StatusOK, status)
	})
	mux.HandleFunc("GET /bisect/{id}/result", func(w http.ResponseWriter, r *http.Request) {
		set, err := co.BisectResult(r.PathValue("id"))
		if err != nil {
			clusterError(w, http.StatusNotFound, err)
			return
		}
		clusterJSON(w, http.StatusOK, set)
	})
	mux.HandleFunc("GET /metrics", func(w http.ResponseWriter, r *http.Request) {
		clusterJSON(w, http.StatusOK, co.Metrics())
	})

	// Worker protocol.
	mux.HandleFunc("POST /cluster/join", func(w http.ResponseWriter, r *http.Request) {
		var req joinRequest
		if err := ReadJSON(w, r, &req); err != nil {
			requestError(w, err)
			return
		}
		if req.Node == "" {
			clusterError(w, http.StatusBadRequest, fmt.Errorf("join needs a node name"))
			return
		}
		ttl := co.Join(req.Node, req.ProcToken)
		clusterJSONN(w, r, http.StatusOK, joinResponse{OK: true, LeaseTTLMS: ttl.Milliseconds()})
	})
	mux.HandleFunc("POST /cluster/next", func(w http.ResponseWriter, r *http.Request) {
		var req nodeRequest
		if err := ReadJSON(w, r, &req); err != nil {
			requestError(w, err)
			return
		}
		if req.Node == "" {
			clusterError(w, http.StatusBadRequest, fmt.Errorf("next needs a node name"))
			return
		}
		sh, ok := co.Next(req.Node)
		if !ok {
			w.WriteHeader(http.StatusNoContent)
			return
		}
		clusterJSONN(w, r, http.StatusOK, sh)
	})
	mux.HandleFunc("POST /cluster/heartbeat", func(w http.ResponseWriter, r *http.Request) {
		var req nodeRequest
		if err := ReadJSON(w, r, &req); err != nil {
			requestError(w, err)
			return
		}
		if req.Node == "" {
			clusterError(w, http.StatusBadRequest, fmt.Errorf("heartbeat needs a node name"))
			return
		}
		co.Heartbeat(req.Node)
		clusterJSONN(w, r, http.StatusOK, okResponse{OK: true})
	})
	mux.HandleFunc("POST /cluster/result", func(w http.ResponseWriter, r *http.Request) {
		var res ShardResult
		if err := ReadJSON(w, r, &res); err != nil {
			requestError(w, err)
			return
		}
		if err := co.Result(res); err != nil {
			clusterError(w, http.StatusBadRequest, err)
			return
		}
		clusterJSONN(w, r, http.StatusOK, okResponse{OK: true})
	})
	// Batched protocol: one round trip folds blob pushes/fetches/offers,
	// memo sync legs, and optionally the shard result itself. Responses are
	// compact JSON with negotiated gzip.
	mux.HandleFunc("POST /cluster/sync", func(w http.ResponseWriter, r *http.Request) {
		var req syncRequest
		if err := ReadJSON(w, r, &req); err != nil {
			requestError(w, err)
			return
		}
		resp, err := co.SyncBatch(req)
		if err != nil {
			clusterError(w, http.StatusBadRequest, err)
			return
		}
		clusterJSONC(w, r, http.StatusOK, resp)
	})

	// Blob-sync protocol against the coordinator's authoritative store.
	mux.HandleFunc("POST /blobs/has", func(w http.ResponseWriter, r *http.Request) {
		var req hasRequest
		if err := ReadJSON(w, r, &req); err != nil {
			requestError(w, err)
			return
		}
		clusterJSONN(w, r, http.StatusOK, hasResponse{Has: co.st.HasBatch(req.Hashes)})
	})
	mux.HandleFunc("POST /blobs/put", func(w http.ResponseWriter, r *http.Request) {
		var req putRequest
		if err := ReadJSON(w, r, &req); err != nil {
			requestError(w, err)
			return
		}
		hashes, err := co.st.PutBatch(req.Blobs)
		if err != nil {
			clusterError(w, http.StatusInternalServerError, err)
			return
		}
		clusterJSONN(w, r, http.StatusOK, putResponse{Hashes: hashes})
	})
	mux.HandleFunc("POST /blobs/fetch", func(w http.ResponseWriter, r *http.Request) {
		var req fetchRequest
		if err := ReadJSON(w, r, &req); err != nil {
			requestError(w, err)
			return
		}
		blobs, err := co.st.GetBatch(req.Hashes)
		if err != nil {
			clusterError(w, http.StatusNotFound, err)
			return
		}
		clusterJSONN(w, r, http.StatusOK, fetchResponse{Blobs: blobs})
	})

	// Memo-sync protocol against the coordinator's memo hub. All four
	// endpoints are nil-safe: a coordinator without a memo store answers
	// /memo/keys with ok=false (the worker disables sync) and degrades the
	// rest to no-ops, so mixed deployments need no configuration handshake.
	mux.HandleFunc("POST /memo/keys", func(w http.ResponseWriter, r *http.Request) {
		var req memoKeysRequest
		if err := ReadJSON(w, r, &req); err != nil {
			requestError(w, err)
			return
		}
		clusterJSONN(w, r, http.StatusOK, co.memoKeys(req.Since))
	})
	mux.HandleFunc("POST /memo/has", func(w http.ResponseWriter, r *http.Request) {
		var req memoHasRequest
		if err := ReadJSON(w, r, &req); err != nil {
			requestError(w, err)
			return
		}
		clusterJSONN(w, r, http.StatusOK, co.memoHas(req.Keys))
	})
	mux.HandleFunc("POST /memo/fetch", func(w http.ResponseWriter, r *http.Request) {
		var req memoFetchRequest
		if err := ReadJSON(w, r, &req); err != nil {
			requestError(w, err)
			return
		}
		resp, err := co.memoFetch(req.Keys)
		if err != nil {
			clusterError(w, http.StatusBadRequest, err)
			return
		}
		clusterJSONN(w, r, http.StatusOK, resp)
	})
	mux.HandleFunc("POST /memo/push", func(w http.ResponseWriter, r *http.Request) {
		var req memoPushRequest
		if err := ReadJSON(w, r, &req); err != nil {
			requestError(w, err)
			return
		}
		if _, err := co.memoPush(req.Records); err != nil {
			clusterError(w, http.StatusBadRequest, err)
			return
		}
		clusterJSONN(w, r, http.StatusOK, okResponse{OK: true})
	})
	return mux
}

func clusterJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	enc.Encode(v)
}

// clusterJSONN is clusterJSON with negotiated response compression: the
// same indented encoding the protocol has always used (so a legacy worker
// sees byte-identical responses), gzip-coded only when the client asked for
// it and the body clears the size floor.
func clusterJSONN(w http.ResponseWriter, r *http.Request, status int, v any) {
	data, err := json.MarshalIndent(v, "", "  ")
	if err != nil {
		clusterError(w, http.StatusInternalServerError, err)
		return
	}
	data = append(data, '\n')
	writeNegotiated(w, r, status, data)
}

// clusterJSONC is the batched endpoint's encoder: compact JSON (the batched
// protocol is new, so there is no byte image to preserve and no reason to
// ship indentation), gzip negotiated the same way.
func clusterJSONC(w http.ResponseWriter, r *http.Request, status int, v any) {
	data, err := json.Marshal(v)
	if err != nil {
		clusterError(w, http.StatusInternalServerError, err)
		return
	}
	writeNegotiated(w, r, status, data)
}

func writeNegotiated(w http.ResponseWriter, r *http.Request, status int, data []byte) {
	w.Header().Set("Content-Type", "application/json")
	if acceptsGzip(r) && len(data) >= gzipMinBytes {
		w.Header().Set("Content-Encoding", "gzip")
		w.WriteHeader(status)
		zw := gzip.NewWriter(w)
		zw.Write(data)
		zw.Close()
		return
	}
	w.WriteHeader(status)
	w.Write(data)
}

func clusterError(w http.ResponseWriter, status int, err error) {
	clusterJSON(w, status, map[string]string{"error": err.Error()})
}
