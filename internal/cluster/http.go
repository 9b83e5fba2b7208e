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

// statusError is a /cluster/sync failure the client caused, with the status
// that answers it. Errors without one are coordinator store or journal
// failures and answer 500.
type statusError struct {
	status int
	err    error
}

func (e *statusError) Error() string { return e.err.Error() }
func (e *statusError) Unwrap() error { return e.err }

// badRequest is a malformed sync leg: an unknown campaign or phase, a bad
// key or hash.
func badRequest(format string, args ...any) error {
	return &statusError{http.StatusBadRequest, fmt.Errorf(format, args...)}
}

// syncStatus maps a SyncBatch error to its HTTP status.
func syncStatus(err error) int {
	var se *statusError
	if errors.As(err, &se) {
		return se.status
	}
	return http.StatusInternalServerError
}

// Mux returns the coordinator's complete HTTP API: the campaign API every
// spirvd role serves (service.NewMux, so the spirvd client and the e2e
// harness work unchanged against a coordinator), plus the worker protocol
// under /cluster/.
func (co *Coordinator) Mux() *http.ServeMux {
	mux := service.NewMux(co, func() any { return co.Metrics() })
	mux.HandleFunc("POST /cluster/join", func(w http.ResponseWriter, r *http.Request) {
		var req joinRequest
		if !readNodeRequest(w, r, &req, &req.Node, "join") {
			return
		}
		ttl := co.Join(req.Node, req.ProcToken)
		writeWire(w, r, joinResponse{OK: true, LeaseTTLMS: ttl.Milliseconds()})
	})
	mux.HandleFunc("POST /cluster/next", func(w http.ResponseWriter, r *http.Request) {
		var req nodeRequest
		if !readNodeRequest(w, r, &req, &req.Node, "next") {
			return
		}
		sh, ok := co.Next(req.Node)
		if !ok {
			w.WriteHeader(http.StatusNoContent)
			return
		}
		writeWire(w, r, sh)
	})
	mux.HandleFunc("POST /cluster/heartbeat", func(w http.ResponseWriter, r *http.Request) {
		var req nodeRequest
		if !readNodeRequest(w, r, &req, &req.Node, "heartbeat") {
			return
		}
		co.Heartbeat(req.Node)
		writeWire(w, r, okResponse{OK: true})
	})
	// One round trip folds blob pushes/fetches/offers, memo sync legs, and
	// optionally the shard result itself.
	mux.HandleFunc("POST /cluster/sync", func(w http.ResponseWriter, r *http.Request) {
		var req syncRequest
		if err := service.ReadJSON(w, r, &req); err != nil {
			service.WriteError(w, service.RequestStatus(err), err)
			return
		}
		resp, err := co.SyncBatch(req)
		if err != nil {
			service.WriteError(w, syncStatus(err), err)
			return
		}
		writeWire(w, r, resp)
	})
	return mux
}

// readNodeRequest decodes a join/next/heartbeat body into req and checks
// that it names its node (*node); on failure it has answered the request.
func readNodeRequest(w http.ResponseWriter, r *http.Request, req any, node *string, verb string) bool {
	if err := service.ReadJSON(w, r, req); err != nil {
		service.WriteError(w, service.RequestStatus(err), err)
		return false
	}
	if *node == "" {
		service.WriteError(w, http.StatusBadRequest, fmt.Errorf("%s needs a node name", verb))
		return false
	}
	return true
}

// writeWire answers a worker-protocol request with v as compact JSON,
// gzip-coded when the client accepts it and the body clears gzipMinBytes.
func writeWire(w http.ResponseWriter, r *http.Request, v any) {
	data, err := json.Marshal(v)
	if err != nil {
		service.WriteError(w, http.StatusInternalServerError, err)
		return
	}
	w.Header().Set("Content-Type", "application/json")
	if strings.Contains(r.Header.Get("Accept-Encoding"), "gzip") && len(data) >= gzipMinBytes {
		w.Header().Set("Content-Encoding", "gzip")
		zw := gzip.NewWriter(w)
		zw.Write(data)
		zw.Close()
		return
	}
	w.Write(data)
}
