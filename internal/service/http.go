package service

import (
	"bufio"
	"compress/gzip"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"strings"

	"spirvfuzz/internal/freelist"
)

// MaxBodyBytes caps every HTTP body a spirvd process reads, both as sent and
// after gzip decoding: requests to the campaign API and to the cluster
// worker protocol, and coordinator responses read by workers. The largest
// body a 500-test benchmark campaign sends is a ~40 KB /cluster/sync, so
// honest peers stay far below it; a decompression bomb or runaway peer is
// cut off (413 on the serving side, an error on the reading side) instead of
// being buffered whole.
const MaxBodyBytes = 16 << 20

// ReadJSON decodes a request body that may carry Content-Encoding: gzip
// (cluster workers compress large bodies). A body over MaxBodyBytes, raw or
// decoded, fails with *http.MaxBytesError.
func ReadJSON(w http.ResponseWriter, r *http.Request, v any) error {
	body := http.MaxBytesReader(w, r.Body, MaxBodyBytes)
	if !strings.EqualFold(r.Header.Get("Content-Encoding"), "gzip") {
		return json.NewDecoder(body).Decode(v)
	}
	zr, err := OpenGzipReader(body)
	if err != nil {
		return fmt.Errorf("bad gzip request body: %w", err)
	}
	// Deferred calls run last-in first-out: the cap that wraps the decoder
	// is closed before the decoder goes back to the pool.
	defer zr.Release()
	decoded := http.MaxBytesReader(w, zr, MaxBodyBytes)
	defer decoded.Close()
	return json.NewDecoder(decoded).Decode(v)
}

// Every gzip-coded HTTP body a spirvd process sends or reads goes through
// one free list of encoders and one of decoders. A deflate compressor
// carries ~0.8 MiB of hash chains and window and an inflater a 32 KiB
// window, so with a fresh coder per body, coder set-up rather than the
// bodies would be the bulk of what a cluster allocates. Reset restores a
// reused coder to the state of a fresh one, so its bodies are
// byte-identical to gzip.NewWriter's at the same level. They are free
// lists rather than sync.Pools because every collection empties a
// sync.Pool, and a campaign collects every few MB: most bodies would build
// a fresh compressor.
var (
	gzipWriters freelist.List[*gzip.Writer]
	gzipReaders freelist.List[*GzipReader]
)

// WriteGzip writes data to dst as one gzip member at DefaultCompression.
// The writer goes back to its free list whether or not dst failed; it
// keeps its reference to dst until its next use.
func WriteGzip(dst io.Writer, data []byte) error {
	zw, ok := gzipWriters.Get()
	if !ok {
		zw = gzip.NewWriter(nil)
	}
	defer gzipWriters.Put(zw)
	zw.Reset(dst)
	if _, err := zw.Write(data); err != nil {
		return err
	}
	return zw.Close()
}

// GzipReader is a reused gzip decoder (multistream, like gzip.NewReader's)
// with its own read buffer over the source.
type GzipReader struct {
	gzip.Reader
	src bufio.Reader
}

// OpenGzipReader takes a decoder from the free list and points it at src,
// whose gzip header it reads. On success the caller owns the decoder until
// it calls Release; on a bad header it is already back on the list.
func OpenGzipReader(src io.Reader) (*GzipReader, error) {
	zr, ok := gzipReaders.Get()
	if !ok {
		zr = new(GzipReader)
	}
	zr.src.Reset(src)
	if err := zr.Reset(&zr.src); err != nil {
		zr.Release()
		return nil, err
	}
	return zr, nil
}

// Release drops the decoder's reference to its source and returns it to
// the free list; neither it nor anything still wrapping it may be read
// after.
func (zr *GzipReader) Release() {
	zr.src.Reset(nil)
	gzipReaders.Put(zr)
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

// WriteJSON answers with v as indented JSON.
func WriteJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	enc.Encode(v)
}

// WriteError answers with {"error": "..."} and the given status.
func WriteError(w http.ResponseWriter, status int, err error) {
	WriteJSON(w, status, map[string]string{"error": err.Error()})
}

// API is the campaign surface every spirvd role serves: *Service runs
// campaigns in-process, a cluster coordinator shards them across workers.
type API interface {
	CreateCampaign(spec CampaignSpec) (CampaignStatus, error)
	Campaigns() []CampaignStatus
	Campaign(id string) (CampaignStatus, bool)
	Buckets(id string) ([]BucketSet, error)
	ReportBlob(hash string) ([]byte, error)
	CreateBisect(spec BisectSpec) (BisectStatus, error)
	BisectJobs() []BisectStatus
	BisectJob(id string) (BisectStatus, bool)
	BisectResult(id string) (BisectSet, error)
}

// NewMux returns the campaign HTTP API over api, with GET /metrics answered
// by metrics (each role reports its own counters):
//
//	POST /campaigns, GET /campaigns, GET /campaigns/{id}
//	GET  /buckets?campaign=ID, GET /reports/{hash}
//	POST /bisect, GET /bisect, GET /bisect/{id}, GET /bisect/{id}/result
//	GET  /metrics
//
// All payloads are JSON; errors are {"error": "..."} with a matching status.
func NewMux(api API, metrics func() any) *http.ServeMux {
	mux := http.NewServeMux()
	mux.HandleFunc("POST /campaigns", func(w http.ResponseWriter, r *http.Request) {
		var spec CampaignSpec
		if err := ReadJSON(w, r, &spec); err != nil {
			WriteError(w, RequestStatus(err), err)
			return
		}
		status, err := api.CreateCampaign(spec)
		if err != nil {
			WriteError(w, http.StatusBadRequest, err)
			return
		}
		WriteJSON(w, http.StatusCreated, status)
	})
	mux.HandleFunc("GET /campaigns", func(w http.ResponseWriter, r *http.Request) {
		WriteJSON(w, http.StatusOK, api.Campaigns())
	})
	mux.HandleFunc("GET /campaigns/{id}", func(w http.ResponseWriter, r *http.Request) {
		status, ok := api.Campaign(r.PathValue("id"))
		if !ok {
			WriteError(w, http.StatusNotFound, fmt.Errorf("no campaign %q", r.PathValue("id")))
			return
		}
		WriteJSON(w, http.StatusOK, status)
	})
	mux.HandleFunc("GET /buckets", func(w http.ResponseWriter, r *http.Request) {
		sets, err := api.Buckets(r.URL.Query().Get("campaign"))
		if err != nil {
			WriteError(w, http.StatusNotFound, err)
			return
		}
		if sets == nil {
			sets = []BucketSet{}
		}
		WriteJSON(w, http.StatusOK, sets)
	})
	mux.HandleFunc("GET /reports/{hash}", func(w http.ResponseWriter, r *http.Request) {
		blob, err := api.ReportBlob(r.PathValue("hash"))
		if err != nil {
			WriteError(w, http.StatusNotFound, err)
			return
		}
		w.Header().Set("Content-Type", "application/json")
		w.Write(blob)
	})
	mux.HandleFunc("POST /bisect", func(w http.ResponseWriter, r *http.Request) {
		var spec BisectSpec
		if err := ReadJSON(w, r, &spec); err != nil {
			WriteError(w, RequestStatus(err), err)
			return
		}
		status, err := api.CreateBisect(spec)
		if err != nil {
			WriteError(w, http.StatusBadRequest, err)
			return
		}
		WriteJSON(w, http.StatusCreated, status)
	})
	mux.HandleFunc("GET /bisect", func(w http.ResponseWriter, r *http.Request) {
		WriteJSON(w, http.StatusOK, api.BisectJobs())
	})
	mux.HandleFunc("GET /bisect/{id}", func(w http.ResponseWriter, r *http.Request) {
		status, ok := api.BisectJob(r.PathValue("id"))
		if !ok {
			WriteError(w, http.StatusNotFound, fmt.Errorf("no bisect job %q", r.PathValue("id")))
			return
		}
		WriteJSON(w, http.StatusOK, status)
	})
	mux.HandleFunc("GET /bisect/{id}/result", func(w http.ResponseWriter, r *http.Request) {
		set, err := api.BisectResult(r.PathValue("id"))
		if err != nil {
			WriteError(w, http.StatusNotFound, err)
			return
		}
		WriteJSON(w, http.StatusOK, set)
	})
	mux.HandleFunc("GET /metrics", func(w http.ResponseWriter, r *http.Request) {
		WriteJSON(w, http.StatusOK, metrics())
	})
	return mux
}
