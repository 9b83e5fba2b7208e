package main

import (
	"bytes"
	"compress/gzip"
	"context"
	"net/http"
	"net/http/httptest"
	"runtime"
	"testing"

	"spirvfuzz/internal/cluster"
	"spirvfuzz/internal/service"
	"spirvfuzz/internal/store"
)

// TestRequestBodyBounded drives the campaign API of both roles — the
// standalone daemon's handler and a coordinator's — through one table:
// request bodies over service.MaxBodyBytes, raw or gzip-decoded, are refused
// with 413 after reading at most the cap; a malformed body is a 400; lookups
// of an unknown campaign, bisect job or report are 404s.
func TestRequestBodyBounded(t *testing.T) {
	svcStore, err := store.Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	svc, err := service.New(svcStore, service.Options{Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	defer svc.Close(context.Background())
	coStore, err := store.Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	defer coStore.Close()
	co, err := cluster.NewCoordinator(coStore, cluster.Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer co.Close()
	roles := []struct {
		name string
		mux  http.Handler
	}{
		{"standalone", service.NewMux(svc, func() any { return svc.Metrics() })},
		{"coordinator", co.Mux()},
	}

	plain := append([]byte(`{"tests":1,"x":"`), bytes.Repeat([]byte("a"), service.MaxBodyBytes)...)
	bomb := gzipBomb(t)
	type apiCase struct {
		name, method, path string
		body               []byte
		gzip               bool
		want               int
	}
	cases := []apiCase{
		{"unknown campaign", "GET", "/campaigns/c999", nil, false, http.StatusNotFound},
		{"unknown bisect job", "GET", "/bisect/b999", nil, false, http.StatusNotFound},
		{"unknown bisect result", "GET", "/bisect/b999/result", nil, false, http.StatusNotFound},
		{"unknown report", "GET", "/reports/" + store.HashBytes([]byte("none")), nil, false, http.StatusNotFound},
	}
	for _, path := range []string{"/campaigns", "/bisect"} {
		cases = append(cases,
			apiCase{"oversize", "POST", path, plain, false, http.StatusRequestEntityTooLarge},
			apiCase{"gzip bomb", "POST", path, bomb, true, http.StatusRequestEntityTooLarge},
			apiCase{"malformed", "POST", path, []byte(`{"tests":`), false, http.StatusBadRequest},
		)
	}
	for _, role := range roles {
		for _, tc := range cases {
			var before, after runtime.MemStats
			runtime.GC()
			runtime.ReadMemStats(&before)
			req := httptest.NewRequest(tc.method, tc.path, bytes.NewReader(tc.body))
			if tc.gzip {
				req.Header.Set("Content-Encoding", "gzip")
			}
			rec := httptest.NewRecorder()
			role.mux.ServeHTTP(rec, req)
			runtime.ReadMemStats(&after)
			if rec.Code != tc.want {
				t.Fatalf("%s: %s %s %s: status %d, want %d (%s)", role.name, tc.name, tc.method, tc.path, rec.Code, tc.want, rec.Body.String())
			}
			if alloc := after.TotalAlloc - before.TotalAlloc; alloc > 8*service.MaxBodyBytes {
				t.Fatalf("%s: %s %s: handling allocated %d MiB", role.name, tc.name, tc.path, alloc>>20)
			}
		}
	}
}

// gzipBomb returns a multistream gzip body of a few hundred KiB that
// inflates to 256 MiB of one JSON string, so only a cap on the decoded
// stream stops it.
func gzipBomb(t *testing.T) []byte {
	t.Helper()
	member := func(prefix string) []byte {
		var b bytes.Buffer
		zw, _ := gzip.NewWriterLevel(&b, gzip.BestCompression)
		zw.Write([]byte(prefix))
		zw.Write(bytes.Repeat([]byte("a"), 1<<20))
		zw.Close()
		return b.Bytes()
	}
	bomb := member(`{"tests":1,"x":"`)
	tail := member("")
	for i := 1; i < 256; i++ {
		bomb = append(bomb, tail...)
	}
	if len(bomb) >= service.MaxBodyBytes {
		t.Fatalf("bomb is %d bytes on the wire; it must pass the raw cap", len(bomb))
	}
	return bomb
}
