package main

import (
	"bytes"
	"context"
	"net/http"
	"net/http/httptest"
	"runtime"
	"testing"

	"spirvfuzz/internal/cluster"
	"spirvfuzz/internal/service"
	"spirvfuzz/internal/store"
)

// TestRequestBodyBounded is the standalone daemon's counterpart of the
// cluster test of the same name: POST /campaigns and POST /bisect bodies
// over cluster.MaxBodyBytes are refused with 413 after reading at most the
// cap, and a small malformed body is still a 400.
func TestRequestBodyBounded(t *testing.T) {
	st, err := store.Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	svc, err := service.New(st, service.Options{Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	defer svc.Close(context.Background())
	mux := newMux(svc)

	plain := append([]byte(`{"tests":1,"x":"`), bytes.Repeat([]byte("a"), cluster.MaxBodyBytes)...)
	for _, path := range []string{"/campaigns", "/bisect"} {
		for _, tc := range []struct {
			name string
			body []byte
			want int
		}{
			{"oversize", plain, http.StatusRequestEntityTooLarge},
			{"malformed", []byte(`{"tests":`), http.StatusBadRequest},
		} {
			var before, after runtime.MemStats
			runtime.GC()
			runtime.ReadMemStats(&before)
			rec := httptest.NewRecorder()
			mux.ServeHTTP(rec, httptest.NewRequest("POST", path, bytes.NewReader(tc.body)))
			runtime.ReadMemStats(&after)
			if rec.Code != tc.want {
				t.Fatalf("%s %s: status %d, want %d (%s)", tc.name, path, rec.Code, tc.want, rec.Body.String())
			}
			if alloc := after.TotalAlloc - before.TotalAlloc; alloc > 8*cluster.MaxBodyBytes {
				t.Fatalf("%s %s: handling allocated %d MiB", tc.name, path, alloc>>20)
			}
		}
	}
}
