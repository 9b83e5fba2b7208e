package cluster

import (
	"bytes"
	"compress/gzip"
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"reflect"
	"testing"

	"spirvfuzz/internal/service"
	"spirvfuzz/internal/store"
)

// FuzzSyncRequest feeds arbitrary bytes, as sent and gzip-coded, through the
// decoder /cluster/sync reads its requests with. No input may panic it, a
// 413 must mean the body really overran service.MaxBodyBytes, and after
// every input a fixed gzip body must still decode to its value through the
// same decoder pool, so an input that leaves a pooled decoder poisoned fails
// on the spot. The seed corpus (testdata/fuzz/FuzzSyncRequest) holds a
// gzip blob push, an identity fetch, a truncated gzip body, a two-member
// multistream body and the head of a gzip bomb.
func FuzzSyncRequest(f *testing.F) {
	canary := syncRequest{
		Node:      "canary",
		BlobFetch: []string{store.HashBytes([]byte("canary"))},
		BlobPush:  [][]byte{bytes.Repeat([]byte("OpStore %12 %907\n"), 64)},
	}
	canaryRaw, err := json.Marshal(canary)
	if err != nil {
		f.Fatal(err)
	}
	var canaryBody bytes.Buffer
	if err := service.WriteGzip(&canaryBody, canaryRaw); err != nil {
		f.Fatal(err)
	}
	read := func(body []byte, gz bool) (syncRequest, error) {
		req := httptest.NewRequest("POST", "/cluster/sync", bytes.NewReader(body))
		if gz {
			req.Header.Set("Content-Encoding", "gzip")
		}
		var got syncRequest
		err := service.ReadJSON(httptest.NewRecorder(), req, &got)
		return got, err
	}

	f.Fuzz(func(t *testing.T, body []byte, gz bool) {
		if _, err := read(body, gz); err != nil {
			if service.RequestStatus(err) == http.StatusRequestEntityTooLarge && !overCap(body, gz) {
				t.Fatalf("413 for a body within the cap: %v", err)
			}
		}
		got, err := read(canaryBody.Bytes(), true)
		if err != nil || !reflect.DeepEqual(got, canary) {
			t.Fatalf("canary body after this input: %+v, err %v", got, err)
		}
	})
}

// overCap reports whether body, decoded as far as a fresh decoder gets
// when gz is set, is longer than service.MaxBodyBytes.
func overCap(body []byte, gz bool) bool {
	if len(body) > service.MaxBodyBytes {
		return true
	}
	if !gz {
		return false
	}
	zr, err := gzip.NewReader(bytes.NewReader(body))
	if err != nil {
		return false
	}
	n, _ := io.Copy(io.Discard, io.LimitReader(zr, service.MaxBodyBytes+1))
	return n > service.MaxBodyBytes
}
