//go:build !race

package service

import (
	"bytes"
	"runtime"
	"testing"
)

// gzipAllocBound caps the bytes one steady-state encode and decode of a
// 20 KiB JSON body may allocate, with a garbage collection before each
// body. Measured on linux/amd64: ~90 KiB through the free-listed coders,
// all of it the bodies' own buffers; coders kept in sync.Pools, which
// collections empty, cost ~300 KiB, and a fresh gzip.NewWriter and
// gzip.NewReader per body ~930 KiB, almost all of it deflate's hash chains
// and window; both fail the bound.
const gzipAllocBound = 256 << 10

// TestGzipAllocBound pins the per-body coder cost every cluster round trip
// pays. It is built without -race, whose instrumentation allocates on its
// own.
func TestGzipAllocBound(t *testing.T) {
	data := jsonBody(20<<10, 1)
	roundTrip := func() {
		// A campaign collects every few MB, so a body rarely meets a coder
		// that has not been through a collection since its last use.
		runtime.GC()
		var b bytes.Buffer
		if err := WriteGzip(&b, data); err != nil {
			t.Fatal(err)
		}
		got, err := gunzip(b.Bytes())
		if err != nil || len(got) != len(data) {
			t.Fatalf("decode: %d bytes, err %v", len(got), err)
		}
	}
	roundTrip()
	// The least of a few rounds: anything else the runtime allocates only
	// ever adds.
	const bodies = 20
	least := ^uint64(0)
	for round := 0; round < 3; round++ {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		for i := 0; i < bodies; i++ {
			roundTrip()
		}
		runtime.ReadMemStats(&after)
		least = min(least, (after.TotalAlloc-before.TotalAlloc)/bodies)
	}
	t.Logf("%d bytes per encode+decode of a %d-byte body", least, len(data))
	if least > gzipAllocBound {
		t.Errorf("%d bytes per encode+decode of a %d-byte body, want ≤ %d", least, len(data), gzipAllocBound)
	}
}
