//go:build !race

package interp_test

import (
	"runtime"
	"testing"

	"spirvfuzz/internal/corpus"
	"spirvfuzz/internal/interp"
)

// renderAllocBound caps the bytes one Program.Render of a corpus reference
// may allocate at the campaign's DefaultGrid. Measured on linux/amd64:
// 2–5 KiB for every reference but matrix1/2 (~9.5 KiB, matrix products
// allocate their results), structarray 3.2 KiB. Heap-allocating a cell
// and pointer per OpVariable execution costs structarray ~37 KiB per
// render and fails the bound.
const renderAllocBound = 16 << 10

// TestRenderAllocBound pins the per-query render cost the oracle pays, at a
// campaign's query rate a large share of everything the process allocates:
// variable cells belong to recycled frames, access-chain pointers to the
// per-pixel arena, and the arena is sized to the shader, not to a fixed
// chunk. It is built without -race, whose instrumentation allocates on its
// own.
func TestRenderAllocBound(t *testing.T) {
	for _, item := range corpus.References() {
		prog, err := interp.Compile(item.Mod)
		if err != nil {
			t.Fatalf("%s: %v", item.Name, err)
		}
		in := item.Inputs
		in.W, in.H = interp.DefaultGrid, interp.DefaultGrid
		if _, err := prog.Render(in); err != nil {
			t.Fatalf("%s: %v", item.Name, err)
		}
		// The least of a few rounds: anything else the runtime allocates
		// meanwhile only ever adds.
		const renders = 20
		least := ^uint64(0)
		for round := 0; round < 3; round++ {
			var before, after runtime.MemStats
			runtime.ReadMemStats(&before)
			for i := 0; i < renders; i++ {
				prog.Render(in)
			}
			runtime.ReadMemStats(&after)
			least = min(least, (after.TotalAlloc-before.TotalAlloc)/renders)
		}
		if least > renderAllocBound {
			t.Errorf("%s: %d bytes per %d×%d render, want ≤ %d",
				item.Name, least, in.W, in.H, renderAllocBound)
		}
	}
}
