package runner_test

import (
	"context"
	"fmt"
	"sync"
	"testing"

	"spirvfuzz/internal/corpus"
	"spirvfuzz/internal/fuzz"
	"spirvfuzz/internal/interp"
	"spirvfuzz/internal/runner"
	"spirvfuzz/internal/spirv"
	"spirvfuzz/internal/target"
	"spirvfuzz/internal/testmod"
)

// fuzzedVariant is one generated test case for the batching property tests.
type fuzzedVariant struct {
	mod *spirv.Module
	in  interp.Inputs
}

// fuzzVariants generates n variants from the reference corpus, spanning
// clean modules, crashing shapes and miscompiling shapes across the targets.
func fuzzVariants(t *testing.T, n int) []fuzzedVariant {
	t.Helper()
	refs := corpus.References()
	donors := corpus.Donors()
	out := make([]fuzzedVariant, 0, n)
	for i := 0; i < n; i++ {
		item := refs[i%len(refs)]
		res, err := fuzz.Fuzz(item.Mod, item.Inputs, fuzz.Options{
			Seed:                  int64(7000 + i),
			Donors:                donors,
			EnableRecommendations: true,
			MinPasses:             3,
			MaxPasses:             10,
		})
		if err != nil {
			t.Fatalf("fuzz %d: %v", i, err)
		}
		out = append(out, fuzzedVariant{mod: res.Variant, in: res.Inputs})
	}
	return out
}

// TestRunAllMatchesPerTarget is the batching property test: for fuzzed
// variants, RunAllCtx over all nine targets must byte-equal per-target RunCtx
// calls on a second engine, at 1 and 4 workers. Crashes are compared by
// signature, images by content.
func TestRunAllMatchesPerTarget(t *testing.T) {
	targets := target.All()
	variants := fuzzVariants(t, 50)
	ctx := context.Background()

	for _, workers := range []int{1, 4} {
		batched := runner.New(workers)
		single := runner.New(workers)
		for vi, v := range variants {
			all, err := batched.RunAllCtx(ctx, targets, v.mod, v.in)
			if err != nil {
				t.Fatalf("workers=%d variant=%d: RunAllCtx: %v", workers, vi, err)
			}
			if len(all) != len(targets) {
				t.Fatalf("workers=%d variant=%d: %d results for %d targets", workers, vi, len(all), len(targets))
			}
			for ti, tg := range targets {
				img, crash, err := single.RunCtx(ctx, tg, v.mod, v.in)
				if err != nil {
					t.Fatalf("workers=%d variant=%d %s: RunCtx: %v", workers, vi, tg.Name, err)
				}
				want := runner.TargetResult{Img: img, Crash: crash}
				if msg := resultDiff(want, all[ti]); msg != "" {
					t.Fatalf("workers=%d variant=%d %s: %s", workers, vi, tg.Name, msg)
				}
			}
		}
		if st := batched.Stats(); st.CompileHits == 0 {
			t.Fatalf("workers=%d: batched engine never shared a compile: %+v", workers, st)
		}
	}
}

// TestRunAllMatchesDirectRun checks RunAllCtx against raw tg.Run — the
// uncached, unshared, monolithic per-target toolchain — over 50 fuzzed
// variants at 1 and 4 workers, so the whole engine stack is anchored to
// target semantics.
func TestRunAllMatchesDirectRun(t *testing.T) {
	targets := target.All()
	variants := fuzzVariants(t, 50)
	want := make([][]runner.TargetResult, len(variants))
	for vi, v := range variants {
		for _, tg := range targets {
			img, crash := tg.Run(v.mod, v.in)
			want[vi] = append(want[vi], runner.TargetResult{Img: img, Crash: crash})
		}
	}
	for _, workers := range []int{1, 4} {
		eng := runner.New(workers)
		for vi, v := range variants {
			all, err := eng.RunAllCtx(context.Background(), targets, v.mod, v.in)
			if err != nil {
				t.Fatalf("workers=%d variant=%d: RunAllCtx: %v", workers, vi, err)
			}
			for ti, tg := range targets {
				if msg := resultDiff(want[vi][ti], all[ti]); msg != "" {
					t.Fatalf("workers=%d variant=%d %s: %s", workers, vi, tg.Name, msg)
				}
			}
		}
	}
}

// resultDiff describes how got differs from want — crashes by signature,
// images by content — or returns "" when they agree.
func resultDiff(want, got runner.TargetResult) string {
	switch {
	case (want.Crash == nil) != (got.Crash == nil):
		return fmt.Sprintf("crash mismatch: %v vs %v", want.Crash, got.Crash)
	case want.Crash != nil && want.Crash.Signature != got.Crash.Signature:
		return fmt.Sprintf("signature %q vs %q", want.Crash.Signature, got.Crash.Signature)
	case (want.Img == nil) != (got.Img == nil):
		return "image presence mismatch"
	case want.Img != nil && !want.Img.Equal(got.Img):
		return "images differ"
	}
	return ""
}

// TestRunAllHammer drives RunAllCtx from many goroutines over a small cache
// so the shared-compile layer's insertion, in-flight waiting and eviction
// interleave; run with -race. Every call's results are checked against a
// precomputed reference.
func TestRunAllHammer(t *testing.T) {
	eng := runner.New(8)
	eng.SetCacheCap(32) // force constant eviction in every layer
	targets := target.All()

	var mods []*spirv.Module
	for i := 0; i < 8; i++ {
		m := testmod.Diamond()
		m.EnsureConstantWord(m.EnsureTypeInt(32, true), uint32(2000+i))
		mods = append(mods, m)
	}
	want := make([]*interp.Image, len(mods))
	for i, m := range mods {
		var err error
		want[i], err = interp.Render(m, interp.Inputs{})
		if err != nil {
			t.Fatal(err)
		}
	}

	var wg sync.WaitGroup
	errCh := make(chan error, 64)
	for g := 0; g < 12; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 20; i++ {
				mi := (g*5 + i) % len(mods)
				all, err := eng.RunAllCtx(context.Background(), targets, mods[mi], interp.Inputs{})
				if err != nil {
					errCh <- err
					return
				}
				for ti, tg := range targets {
					if all[ti].Crash != nil {
						errCh <- fmt.Errorf("%s crashed on clean module: %v", tg.Name, all[ti].Crash)
						return
					}
					if tg.CanRender && !all[ti].Img.Equal(want[mi]) {
						errCh <- fmt.Errorf("%s returned a wrong image under contention", tg.Name)
						return
					}
				}
			}
		}(g)
	}
	wg.Wait()
	close(errCh)
	for err := range errCh {
		t.Fatal(err)
	}
	if st := eng.Stats(); st.CompileHits == 0 || st.CompileMisses == 0 {
		t.Fatalf("hammer did not exercise the compile cache: %+v", st)
	}
}
