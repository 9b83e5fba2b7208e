package runner_test

import (
	"context"
	"fmt"
	"reflect"
	"sync"
	"sync/atomic"
	"testing"

	"spirvfuzz/internal/corpus"
	"spirvfuzz/internal/experiments"
	"spirvfuzz/internal/fuzz"
	"spirvfuzz/internal/interp"
	"spirvfuzz/internal/reduce"
	"spirvfuzz/internal/replay"
	"spirvfuzz/internal/runner"
	"spirvfuzz/internal/service"
	"spirvfuzz/internal/spirv"
	"spirvfuzz/internal/target"
	"spirvfuzz/internal/testmod"
)

// crashBug is a crash bug found by a fixture campaign: the reference it was
// fuzzed from and the transformation sequence that triggers it.
type crashBug struct {
	Target, Signature string
	Original          *spirv.Module
	Inputs            interp.Inputs
	Transformations   []fuzz.Transformation
}

// crashOutcome runs a 40-test spirv-fuzz campaign on a 4-worker engine and
// returns its first crash bug whose sequence has more than four
// transformations.
func crashOutcome(t *testing.T) crashBug {
	t.Helper()
	refs := corpus.References()
	env := service.Env{Eng: runner.New(4), Reng: replay.NewEngine(0), Blobs: &service.MemBlobs{}}
	spec := service.CampaignSpec{Tests: 40}
	if err := spec.Normalize(); err != nil {
		t.Fatal(err)
	}
	camp, err := experiments.RunCampaign(context.Background(), env, spec, refs, corpus.Donors())
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < spec.Tests; i++ {
		for _, bug := range camp.Tests[i] {
			if bug.Signature == target.MiscompilationSignature {
				continue
			}
			data, err := env.Blobs.GetBlob(bug.SeqHash)
			if err != nil {
				t.Fatal(err)
			}
			ts, err := fuzz.UnmarshalSequence(data)
			if err != nil {
				t.Fatal(err)
			}
			if len(ts) > 4 {
				item := refs[i%len(refs)]
				return crashBug{bug.Target, bug.Signature, item.Mod, item.Inputs, ts}
			}
		}
	}
	t.Fatal("no crash outcome with a nontrivial sequence")
	return crashBug{}
}

func TestRunMemoizes(t *testing.T) {
	eng := runner.New(2)
	tg := target.ByName("Mesa")
	m := testmod.Diamond()
	in := interp.Inputs{}

	img1, crash1 := eng.Run(tg, m, in)
	if crash1 != nil {
		t.Fatalf("clean module crashed: %v", crash1)
	}
	st := eng.Stats()
	// One result entry, one compile entry, one plan entry, one render entry.
	if st.Hits != 0 || st.Misses != 1 || st.CompileMisses != 1 || st.PlanMisses != 1 || st.RenderMisses != 1 || st.Entries != 4 {
		t.Fatalf("after first run: %+v", st)
	}

	// The same module content — even via a different pointer — must hit.
	img2, crash2 := eng.Run(tg, m.Clone(), in)
	st = eng.Stats()
	if st.Hits != 1 || st.Misses != 1 {
		t.Fatalf("clone did not hit the cache: %+v", st)
	}
	if crash2 != nil || img1 != img2 {
		t.Fatal("cached result differs from computed result")
	}

	// A different target is a distinct result key, but neither Mesa's nor
	// Pixel-5's defects touch the diamond module, so the two targets share
	// one compile (mutation fingerprint "") and therefore one plan and one
	// render.
	img3, _ := eng.Run(target.ByName("Pixel-5"), m, in)
	st = eng.Stats()
	if st.Misses != 2 || st.CompileHits != 1 || st.CompileMisses != 1 || st.RenderHits != 1 || st.RenderMisses != 1 || st.PlanMisses != 1 {
		t.Fatalf("cross-target compile/render was not shared: %+v", st)
	}
	if img3 != img1 {
		t.Fatal("shared render returned a different image")
	}

	// Different inputs are distinct result and render keys, but the compiled
	// module does not depend on the inputs, so the compile layer hits.
	eng.Run(tg, m, interp.Inputs{W: 3, H: 3})
	st = eng.Stats()
	if st.Misses != 3 || st.CompileHits != 2 || st.RenderMisses != 2 {
		t.Fatalf("distinct keys collided: %+v", st)
	}
	// The second render is of the same compiled module, so its plan is
	// served from the plan cache.
	if st.PlanHits != 1 || st.PlanMisses != 1 {
		t.Fatalf("second render did not reuse the plan: %+v", st)
	}
	// Combined rate: (1 result + 2 compile + 1 plan + 1 render hit) of
	// (4+3+2+3 lookups).
	if got := st.HitRate(); got != 5.0/12.0 {
		t.Fatalf("hit rate %v, want 5/12", got)
	}
	if st.Workers != 2 {
		t.Fatalf("workers %d, want 2", st.Workers)
	}
}

// TestTreeWalkerRenderIdentical pins the engine's register-VM renders to the
// tree-walking reference: over fuzzed variants and every target, engine Run
// must match tg.Compile followed by interp.RenderTree — same crash
// signatures, same device-fault messages, byte-equal images.
func TestTreeWalkerRenderIdentical(t *testing.T) {
	eng := runner.New(2)
	for vi, v := range fuzzVariants(t, 20) {
		for _, tg := range target.All() {
			gotImg, gotCrash := eng.Run(tg, v.mod, v.in)
			var wantImg *interp.Image
			compiled, wantCrash := tg.Compile(v.mod)
			if wantCrash == nil && tg.CanRender {
				img, err := interp.RenderTree(compiled, v.in)
				if err != nil {
					wantCrash = &target.Crash{Signature: tg.Name + ": device fault: " + err.Error()}
				}
				wantImg = img
			}
			switch {
			case (wantCrash == nil) != (gotCrash == nil):
				t.Fatalf("variant=%d %s: crash mismatch: %v vs %v", vi, tg.Name, wantCrash, gotCrash)
			case wantCrash != nil && wantCrash.Signature != gotCrash.Signature:
				t.Fatalf("variant=%d %s: signature %q vs %q", vi, tg.Name, wantCrash.Signature, gotCrash.Signature)
			case (wantImg == nil) != (gotImg == nil):
				t.Fatalf("variant=%d %s: image presence mismatch", vi, tg.Name)
			case wantImg != nil && !wantImg.Equal(gotImg):
				t.Fatalf("variant=%d %s: VM image differs from the tree-walker's", vi, tg.Name)
			}
		}
	}
	if st := eng.Stats(); st.PlanMisses == 0 {
		t.Fatalf("no render went through the plan cache: %+v", st)
	}
}

// TestCacheCorrectness compares the memoized engine against direct target
// execution over every (testmod, target) pair, including crashing shapes.
func TestCacheCorrectness(t *testing.T) {
	eng := runner.New(4)
	mods := []*spirv.Module{}
	for _, m := range testmod.All() {
		mods = append(mods, m)
	}
	crasher := testmod.Caller()
	crasher.Functions[0].SetControl(spirv.FunctionControlDontInline)
	mods = append(mods, crasher)

	// Two passes so the second is served from the cache.
	for pass := 0; pass < 2; pass++ {
		for _, m := range mods {
			for _, tg := range target.All() {
				wantImg, wantCrash := tg.Run(m, interp.Inputs{})
				gotImg, gotCrash := eng.Run(tg, m, interp.Inputs{})
				switch {
				case (wantCrash == nil) != (gotCrash == nil):
					t.Fatalf("pass %d %s: crash mismatch: %v vs %v", pass, tg.Name, wantCrash, gotCrash)
				case wantCrash != nil && wantCrash.Signature != gotCrash.Signature:
					t.Fatalf("pass %d %s: signature %q vs %q", pass, tg.Name, wantCrash.Signature, gotCrash.Signature)
				case (wantImg == nil) != (gotImg == nil):
					t.Fatalf("pass %d %s: image presence mismatch", pass, tg.Name)
				case wantImg != nil && !wantImg.Equal(gotImg):
					t.Fatalf("pass %d %s: images differ", pass, tg.Name)
				}
			}
		}
	}
	st := eng.Stats()
	if st.Hits == 0 || st.Misses == 0 {
		t.Fatalf("expected both hits and misses: %+v", st)
	}
}

// TestCampaignDeterministicAcrossWorkers runs the same spirv-fuzz campaign
// on 1-, 4- and 16-worker engines and requires identical bugs, blob hashes
// included, on the same (test, target) pairs.
func TestCampaignDeterministicAcrossWorkers(t *testing.T) {
	var baseline map[int][]service.BugRef
	for _, workers := range []int{1, 4, 16} {
		env := service.Env{Eng: runner.New(workers), Reng: replay.NewEngine(0), Blobs: &service.MemBlobs{}}
		spec := service.CampaignSpec{Tests: 25}
		if err := spec.Normalize(); err != nil {
			t.Fatal(err)
		}
		camp, err := experiments.RunCampaign(context.Background(), env, spec, corpus.References(), corpus.Donors())
		if err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		if baseline == nil {
			baseline = camp.Tests
			if camp.Bugs() == 0 {
				t.Fatal("campaign found no bugs; determinism check is vacuous")
			}
			continue
		}
		if !reflect.DeepEqual(camp.Tests, baseline) {
			t.Fatalf("workers=%d: results differ from the 1-worker baseline:\n%+v\nvs\n%+v", workers, camp.Tests, baseline)
		}
	}
}

// TestReductionDeterministicAcrossWorkers reduces a real crash outcome on
// engines of 1, 4 and 16 workers and requires bitwise-identical kept
// indices.
func TestReductionDeterministicAcrossWorkers(t *testing.T) {
	outcome := crashOutcome(t)
	tg := target.ByName(outcome.Target)
	var baseline []int
	for _, workers := range []int{1, 4, 16} {
		e := runner.New(workers)
		interesting := reduce.ForOutcomeOn(e, tg, outcome.Original, outcome.Inputs, outcome.Signature)
		r, err := reduce.ReduceParallelReplayCtx(context.Background(), outcome.Original, outcome.Inputs, outcome.Transformations, interesting, 1, replay.NewEngine(replay.DefaultBudget))
		if err != nil {
			t.Fatal(err)
		}
		if baseline == nil {
			baseline = r.Kept
			continue
		}
		if !reflect.DeepEqual(r.Kept, baseline) {
			t.Fatalf("workers=%d: kept %v, baseline %v", workers, r.Kept, baseline)
		}
	}
}

// TestCacheHammer drives the sharded cache from many goroutines with a small
// capacity so insertion, in-flight waiting and eviction all interleave; run
// with -race. Correctness of returned results is checked on every call.
func TestCacheHammer(t *testing.T) {
	eng := runner.New(8)
	eng.SetCacheCap(32) // force constant eviction
	tgs := target.All()

	// A pool of distinct modules: vary a constant so hashes differ.
	var mods []*spirv.Module
	for i := 0; i < 12; i++ {
		m := testmod.Diamond()
		m.EnsureConstantWord(m.EnsureTypeInt(32, true), uint32(1000+i))
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
	for g := 0; g < 16; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 40; i++ {
				mi := (g*7 + i) % len(mods)
				tg := tgs[(g+i)%len(tgs)]
				img, crash := eng.Run(tg, mods[mi], interp.Inputs{})
				if crash != nil {
					errCh <- fmt.Errorf("%s crashed on clean module: %v", tg.Name, crash)
					return
				}
				if tg.CanRender && !img.Equal(want[mi]) {
					errCh <- fmt.Errorf("%s returned a wrong image under contention", tg.Name)
					return
				}
			}
		}(g)
	}
	wg.Wait()
	close(errCh)
	for err := range errCh {
		t.Fatal(err)
	}
	st := eng.Stats()
	if st.Evictions == 0 {
		t.Fatalf("cap 32 with %d keys should evict: %+v", len(mods)*len(tgs), st)
	}
	// Soft cap per layer, plus at most one in-flight overshoot per shard.
	if st.Entries > 2*(32+16) {
		t.Fatalf("cache grew past its cap: %+v", st)
	}
}

func TestDoCoversAllIndices(t *testing.T) {
	for _, workers := range []int{1, 3, 8} {
		eng := runner.New(workers)
		for _, n := range []int{0, 1, 7, 100} {
			seen := make([]bool, n)
			var mu sync.Mutex
			eng.Do(n, func(i int) {
				mu.Lock()
				defer mu.Unlock()
				if seen[i] {
					t.Fatalf("workers=%d n=%d: index %d ran twice", workers, n, i)
				}
				seen[i] = true
			})
			for i, s := range seen {
				if !s {
					t.Fatalf("workers=%d n=%d: index %d never ran", workers, n, i)
				}
			}
		}
	}
}

// TestRunCtxCancellation covers the engine's cancellation contract: a
// canceled context aborts before executing, aborts a waiter on someone
// else's in-flight execution, and never poisons the cache for later
// callers with live contexts.
func TestRunCtxCancellation(t *testing.T) {
	tg := target.ByName("Mesa")
	m := testmod.Diamond()
	in := interp.Inputs{}

	canceled, cancel := context.WithCancel(context.Background())
	cancel()

	eng := runner.New(1)
	if _, _, err := eng.RunCtx(canceled, tg, m, in); err == nil {
		t.Fatal("RunCtx with canceled ctx did not error")
	}
	if st := eng.Stats(); st.Misses != 0 || st.Entries != 0 {
		t.Fatalf("canceled RunCtx touched the engine: %+v", st)
	}

	// A later caller with a live context must execute normally — the
	// canceled attempt must not have left a poisoned in-flight entry.
	img, crash, err := eng.RunCtx(context.Background(), tg, m, in)
	if err != nil || crash != nil || img == nil {
		t.Fatalf("post-cancel run: img=%v crash=%v err=%v", img, crash, err)
	}

	// Caching disabled (pre-engine baseline path) honours cancellation too.
	raw := runner.New(1)
	raw.SetCacheCap(0)
	if _, _, err := raw.RunCtx(canceled, tg, m, in); err == nil {
		t.Fatal("uncached RunCtx with canceled ctx did not error")
	}
}

// TestDoCtxStopsDispatch checks that cancellation stops dispatching new
// iterations promptly instead of draining all n.
func TestDoCtxStopsDispatch(t *testing.T) {
	eng := runner.New(4)
	ctx, cancel := context.WithCancel(context.Background())
	var ran atomic.Int64
	err := eng.DoCtx(ctx, 10000, func(i int) {
		if ran.Add(1) == 8 {
			cancel()
		}
	})
	if err == nil {
		t.Fatal("DoCtx did not report cancellation")
	}
	// In-flight iterations (at most one per worker) may still finish after
	// cancel; everything else must be skipped.
	if n := ran.Load(); n > 8+4 {
		t.Fatalf("DoCtx dispatched %d iterations after cancellation", n)
	}
	if err := eng.DoCtx(context.Background(), 100, func(i int) {}); err != nil {
		t.Fatalf("DoCtx without cancellation: %v", err)
	}
}
