package bisect_test

import (
	"context"
	"reflect"
	"strings"
	"testing"

	"spirvfuzz/internal/bisect"
	"spirvfuzz/internal/corpus"
	"spirvfuzz/internal/fuzz"
	"spirvfuzz/internal/harness"
	"spirvfuzz/internal/interp"
	"spirvfuzz/internal/runner"
	"spirvfuzz/internal/target"
)

// collectCases fuzzes the reference corpus until n bug-triggering cases are
// found, classifying each variant against every target the way the campaign
// pipeline does. Deterministic: seeds are probed in order.
func collectCases(t *testing.T, n int) []bisect.Case {
	t.Helper()
	refs := corpus.References()
	donors := corpus.Donors()
	targets := target.All()
	eng := runner.New(4)
	var cases []bisect.Case
	for seed := int64(0); len(cases) < n && seed < 500; seed++ {
		item := refs[int(seed)%len(refs)]
		res, err := fuzz.Fuzz(item.Mod, item.Inputs, fuzz.Options{
			Seed:                  seed,
			Donors:                donors,
			EnableRecommendations: true,
			MinPasses:             5,
			MaxPasses:             14,
		})
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		sigs, err := harness.ClassifyAllCtx(context.Background(), eng, targets, item.Mod, res.Variant, item.Inputs, res.Inputs)
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		for ti, tg := range targets {
			if sigs[ti] == "" || len(cases) >= n {
				continue
			}
			cases = append(cases, bisect.Case{
				Target:         tg.Name,
				Signature:      sigs[ti],
				Original:       item.Mod,
				OriginalInputs: item.Inputs,
				Variant:        res.Variant,
				Inputs:         res.Inputs,
			})
		}
	}
	if len(cases) < n {
		t.Fatalf("only %d bug cases found, want %d", len(cases), n)
	}
	return cases
}

// bisectAll runs every case through one engine configuration and returns the
// full results (verdict and self-relative probe counters).
func bisectAll(t *testing.T, cases []bisect.Case, workers int, tree, warm bool) []bisect.Result {
	t.Helper()
	interp.SetTreeWalker(tree)
	defer interp.SetTreeWalker(false)
	be := bisect.New(runner.New(workers))
	if warm {
		// Prime every engine cache with a full pass, then measure the repeat.
		for _, c := range cases {
			if _, err := be.Bisect(c); err != nil {
				t.Fatal(err)
			}
		}
	}
	out := make([]bisect.Result, 0, len(cases))
	for _, c := range cases {
		res, err := be.Bisect(c)
		if err != nil {
			t.Fatal(err)
		}
		out = append(out, res)
	}
	return out
}

// TestFirstBadDeterminism is the verdict-stability property the dedup signal
// rests on: the full bisection result — FirstBad and the self-relative
// Queries/CacheHits counters — is identical at 1, 4, and 16 workers, on cold
// and cache-warm engines, and under both the register VM and the
// tree-walking reference evaluator.
func TestFirstBadDeterminism(t *testing.T) {
	if testing.Short() {
		t.Skip("multi-second fuzz+bisect test")
	}
	cases := collectCases(t, 6)
	base := bisectAll(t, cases, 1, false, false)
	for _, res := range base {
		if res.FirstBad == "" || res.Queries == 0 {
			t.Fatalf("empty verdict: %+v", res)
		}
		found := false
		for _, rel := range target.Releases(res.Target) {
			if rel == res.FirstBad {
				found = true
			}
		}
		if !found {
			t.Fatalf("FirstBad %q is not a release of %s", res.FirstBad, res.Target)
		}
	}
	configs := []struct {
		name    string
		workers int
		tree    bool
		warm    bool
	}{
		{"workers=4 cold vm", 4, false, false},
		{"workers=16 cold vm", 16, false, false},
		{"workers=1 warm vm", 1, false, true},
		{"workers=4 warm vm", 4, false, true},
		{"workers=4 cold tree", 4, true, false},
		{"workers=16 warm tree", 16, true, true},
	}
	for _, cfg := range configs {
		got := bisectAll(t, cases, cfg.workers, cfg.tree, cfg.warm)
		if !reflect.DeepEqual(got, base) {
			t.Fatalf("%s: results diverged:\n got %+v\nwant %+v", cfg.name, got, base)
		}
	}
}

// TestBisectSharedCompiles pins the almost-for-free claim: probes either
// crash before compiling or share compile keys across releases, so a full
// bisection runs far fewer fresh compiles than release probes.
func TestBisectSharedCompiles(t *testing.T) {
	if testing.Short() {
		t.Skip("multi-second fuzz+bisect test")
	}
	cases := collectCases(t, 6)
	be := bisect.New(runner.New(4))
	for _, c := range cases {
		if _, err := be.Bisect(c); err != nil {
			t.Fatal(err)
		}
	}
	st := be.Stats()
	if st.Bisections != uint64(len(cases)) || st.Queries == 0 {
		t.Fatalf("stats: %+v", st)
	}
	if st.Compiles >= st.Queries {
		t.Fatalf("no compile sharing: %d compiles for %d probes", st.Compiles, st.Queries)
	}
	if st.HitFraction() < 0.5 {
		t.Fatalf("cache-hit fraction %.2f, want >= 0.5 (%+v)", st.HitFraction(), st)
	}
}

// TestBisectRejectsNonReproducing: a signature the latest release does not
// exhibit is a contract violation, reported as an error rather than a bogus
// verdict.
func TestBisectRejectsNonReproducing(t *testing.T) {
	item := corpus.References()[0]
	be := bisect.New(nil)
	_, err := be.Bisect(bisect.Case{
		Target:    "Mesa",
		Signature: "no-such-crash",
		Variant:   item.Mod,
		Inputs:    item.Inputs,
	})
	if err == nil || !strings.Contains(err.Error(), "does not reproduce") {
		t.Fatalf("err = %v, want does-not-reproduce", err)
	}
	if _, err := be.Bisect(bisect.Case{Target: "NoSuchGPU", Signature: "x", Variant: item.Mod}); err == nil {
		t.Fatalf("unknown target accepted")
	}
}

// TestOriginalsCleanAtAllReleases guards the invariant both bisection
// predicates rest on: every reference-corpus module runs crash-free at every
// release of every target (defects only ever fire on fuzzed variants), so
// the miscompilation predicate's original-render baseline exists at every
// probe point.
func TestOriginalsCleanAtAllReleases(t *testing.T) {
	eng := runner.New(4)
	for _, tg := range target.All() {
		for _, rel := range target.Releases(tg.Name) {
			view := target.At(tg.Name, rel)
			for _, it := range corpus.References() {
				img, crash := eng.Run(view, it.Mod, it.Inputs)
				if crash != nil {
					t.Fatalf("%s@%s: original %s crashes: %v", tg.Name, rel, it.Name, crash)
				}
				if img == nil && tg.CanRender {
					t.Fatalf("%s@%s: original %s rendered no image", tg.Name, rel, it.Name)
				}
			}
		}
	}
}
