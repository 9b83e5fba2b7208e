package fuzz_test

import (
	"errors"
	"testing"

	"spirvfuzz/internal/corpus"
	"spirvfuzz/internal/fuzz"
	"spirvfuzz/internal/interp"
	"spirvfuzz/internal/spirv"
	"spirvfuzz/internal/spirv/validate"
)

// FuzzVariantPreservesSemantics checks Theorem 2.6 on arbitrary seeds: a
// variant the fuzzer makes from a corpus reference validates and renders
// exactly like the reference in the reference interpreter, on its own
// (possibly co-modified) inputs. So does every masked subsequence of its
// sequence, since ddmin's candidates must preserve semantics too. ref picks
// the reference; the pass budget is minRaw%max + 1 to max = maxRaw%200 + 1
// passes, with recommendations on; bit i mod 64 of keep selects
// transformation i of the subsequence. A render that exceeds
// interp.MaxSteps is inconclusive and skipped.
func FuzzVariantPreservesSemantics(f *testing.F) {
	// Seed 2776 at the campaign budget (5 to 14 passes) and five seeds at
	// 100 to 200 passes, each on the reference a campaign test of that seed
	// fuzzes: all six broke ScaleUniform through a pointer synonym.
	refs := corpus.References()
	donors := corpus.Donors()
	f.Add(uint8(2776%len(refs)), int64(2776), uint8(4), uint8(13), uint64(0x5555555555555555))
	for _, seed := range []int64{127, 361, 404, 655, 898} {
		f.Add(uint8(seed%int64(len(refs))), seed, uint8(99), uint8(199), uint64(0x5555555555555555))
	}
	f.Fuzz(func(t *testing.T, ref uint8, seed int64, minRaw, maxRaw uint8, keep uint64) {
		item := refs[int(ref)%len(refs)]
		maxPasses := int(maxRaw)%200 + 1
		minPasses := int(minRaw)%maxPasses + 1
		res, err := fuzz.Fuzz(item.Mod, item.Inputs, fuzz.Options{
			Seed:                  seed,
			Donors:                donors,
			EnableRecommendations: true,
			MinPasses:             minPasses,
			MaxPasses:             maxPasses,
		})
		if err != nil {
			t.Fatal(err)
		}
		want, err := interp.Render(item.Mod, item.Inputs)
		if err != nil {
			t.Fatalf("%s does not render: %v", item.Name, err)
		}
		check := func(what string, m *spirv.Module, in interp.Inputs) {
			t.Helper()
			if err := validate.Module(m); err != nil {
				t.Fatalf("%s seed %d passes %d-%d: %s is invalid: %v", item.Name, seed, minPasses, maxPasses, what, err)
			}
			got, err := interp.Render(m, in)
			var fault *interp.Fault
			if errors.As(err, &fault) && fault.Msg == "step limit exceeded" {
				// A long variant can outrun the interpreter's per-invocation
				// bound where its reference does not; the bound is the
				// interpreter's, so the render decides nothing.
				t.Skipf("%s seed %d passes %d-%d: %s exceeds interp.MaxSteps", item.Name, seed, minPasses, maxPasses, what)
			}
			if err != nil {
				t.Fatalf("%s seed %d passes %d-%d: %s faults: %v", item.Name, seed, minPasses, maxPasses, what, err)
			}
			if !got.Equal(want) {
				t.Fatalf("%s seed %d passes %d-%d: %s renders %d pixels differently", item.Name, seed, minPasses, maxPasses, what, got.DiffCount(want))
			}
		}
		check("the variant", res.Variant, res.Inputs)
		kept := masked(len(res.Transformations), keep)
		c, _ := fuzz.ReplaySubsequenceContext(item.Mod, item.Inputs, res.Transformations, kept)
		check("a subsequence", c.Mod, c.Inputs)
	})
}
