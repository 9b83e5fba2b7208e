package fuzz_test

import (
	"testing"

	"spirvfuzz/internal/corpus"
	"spirvfuzz/internal/fuzz"
	"spirvfuzz/internal/spirv/validate"
)

// FuzzReplaySubsequence checks Definition 2.5, which the reducer relies on:
// any subsequence of a fuzzer-produced sequence replays without a panic to
// a valid module, transformations whose preconditions fail being skipped.
// The sequence is a campaign test's (the reference seed mod the corpus size,
// the pass budget and recommendations FuzzStep uses); bit i mod 64 of keep
// selects transformation i.
func FuzzReplaySubsequence(f *testing.F) {
	refs, donors := corpus.References(), corpus.Donors()
	for _, seed := range []int64{0, 7, 13, 42} {
		f.Add(seed, uint64(0x5555555555555555))
	}
	f.Fuzz(func(t *testing.T, seed int64, keep uint64) {
		item := refs[int(uint64(seed)%uint64(len(refs)))]
		res, err := fuzz.Fuzz(item.Mod, item.Inputs, fuzz.Options{
			Seed:                  seed,
			Donors:                donors,
			EnableRecommendations: true,
			MinPasses:             5,
			MaxPasses:             14,
		})
		if err != nil {
			t.Fatal(err)
		}
		var kept []int
		for i := range res.Transformations {
			if keep>>(i%64)&1 == 1 {
				kept = append(kept, i)
			}
		}
		c, _ := fuzz.ReplaySubsequenceContext(item.Mod, item.Inputs, res.Transformations, kept)
		if err := validate.Module(c.Mod); err != nil {
			t.Fatalf("seed %d keep %#x: replayed subsequence %v is invalid: %v", seed, keep, kept, err)
		}
	})
}
