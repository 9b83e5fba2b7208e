package fuzz_test

import (
	"bytes"
	"reflect"
	"testing"

	"spirvfuzz/internal/corpus"
	"spirvfuzz/internal/fuzz"
	"spirvfuzz/internal/interp"
	"spirvfuzz/internal/spirv/validate"
)

// campaignSequence fuzzes the sequence of a campaign test: the reference
// seed mod the corpus size, with the pass budget and recommendations
// FuzzStep uses.
func campaignSequence(t testing.TB, seed int64) (corpus.Item, []fuzz.Transformation) {
	t.Helper()
	refs := corpus.References()
	item := refs[int(uint64(seed)%uint64(len(refs)))]
	res, err := fuzz.Fuzz(item.Mod, item.Inputs, fuzz.Options{
		Seed:                  seed,
		Donors:                corpus.Donors(),
		EnableRecommendations: true,
		MinPasses:             5,
		MaxPasses:             14,
	})
	if err != nil {
		t.Fatal(err)
	}
	return item, res.Transformations
}

// masked returns the indices i < n whose bit i mod 64 is set in mask.
func masked(n int, mask uint64) []int {
	var kept []int
	for i := 0; i < n; i++ {
		if mask>>(i%64)&1 == 1 {
			kept = append(kept, i)
		}
	}
	return kept
}

// FuzzReplaySubsequence checks Definition 2.5, which the reducer relies on:
// any subsequence of a fuzzer-produced sequence replays without a panic to
// a valid module, transformations whose preconditions fail being skipped.
// Bit i mod 64 of keep selects transformation i of a campaign test's
// sequence.
func FuzzReplaySubsequence(f *testing.F) {
	for _, seed := range []int64{0, 7, 13, 42} {
		f.Add(seed, uint64(0x5555555555555555))
	}
	f.Fuzz(func(t *testing.T, seed int64, keep uint64) {
		item, ts := campaignSequence(t, seed)
		kept := masked(len(ts), keep)
		c, _ := fuzz.ReplaySubsequenceContext(item.Mod, item.Inputs, ts, kept)
		if err := validate.Module(c.Mod); err != nil {
			t.Fatalf("seed %d keep %#x: replayed subsequence %v is invalid: %v", seed, keep, kept, err)
		}
	})
}

// FuzzEffectiveSetSandwich checks the lemma core.Reduce's memo rests on: if
// K' replays with effective set E(K') (the indices that applied), every K
// with E(K') ⊆ K ⊆ K' replays to a bitwise-identical context — module,
// inputs and facts — and applies exactly E(K'). It also checks that an
// effective set is its own: E(E(K)) = E(K). Both need pure preconditions
// and skips that leave the context untouched (Definition 2.5). Bit i mod 64
// of outer selects transformation i of a campaign test's sequence for K';
// K drops from K' the skipped transformations whose bit in drop is set.
func FuzzEffectiveSetSandwich(f *testing.F) {
	for _, seed := range []int64{0, 7, 13, 42} {
		f.Add(seed, uint64(0x5555555555555555), uint64(0x0f0f0f0f0f0f0f0f))
	}
	f.Fuzz(func(t *testing.T, seed int64, outer, drop uint64) {
		item, ts := campaignSequence(t, seed)
		kOuter := masked(len(ts), outer)
		want, eff := fuzz.ReplaySubsequenceContext(item.Mod, item.Inputs, ts, kOuter)
		inEff := map[int]bool{}
		for _, i := range eff {
			inEff[i] = true
		}
		var k []int
		for _, i := range kOuter {
			if inEff[i] || drop>>(i%64)&1 == 0 {
				k = append(k, i)
			}
		}
		for _, cand := range [][]int{k, eff} {
			got, applied := fuzz.ReplaySubsequenceContext(item.Mod, item.Inputs, ts, cand)
			if !reflect.DeepEqual(applied, eff) {
				t.Fatalf("seed %d: K %v applied %v, but K' %v applied %v", seed, cand, applied, kOuter, eff)
			}
			if diff := contextDiff(got, want); diff != "" {
				t.Fatalf("seed %d: K %v and K' %v (effective %v) replay to different %s", seed, cand, kOuter, eff, diff)
			}
		}
	})
}

// contextDiff names the first part of two contexts that differs, or "".
func contextDiff(a, b *fuzz.Context) string {
	if !bytes.Equal(a.Mod.EncodeBytes(), b.Mod.EncodeBytes()) {
		return "modules"
	}
	ai, err1 := interp.EncodeInputs(a.Inputs)
	bi, err2 := interp.EncodeInputs(b.Inputs)
	if err1 != nil || err2 != nil || !bytes.Equal(ai, bi) {
		return "inputs"
	}
	if a.Facts.String() != b.Facts.String() {
		return "facts"
	}
	return ""
}

// FuzzUnmarshalReplay treats transformation sequences as untrusted input:
// any bytes that decode as a sequence replay onto reference seed mod the
// corpus size without a panic, to a valid module. Preconditions alone
// must keep an arbitrary sequence from breaking the module, as they keep a
// reducer's subsequence from doing so. The seeds are campaign sequences and
// the two AddFunction mutations its precondition once let through.
func FuzzUnmarshalReplay(f *testing.F) {
	for _, seed := range []int64{0, 7, 13, 42} {
		_, ts := campaignSequence(f, seed)
		data, err := fuzz.MarshalSequence(ts)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(seed, data)
	}
	for _, mutate := range []func(*fuzz.Context, *fuzz.AddFunction) bool{retypeParameter, useForeignLocal} {
		seed, ts, _ := addFunctionReproducer(f, mutate)
		data, err := fuzz.MarshalSequence(ts)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(seed, data)
	}
	refs := corpus.References()
	f.Fuzz(func(t *testing.T, seed int64, data []byte) {
		ts, err := fuzz.UnmarshalSequence(data)
		if err != nil {
			return
		}
		item := refs[int(uint64(seed)%uint64(len(refs)))]
		c, applied := fuzz.ReplayContext(item.Mod, item.Inputs, ts)
		if err := validate.Module(c.Mod); err != nil {
			t.Fatalf("seed %d: replaying %d of %d transformations gives an invalid module: %v", seed, len(applied), len(ts), err)
		}
	})
}
