package harness_test

import (
	"context"
	"reflect"
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
)

// outcome is one bug of a fixture campaign with its artifacts loaded.
type outcome struct {
	Target, Signature string
	Original          *spirv.Module
	Inputs            interp.Inputs
	Variant           *spirv.Module
	VariantInputs     interp.Inputs
	Transformations   []fuzz.Transformation
}

// reduceOutcome builds o's interestingness test on a fresh engine and
// reduces o's sequence serially against it.
func reduceOutcome(t *testing.T, o *outcome) (*reduce.Result, reduce.Interestingness) {
	t.Helper()
	interesting := reduce.ForOutcomeOn(runner.New(1), target.ByName(o.Target), o.Original, o.Inputs, o.Signature)
	r, err := reduce.ReduceParallelReplayCtx(context.Background(), o.Original, o.Inputs, o.Transformations, interesting, 1, new(replay.Engine))
	if err != nil {
		t.Fatal(err)
	}
	return r, interesting
}

// campaignOutcomes runs a spirv-fuzz campaign of tests tests through
// experiments.RunCampaign and returns its bugs in campaign order (tests in
// index order, each test's bugs in target order), artifacts loaded from the
// campaign's sequence blobs.
func campaignOutcomes(t *testing.T, tests int) []outcome {
	t.Helper()
	refs := corpus.References()
	env := service.Env{Eng: runner.New(0), Reng: new(replay.Engine), Blobs: &service.MemBlobs{}}
	spec := service.CampaignSpec{Tests: tests}
	if err := spec.Normalize(); err != nil {
		t.Fatal(err)
	}
	camp, err := experiments.RunCampaign(context.Background(), env, spec, refs, corpus.Donors())
	if err != nil {
		t.Fatal(err)
	}
	var out []outcome
	for i := 0; i < tests; i++ {
		item := refs[i%len(refs)]
		for _, bug := range camp.Tests[i] {
			seqData, err := env.Blobs.GetBlob(bug.SeqHash)
			if err != nil {
				t.Fatal(err)
			}
			ts, err := fuzz.UnmarshalSequence(seqData)
			if err != nil {
				t.Fatal(err)
			}
			// Replaying the sequence rebuilds the variant and its inputs
			// (TestCampaignOutcomesReplay checks the variant against its
			// blob).
			fc, _ := fuzz.ReplayContext(item.Mod, item.Inputs, ts)
			out = append(out, outcome{
				Target: bug.Target, Signature: bug.Signature, Original: item.Mod, Inputs: item.Inputs,
				Variant: fc.Mod, VariantInputs: fc.Inputs, Transformations: ts,
			})
		}
	}
	return out
}

// TestCampaignDeterministic runs the same spirv-fuzz campaign twice on
// fresh GOMAXPROCS-worker engines and requires identical bugs, blob hashes
// included, on the same (test, target) pairs.
func TestCampaignDeterministic(t *testing.T) {
	run := func() *experiments.Campaign {
		env := service.Env{Eng: runner.New(0), Reng: new(replay.Engine), Blobs: &service.MemBlobs{}}
		spec := service.CampaignSpec{Tests: 20}
		if err := spec.Normalize(); err != nil {
			t.Fatal(err)
		}
		camp, err := experiments.RunCampaign(context.Background(), env, spec, corpus.References(), corpus.Donors())
		if err != nil {
			t.Fatal(err)
		}
		return camp
	}
	a, b := run(), run()
	if a.Bugs() == 0 {
		t.Fatal("campaign found no bugs; determinism check is vacuous")
	}
	if !reflect.DeepEqual(a.Tests, b.Tests) {
		t.Fatalf("campaign results differ between runs:\n%+v\nvs\n%+v", a.Tests, b.Tests)
	}
}

func TestReduceCrashOutcome(t *testing.T) {
	var o *outcome
	for _, cand := range campaignOutcomes(t, 20) {
		if cand.Signature != target.MiscompilationSignature && len(cand.Transformations) > 3 {
			o = &cand
			break
		}
	}
	if o == nil {
		t.Skip("no crash outcome in small campaign")
	}
	r, interesting := reduceOutcome(t, o)
	if !interesting(o.Variant, o.VariantInputs) {
		t.Fatal("unreduced variant not interesting")
	}
	if len(r.Sequence) > len(o.Transformations) {
		t.Fatal("reduction grew the sequence")
	}
	if !interesting(r.Variant, r.Inputs) {
		t.Fatal("reduced variant no longer triggers the bug")
	}
	unreducedDelta := o.Variant.InstructionCount() - o.Original.InstructionCount()
	if r.Delta > unreducedDelta {
		t.Fatalf("reduced delta %d exceeds unreduced delta %d", r.Delta, unreducedDelta)
	}
	// 1-minimality of the delta-debugged core (AddFunction shrinking aside):
	// dropping any single kept transformation must break the bug... this is
	// guaranteed by core.Reduce, so just sanity-check a couple.
	for i := 0; i < len(r.Kept) && i < 3; i++ {
		keep := append(append([]int{}, r.Kept[:i]...), r.Kept[i+1:]...)
		ctx, _ := fuzz.ReplaySubsequenceContext(o.Original, o.Inputs, o.Transformations, keep)
		if interesting(ctx.Mod, ctx.Inputs) && len(r.Sequence) == len(r.Kept) {
			t.Fatalf("sequence not 1-minimal: index %d removable", r.Kept[i])
		}
	}
}

func TestReduceMiscompilationOutcome(t *testing.T) {
	var mis *outcome
	for _, o := range campaignOutcomes(t, 40) {
		if o.Signature == target.MiscompilationSignature {
			mis = &o
			break
		}
	}
	if mis == nil {
		t.Skip("no miscompilation in small campaign")
	}
	r, interesting := reduceOutcome(t, mis)
	if !interesting(mis.Variant, mis.VariantInputs) {
		t.Fatal("unreduced miscompiling variant not interesting")
	}
	if !interesting(r.Variant, r.Inputs) {
		t.Fatal("reduced variant no longer miscompiles")
	}
	if len(r.Sequence) == 0 {
		t.Fatal("empty sequence cannot miscompile")
	}
}

func TestDedupOnReducedCases(t *testing.T) {
	var cases []service.ReducedRec
	for i, o := range campaignOutcomes(t, 40) {
		if o.Signature == target.MiscompilationSignature || len(o.Transformations) == 0 {
			continue
		}
		r, _ := reduceOutcome(t, &o)
		cases = append(cases, service.ReducedRec{
			Case:      o.Target + "/" + itoa(i),
			Target:    o.Target,
			Signature: o.Signature,
			Types:     service.ResidualTypes(r.Sequence),
			KeptLen:   len(r.Sequence),
		})
		if len(cases) >= 12 {
			break
		}
	}
	if len(cases) < 4 {
		t.Skipf("only %d reduced cases", len(cases))
	}
	recommended, err := service.BucketCases(service.SignalTransform, cases, nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(recommended) == 0 {
		t.Fatal("nothing recommended")
	}
	if len(recommended) > len(cases) {
		t.Fatal("recommended more than submitted")
	}
	distinct, dups := experiments.Score(recommended)
	if distinct+dups != len(recommended) {
		t.Fatal("score accounting broken")
	}
	if got := experiments.SignatureCount(cases); got == 0 {
		t.Fatal("no ground-truth signatures")
	}
}

func itoa(n int) string {
	if n == 0 {
		return "0"
	}
	var b [8]byte
	i := len(b)
	for n > 0 {
		i--
		b[i] = byte('0' + n%10)
		n /= 10
	}
	return string(b[i:])
}
