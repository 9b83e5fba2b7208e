package reduce_test

import (
	"bytes"
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
	"spirvfuzz/internal/spirv/validate"
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

func TestCrashInterestingness(t *testing.T) {
	sw := target.ByName("SwiftShader")
	in := interp.Inputs{W: 2, H: 2}
	original := testmod.Caller()
	variant := original.Clone()
	variant.Functions[0].SetControl(spirv.FunctionControlDontInline)
	_, crash := sw.Run(variant, in)
	if crash == nil {
		t.Fatal("setup: variant should crash")
	}
	interesting := reduce.CrashInterestingnessOn(runner.New(1), sw, in, crash.Signature)
	if !interesting(variant, in) {
		t.Fatal("crashing variant must be interesting")
	}
	if interesting(original, in) {
		t.Fatal("healthy original must not be interesting")
	}
	other := reduce.CrashInterestingnessOn(runner.New(1), sw, in, "some other signature")
	if other(variant, in) {
		t.Fatal("signature mismatch must not be interesting")
	}
}

func TestMiscompilationInterestingness(t *testing.T) {
	mesa := target.ByName("Mesa")
	in := interp.Inputs{W: 4, H: 4}
	original := testmod.Loop()
	ctx := fuzz.NewContext(original.Clone(), in)
	fn := ctx.Mod.EntryPointFunction()
	cmp := fn.Blocks[2].Body[0]
	tr := &fuzz.PropagateInstructionUp{
		Instr:    cmp.Result,
		FreshIDs: map[spirv.ID]spirv.ID{fn.Blocks[1].Label: ctx.Mod.Bound},
	}
	if !tr.Precondition(ctx) {
		t.Fatal("setup precondition")
	}
	tr.Apply(ctx)
	interesting := reduce.ForOutcomeOn(runner.New(1), mesa, original, in, target.MiscompilationSignature)
	if !interesting(ctx.Mod, ctx.Inputs) {
		t.Fatal("miscompiling variant must be interesting")
	}
	if interesting(original, in) {
		t.Fatal("original must not differ from itself")
	}
}

// TestShrinkAddFunctions exercises the spirv-reduce post-pass: a donated
// function larger than the bug requires loses its unused instructions.
func TestShrinkAddFunctions(t *testing.T) {
	item := corpus.References()[0] // gradient1
	c := fuzz.NewContext(item.Mod.Clone(), item.Inputs)

	// Donate a function with several pure instructions, then pad the
	// encoding with extra dead arithmetic so the shrinker has work.
	var donated []fuzz.Transformation
	for _, d := range corpus.Donors() {
		donated = fuzz.Donate(c, d, d.Functions[0], true)
		if donated != nil {
			break
		}
	}
	if donated == nil {
		t.Fatal("no donatable function")
	}
	af, ok := donated[len(donated)-1].(*fuzz.AddFunction)
	if !ok {
		t.Fatalf("last donation transformation is %T", donated[len(donated)-1])
	}
	// Pad: duplicate the first body instruction with fresh result ids; the
	// copies are unused by anything.
	blk := &af.Blocks[len(af.Blocks)-1]
	var pad []fuzz.EncodedInstr
	next := spirv.ID(5000)
	for i := 0; i < 4; i++ {
		var template fuzz.EncodedInstr
		for _, e := range blk.Body {
			if e.Result != 0 {
				template = e
				break
			}
		}
		if template.Op == "" {
			t.Skip("donor body has no result-producing instructions")
		}
		dup := template
		dup.Operands = append([]uint32(nil), template.Operands...)
		dup.Result = next
		next++
		pad = append(pad, dup)
	}
	blk.Body = append(pad, blk.Body...)

	for _, tr := range donated {
		if !tr.Precondition(c) {
			t.Fatalf("%s precondition", tr.Type())
		}
		tr.Apply(c)
	}
	if err := validate.Module(c.Mod); err != nil {
		t.Fatalf("padded donation invalid: %v\n%s", err, c.Mod)
	}
	beforeCount := c.Mod.InstructionCount()

	// The "bug": the module has at least 2 functions (i.e. the donation is
	// present at all) — every padded instruction is unnecessary.
	interesting := func(m *spirv.Module, _ interp.Inputs) bool {
		return len(m.Functions) >= 2
	}
	r, err := reduce.ReduceParallelReplayCtx(context.Background(), item.Mod, item.Inputs, donated, interesting, 1, replay.NewEngine(replay.DefaultBudget))
	if err != nil {
		t.Fatal(err)
	}
	if !interesting(r.Variant, r.Inputs) {
		t.Fatal("reduced variant lost the donation")
	}
	if err := validate.Module(r.Variant); err != nil {
		t.Fatalf("reduced variant invalid: %v", err)
	}
	if r.Variant.InstructionCount() >= beforeCount {
		t.Fatalf("shrinker removed nothing: %d -> %d", beforeCount, r.Variant.InstructionCount())
	}
	// All four pads must be gone (they are unused pure instructions).
	var kept *fuzz.AddFunction
	for _, tr := range r.Sequence {
		if a, ok := tr.(*fuzz.AddFunction); ok {
			kept = a
		}
	}
	if kept == nil {
		t.Fatal("AddFunction missing from reduced sequence")
	}
	for _, b := range kept.Blocks {
		for _, e := range b.Body {
			if e.Result >= 5000 {
				t.Fatalf("pad instruction %d survived shrinking", e.Result)
			}
		}
	}
}

func TestForOutcomeDispatch(t *testing.T) {
	sw := target.ByName("SwiftShader")
	in := interp.Inputs{W: 2, H: 2}
	m := testmod.Caller()
	eng := runner.New(1)
	if got := reduce.ForOutcomeOn(eng, sw, m, in, target.MiscompilationSignature); got == nil {
		t.Fatal("nil miscompilation test")
	}
	if got := reduce.ForOutcomeOn(eng, sw, m, in, "some crash"); got == nil {
		t.Fatal("nil crash test")
	}
}

// TestReduceReplayDeterministicGrid reduces a real crash outcome across every
// combination of worker count and replay-cache budget and requires the kept
// indices, variant, delta, length and query count to be identical to the
// serial fresh-replay baseline (workers=1, caching disabled). The prefix
// cache must change replay cost only, never results, and the wave width
// changes speculation only, never the reported queries.
func TestReduceReplayDeterministicGrid(t *testing.T) {
	outcome := crashOutcome(t)
	tg := target.ByName(outcome.Target)

	baselineEng := runner.New(1)
	interesting := reduce.ForOutcomeOn(baselineEng, tg, outcome.Original, outcome.Inputs, outcome.Signature)
	baseline, err := reduce.ReduceParallelReplayCtx(context.Background(), outcome.Original, outcome.Inputs,
		outcome.Transformations, interesting, 1, replay.NewEngine(0))
	if err != nil {
		t.Fatal(err)
	}

	for _, workers := range []int{1, 4, 16} {
		for _, budget := range []int64{0, 32 << 10, replay.DefaultBudget} {
			e := runner.New(workers)
			it := reduce.ForOutcomeOn(e, tg, outcome.Original, outcome.Inputs, outcome.Signature)
			reng := replay.NewEngine(budget)
			r, err := reduce.ReduceParallelReplayCtx(context.Background(), outcome.Original, outcome.Inputs,
				outcome.Transformations, it, workers, reng)
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(r.Kept, baseline.Kept) {
				t.Fatalf("workers=%d budget=%d: kept %v, baseline %v", workers, budget, r.Kept, baseline.Kept)
			}
			if !bytes.Equal(r.Variant.EncodeBytes(), baseline.Variant.EncodeBytes()) {
				t.Fatalf("workers=%d budget=%d: reduced variant diverged from baseline", workers, budget)
			}
			if r.Delta != baseline.Delta || len(r.Sequence) != len(baseline.Sequence) || r.Queries != baseline.Queries {
				t.Fatalf("workers=%d budget=%d: result metadata diverged", workers, budget)
			}
			st := reng.Stats()
			if budget == 0 && st.Snapshots != 0 {
				t.Fatalf("disabled cache recorded %d snapshots", st.Snapshots)
			}
			if budget == replay.DefaultBudget && st.Hits == 0 {
				t.Fatal("default-budget reduction never hit the prefix cache")
			}
		}
	}
}
