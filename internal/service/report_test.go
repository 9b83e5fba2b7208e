package service

import (
	"context"
	"errors"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"spirvfuzz/internal/core"
	"spirvfuzz/internal/corpus"
	"spirvfuzz/internal/fuzz"
	"spirvfuzz/internal/harness"
	"spirvfuzz/internal/interp"
	"spirvfuzz/internal/replay"
	"spirvfuzz/internal/runner"
	"spirvfuzz/internal/spirv/asm"
	"spirvfuzz/internal/target"
)

// crashCase fuzzes campaign tests in order until one crashes a target with
// a sequence of more than two transformations, and returns that bug as a
// reduce case together with the environment holding its blobs.
func crashCase(t *testing.T) (Env, CampaignSpec, []corpus.Item, ReduceCase) {
	t.Helper()
	env := Env{Eng: runner.New(2), Reng: new(replay.Engine), Blobs: &MemBlobs{}}
	spec := CampaignSpec{Tests: 40}
	if err := spec.Normalize(); err != nil {
		t.Fatal(err)
	}
	targets, err := ResolveTargets(spec.Targets)
	if err != nil {
		t.Fatal(err)
	}
	refs, donors := corpus.References(), corpus.Donors()
	for i := 0; i < spec.Tests; i++ {
		bugs, err := FuzzStep(context.Background(), env, spec, targets, refs, donors, i)
		if err != nil {
			t.Fatal(err)
		}
		for _, bug := range bugs {
			if bug.Signature == target.MiscompilationSignature {
				continue
			}
			data, err := env.Blobs.GetBlob(bug.SeqHash)
			if err != nil {
				t.Fatal(err)
			}
			if ts, err := fuzz.UnmarshalSequence(data); err != nil || len(ts) <= 2 {
				continue
			}
			return env, spec, refs, ReduceCase{Name: CaseName("c001", bug), Bug: bug}
		}
	}
	t.Fatal("no crash bug with a nontrivial sequence")
	return Env{}, CampaignSpec{}, nil, ReduceCase{}
}

// TestReduceStepRejectsForgedSignature: a case whose sequence does not
// trigger the signature it names fails with an error that names the case,
// instead of crashing the process that reduces it. So does a case whose
// sequence is empty.
func TestReduceStepRejectsForgedSignature(t *testing.T) {
	env, spec, refs, rc := crashCase(t)
	forged := rc
	forged.Bug.Signature = "no such crash"
	empty := rc
	hash, err := env.Blobs.PutBlob([]byte("[]"))
	if err != nil {
		t.Fatal(err)
	}
	empty.Bug.SeqHash = hash
	for what, c := range map[string]ReduceCase{"forged signature": forged, "empty sequence": empty} {
		_, err := ReduceStep(context.Background(), env, "c001", spec, refs, c)
		if !errors.Is(err, core.ErrNotInteresting) || !strings.Contains(err.Error(), c.Name) {
			t.Fatalf("%s: err = %v, want ErrNotInteresting naming %s", what, err, c.Name)
		}
	}
	if _, err := ReduceStep(context.Background(), env, "c001", spec, refs, rc); err != nil {
		t.Fatalf("honest case: %v", err)
	}
}

func TestExportBugReport(t *testing.T) {
	env, spec, refs, rc := crashCase(t)
	rec, err := ReduceStep(context.Background(), env, "c001", spec, refs, rc)
	if err != nil {
		t.Fatal(err)
	}
	tg := target.ByName(rec.Target)
	dir := t.TempDir()
	if err := ExportBugReport(dir, env, refs, harness.ToolSpirvFuzz, rec); err != nil {
		t.Fatal(err)
	}
	for _, f := range []string{"original.spvasm", "reduced_variant.spvasm", "penultimate.spvasm", "inputs.json", "variant_inputs.json", "transformations.json", "README.md"} {
		if _, err := os.Stat(filepath.Join(dir, f)); err != nil {
			t.Errorf("missing %s: %v", f, err)
		}
	}

	// The exported artifacts round-trip and reproduce the bug.
	orig, err := asm.LoadModule(filepath.Join(dir, "original.spvasm"))
	if err != nil {
		t.Fatal(err)
	}
	variant, err := asm.LoadModule(filepath.Join(dir, "reduced_variant.spvasm"))
	if err != nil {
		t.Fatal(err)
	}
	inputsData, _ := os.ReadFile(filepath.Join(dir, "inputs.json"))
	in, err := interp.ParseInputs(inputsData)
	if err != nil {
		t.Fatal(err)
	}
	variantInputsData, _ := os.ReadFile(filepath.Join(dir, "variant_inputs.json"))
	varIn, err := interp.ParseInputs(variantInputsData)
	if err != nil {
		t.Fatal(err)
	}
	if _, crash := tg.Run(orig, in); crash != nil {
		t.Fatalf("exported original crashes: %v", crash)
	}
	_, crash := tg.Run(variant, varIn)
	if crash == nil || crash.Signature != rec.Signature {
		t.Fatalf("exported variant does not reproduce %q: %v", rec.Signature, crash)
	}

	// Replaying the exported sequence on the exported original rebuilds the
	// exported variant (self-containedness), and it is the reduced sequence.
	seqData, _ := os.ReadFile(filepath.Join(dir, "transformations.json"))
	seq, err := fuzz.UnmarshalSequence(seqData)
	if err != nil {
		t.Fatal(err)
	}
	if len(seq) != rec.KeptLen {
		t.Fatalf("exported %d transformations, reduction kept %d", len(seq), rec.KeptLen)
	}
	rebuilt, _ := fuzz.Replay(orig, in, seq)
	if rebuilt.String() != variant.String() {
		t.Fatal("exported sequence does not rebuild the exported variant")
	}

	readme, _ := os.ReadFile(filepath.Join(dir, "README.md"))
	for _, want := range []string{rec.Signature, rc.Bug.Reference, string(harness.ToolSpirvFuzz), "Regression test", "```diff"} {
		if !strings.Contains(string(readme), want) {
			t.Errorf("README missing %q", want)
		}
	}
	// Both the penultimate and the variant render identically under the
	// reference interpreter (the regression-test property).
	penult, err := asm.LoadModule(filepath.Join(dir, "penultimate.spvasm"))
	if err != nil {
		t.Fatal(err)
	}
	img1, err := interp.Render(penult, in)
	if err != nil {
		t.Fatal(err)
	}
	img2, err := interp.Render(variant, in)
	if err != nil {
		t.Fatal(err)
	}
	if !img1.Equal(img2) {
		t.Fatal("penultimate and reduced variant must agree under the reference semantics")
	}
}
