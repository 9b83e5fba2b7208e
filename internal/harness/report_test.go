package harness_test

import (
	"os"
	"path/filepath"
	"strings"
	"testing"

	"spirvfuzz/internal/fuzz"
	"spirvfuzz/internal/harness"
	"spirvfuzz/internal/interp"
	"spirvfuzz/internal/reduce"
	"spirvfuzz/internal/spirv/asm"
	"spirvfuzz/internal/target"
)

func TestExportBugReport(t *testing.T) {
	var o *outcome
	for _, cand := range campaignOutcomes(t, 25) {
		if cand.Signature != target.MiscompilationSignature && len(cand.Transformations) > 2 {
			o = &cand
			break
		}
	}
	if o == nil {
		t.Skip("no crash outcome")
	}
	tg := target.ByName(o.Target)
	interesting := reduce.ForOutcome(tg, o.Original, o.Inputs, o.Signature)
	r := reduce.Reduce(o.Original, o.Inputs, o.Transformations, interesting)

	dir := t.TempDir()
	if err := harness.ExportBugReport(dir, &o.Outcome, r); err != nil {
		t.Fatal(err)
	}
	for _, f := range []string{"original.spvasm", "reduced_variant.spvasm", "penultimate.spvasm", "inputs.json", "transformations.json", "README.md"} {
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
	if _, crash := tg.Run(orig, in); crash != nil {
		t.Fatalf("exported original crashes: %v", crash)
	}
	_, crash := tg.Run(variant, in)
	if crash == nil || crash.Signature != o.Signature {
		t.Fatalf("exported variant does not reproduce %q: %v", o.Signature, crash)
	}

	// Replaying the exported sequence on the exported original rebuilds the
	// exported variant (self-containedness).
	seqData, _ := os.ReadFile(filepath.Join(dir, "transformations.json"))
	seq, err := fuzz.UnmarshalSequence(seqData)
	if err != nil {
		t.Fatal(err)
	}
	rebuilt, _ := fuzz.Replay(orig, in, seq)
	if rebuilt.String() != variant.String() {
		t.Fatal("exported sequence does not rebuild the exported variant")
	}

	readme, _ := os.ReadFile(filepath.Join(dir, "README.md"))
	for _, want := range []string{o.Signature, "Regression test", "```diff"} {
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
