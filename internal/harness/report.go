package harness

import (
	"fmt"
	"os"
	"path/filepath"
	"strings"

	"spirvfuzz/internal/fuzz"
	"spirvfuzz/internal/interp"
	"spirvfuzz/internal/reduce"
	"spirvfuzz/internal/spirv"
	"spirvfuzz/internal/spirv/asm"
)

// Outcome identifies the bug a report is about: the tool and test that found
// it, the target and signature it shows, and the original the variant was
// derived from.
type Outcome struct {
	Tool      Tool
	Target    string
	Reference string
	Seed      int64
	// Signature is a crash signature or target.MiscompilationSignature.
	Signature string
	Original  *spirv.Module
	Inputs    interp.Inputs
}

// ExportBugReport writes a self-contained bug-report bundle for a reduced
// bug (Section 2.1, "Bug reports and regression tests"): given the 1-minimal
// sequence T1..Tn, the pairs most useful for reporting are (P0, Pn) — the
// complete delta against the well-understood original — and (Pn-1, Pn) — the
// smallest delta, demonstrating only the final transformation. The bundle
// contains all three programs, the inputs, the minimized sequence, and a
// README with the (Pn-1, Pn) delta inline. Executing any two of the programs
// on the inputs and checking that their results agree is the natural
// regression test.
func ExportBugReport(dir string, o *Outcome, r *reduce.Result) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	write := func(name string, m *spirv.Module) error {
		return asm.SaveModule(m, filepath.Join(dir, name))
	}
	if err := write("original.spvasm", o.Original); err != nil {
		return err
	}
	if err := write("reduced_variant.spvasm", r.Variant); err != nil {
		return err
	}
	// Pn-1: everything but the last transformation of the minimized
	// sequence.
	penult, _ := fuzz.Replay(o.Original, o.Inputs, r.Sequence[:max(0, len(r.Sequence)-1)])
	if err := write("penultimate.spvasm", penult); err != nil {
		return err
	}
	inputsJSON, err := interp.EncodeInputs(o.Inputs)
	if err != nil {
		return err
	}
	if err := os.WriteFile(filepath.Join(dir, "inputs.json"), inputsJSON, 0o644); err != nil {
		return err
	}
	// Input-modifying transformations give the variant its own inputs.
	variantInputsJSON, err := interp.EncodeInputs(r.Inputs)
	if err != nil {
		return err
	}
	if err := os.WriteFile(filepath.Join(dir, "variant_inputs.json"), variantInputsJSON, 0o644); err != nil {
		return err
	}
	seqJSON, err := fuzz.MarshalSequence(r.Sequence)
	if err != nil {
		return err
	}
	if err := os.WriteFile(filepath.Join(dir, "transformations.json"), seqJSON, 0o644); err != nil {
		return err
	}
	readme := buildReportReadme(o, r, penult)
	return os.WriteFile(filepath.Join(dir, "README.md"), []byte(readme), 0o644)
}

func buildReportReadme(o *Outcome, r *reduce.Result, penult *spirv.Module) string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "# Bug report: %s\n\n", o.Target)
	fmt.Fprintf(&sb, "- signature: `%s`\n", o.Signature)
	fmt.Fprintf(&sb, "- reference: %s, seed %d, tool %s\n", o.Reference, o.Seed, o.Tool)
	fmt.Fprintf(&sb, "- minimized sequence: %d transformation(s)\n", len(r.Sequence))
	for i, t := range r.Sequence {
		fmt.Fprintf(&sb, "  - T%d: %s\n", i+1, t.Type())
	}
	fmt.Fprintf(&sb, "- instruction delta vs original: %d\n\n", r.Delta)
	sb.WriteString("All three programs compute identical results on inputs.json; the target\n")
	sb.WriteString("treats reduced_variant differently. Reproduce with:\n\n")
	fmt.Fprintf(&sb, "    spirv-run -in reduced_variant.spvasm -inputs variant_inputs.json -target %s\n\n", o.Target)
	sb.WriteString("Regression test: both commands below must produce identical images once\n")
	sb.WriteString("the bug is fixed:\n\n")
	sb.WriteString("    spirv-run -in original.spvasm        -inputs inputs.json -target " + o.Target + "\n")
	sb.WriteString("    spirv-run -in reduced_variant.spvasm -inputs variant_inputs.json -target " + o.Target + "\n\n")
	sb.WriteString("## Smallest delta (penultimate vs reduced variant)\n\n")
	sb.WriteString("```diff\n")
	sb.WriteString(lineDiff(penult.String(), r.Variant.String(), 40))
	sb.WriteString("```\n")
	return sb.String()
}

// lineDiff renders a minimal +/- line diff between two listings, capped at
// maxLines output lines. It aligns on the longest common prefix and suffix,
// which is exact for the single-edit deltas reduction produces.
func lineDiff(a, b string, maxLines int) string {
	al := strings.Split(strings.TrimRight(a, "\n"), "\n")
	bl := strings.Split(strings.TrimRight(b, "\n"), "\n")
	pre := 0
	for pre < len(al) && pre < len(bl) && al[pre] == bl[pre] {
		pre++
	}
	suf := 0
	for suf < len(al)-pre && suf < len(bl)-pre && al[len(al)-1-suf] == bl[len(bl)-1-suf] {
		suf++
	}
	var sb strings.Builder
	emitted := 0
	for _, line := range al[pre : len(al)-suf] {
		if emitted >= maxLines {
			sb.WriteString("...\n")
			return sb.String()
		}
		fmt.Fprintf(&sb, "- %s\n", line)
		emitted++
	}
	for _, line := range bl[pre : len(bl)-suf] {
		if emitted >= maxLines {
			sb.WriteString("...\n")
			return sb.String()
		}
		fmt.Fprintf(&sb, "+ %s\n", line)
		emitted++
	}
	if emitted == 0 {
		sb.WriteString("(listings identical)\n")
	}
	return sb.String()
}

func max(a, b int) int {
	if a > b {
		return a
	}
	return b
}
