package service

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"strings"

	"spirvfuzz/internal/canonjson"
	"spirvfuzz/internal/corpus"
	"spirvfuzz/internal/fuzz"
	"spirvfuzz/internal/harness"
	"spirvfuzz/internal/interp"
	"spirvfuzz/internal/spirv"
	"spirvfuzz/internal/spirv/asm"
)

// LoadReport reads the report blob of a completed reduction and decodes its
// minimized transformation sequence.
func LoadReport(blobs BlobStore, hash string) (Report, []fuzz.Transformation, error) {
	blob, err := blobs.GetBlob(hash)
	if err != nil {
		return Report{}, nil, err
	}
	rep, seq, err := UnmarshalReport(blob)
	if err != nil {
		return Report{}, nil, fmt.Errorf("service: report %s: %w", hash, err)
	}
	return rep, seq, nil
}

// MarshalReport writes the report blob of rep with seq as its
// transformations: the bytes json.MarshalIndent(rep, "", "  ") writes when
// rep.Transformations holds fuzz.MarshalSequence(seq). rep.Transformations
// itself is not read.
func MarshalReport(rep Report, seq []fuzz.Transformation) ([]byte, error) {
	w := canonjson.Writer{B: make([]byte, 0, 512+192*len(seq))}
	w.Open('{')
	w.Key("case")
	w.String(rep.Case)
	w.Key("campaign")
	w.String(rep.Campaign)
	w.Key("target")
	w.String(rep.Target)
	w.Key("signature")
	w.String(rep.Signature)
	w.Key("reference")
	w.String(rep.Reference)
	w.Key("seed")
	w.Int(rep.Seed)
	w.Key("kept")
	if rep.Kept == nil {
		w.Null()
	} else {
		w.Open('[')
		for _, k := range rep.Kept {
			w.Elem()
			w.Int(int64(k))
		}
		w.Close(']')
	}
	w.Key("delta")
	w.Int(int64(rep.Delta))
	w.Key("queries")
	w.Int(int64(rep.Queries))
	w.Key("transformations")
	if err := fuzz.AppendSequence(&w, seq); err != nil {
		return nil, err
	}
	w.Close('}')
	return w.B, nil
}

// UnmarshalReport decodes a report blob and its transformation sequence.
// A blob in the shape MarshalReport writes, members in its order, is read
// in one pass, the sequence in place; any other is decoded by
// encoding/json.
func UnmarshalReport(blob []byte) (Report, []fuzz.Transformation, error) {
	if rep, seq, ok := scanReport(blob); ok {
		return rep, seq, nil
	}
	var rep Report
	if err := json.Unmarshal(blob, &rep); err != nil {
		return Report{}, nil, err
	}
	seq, err := fuzz.UnmarshalSequence(rep.Transformations)
	if err != nil {
		return Report{}, nil, err
	}
	return rep, seq, nil
}

func scanReport(blob []byte) (Report, []fuzz.Transformation, bool) {
	var rep Report
	s := canonjson.Scanner{Data: blob}
	s.Open('{')
	s.Member("case", true)
	rep.Case = s.String()
	s.Member("campaign", false)
	rep.Campaign = s.String()
	s.Member("target", false)
	rep.Target = s.String()
	s.Member("signature", false)
	rep.Signature = s.String()
	s.Member("reference", false)
	rep.Reference = s.String()
	s.Member("seed", false)
	rep.Seed = s.Int(math.MaxInt64)
	s.Member("kept", false)
	rep.Kept = []int{}
	s.Open('[')
	for first := true; s.Next(']', first); first = false {
		rep.Kept = append(rep.Kept, int(s.Int(math.MaxInt)))
	}
	s.Member("delta", false)
	rep.Delta = int(s.Int(math.MaxInt))
	s.Member("queries", false)
	rep.Queries = int(s.Int(math.MaxInt))
	s.Member("transformations", false)
	s.Peek()
	start := s.Pos
	seq := fuzz.ScanSequence(&s)
	// The raw member as encoding/json would keep it, copied out of the
	// caller's blob.
	rep.Transformations = bytes.Clone(blob[start:s.Pos])
	if s.Next('}', false) {
		s.Fail()
	}
	s.End()
	return rep, seq, !s.Failed
}

// ExportBugReport writes a self-contained bug-report bundle for a reduced
// case (Section 2.1, "Bug reports and regression tests"): given the
// 1-minimal sequence T1..Tn, the pairs most useful for reporting are
// (P0, Pn) — the complete delta against the well-understood original — and
// (Pn-1, Pn) — the smallest delta, demonstrating only the final
// transformation. The bundle contains all three programs, the inputs, the
// minimized sequence, and a README with the (Pn-1, Pn) delta inline.
// Executing any two of the programs on the inputs and checking that their
// results agree is the natural regression test. tool names the fuzzer that
// found the bug; everything else comes from rec and its report blob.
func ExportBugReport(dir string, env Env, refs []corpus.Item, tool harness.Tool, rec ReducedRec) error {
	rep, seq, err := LoadReport(env.Blobs, rec.ReportHash)
	if err != nil {
		return err
	}
	fc, item, err := MinimizedVariant(env, refs, rec)
	if err != nil {
		return err
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	write := func(name string, m *spirv.Module) error {
		return asm.SaveModule(m, filepath.Join(dir, name))
	}
	if err := write("original.spvasm", item.Mod); err != nil {
		return err
	}
	if err := write("reduced_variant.spvasm", fc.Mod); err != nil {
		return err
	}
	// Pn-1: everything but the last transformation of the minimized
	// sequence.
	penult, _ := fuzz.Replay(item.Mod, item.Inputs, seq[:max(0, len(seq)-1)])
	if err := write("penultimate.spvasm", penult); err != nil {
		return err
	}
	inputsJSON, err := interp.EncodeInputs(item.Inputs)
	if err != nil {
		return err
	}
	if err := os.WriteFile(filepath.Join(dir, "inputs.json"), inputsJSON, 0o644); err != nil {
		return err
	}
	// Input-modifying transformations give the variant its own inputs.
	variantInputsJSON, err := interp.EncodeInputs(fc.Inputs)
	if err != nil {
		return err
	}
	if err := os.WriteFile(filepath.Join(dir, "variant_inputs.json"), variantInputsJSON, 0o644); err != nil {
		return err
	}
	seqJSON, err := fuzz.MarshalSequence(seq)
	if err != nil {
		return err
	}
	if err := os.WriteFile(filepath.Join(dir, "transformations.json"), seqJSON, 0o644); err != nil {
		return err
	}
	readme := buildReportReadme(rep, tool, seq, penult, fc.Mod)
	return os.WriteFile(filepath.Join(dir, "README.md"), []byte(readme), 0o644)
}

func buildReportReadme(rep Report, tool harness.Tool, seq []fuzz.Transformation, penult, variant *spirv.Module) string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "# Bug report: %s\n\n", rep.Target)
	fmt.Fprintf(&sb, "- signature: `%s`\n", rep.Signature)
	fmt.Fprintf(&sb, "- reference: %s, seed %d, tool %s\n", rep.Reference, rep.Seed, tool)
	fmt.Fprintf(&sb, "- minimized sequence: %d transformation(s)\n", len(seq))
	for i, t := range seq {
		fmt.Fprintf(&sb, "  - T%d: %s\n", i+1, t.Type())
	}
	fmt.Fprintf(&sb, "- instruction delta vs original: %d\n\n", rep.Delta)
	sb.WriteString("All three programs compute identical results on inputs.json; the target\n")
	sb.WriteString("treats reduced_variant differently. Reproduce with:\n\n")
	fmt.Fprintf(&sb, "    spirv-run -in reduced_variant.spvasm -inputs variant_inputs.json -target %s\n\n", rep.Target)
	sb.WriteString("Regression test: both commands below must produce identical images once\n")
	sb.WriteString("the bug is fixed:\n\n")
	sb.WriteString("    spirv-run -in original.spvasm        -inputs inputs.json -target " + rep.Target + "\n")
	sb.WriteString("    spirv-run -in reduced_variant.spvasm -inputs variant_inputs.json -target " + rep.Target + "\n\n")
	sb.WriteString("## Smallest delta (penultimate vs reduced variant)\n\n")
	sb.WriteString("```diff\n")
	sb.WriteString(lineDiff(penult.String(), variant.String(), 40))
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
