package experiments

import (
	"fmt"
	"strings"

	"spirvfuzz/internal/fuzz"
	"spirvfuzz/internal/glslfuzz"
	"spirvfuzz/internal/reduce"
	"spirvfuzz/internal/service"
	"spirvfuzz/internal/spirv"
	"spirvfuzz/internal/stats"
	"spirvfuzz/internal/store"
	"spirvfuzz/internal/target"
)

// RQ2Result is the reduction-quality comparison of Section 4.2: reductions
// are run for the AMD-LLPC, spirv-opt, spirv-opt-old and SwiftShader targets
// (those not requiring a GPU in the paper), and the quality measure is the
// instruction-count delta between the original module and the reduced
// variant.
type RQ2Result struct {
	FuzzDeltas []int // per reduction, spirv-fuzz
	GlslDeltas []int // per reduction, glsl-fuzz
	// Unreduced deltas, to show both tools start from large variants.
	FuzzUnreduced       []int
	GlslUnreduced       []int
	MedianFuzz          float64
	MedianGlsl          float64
	MedianFuzzUnreduced float64
	MedianGlslUnreduced float64
}

// rq2Targets are the targets used for the reduction experiments.
var rq2Targets = map[string]bool{
	"AMD-LLPC": true, "spirv-opt": true, "spirv-opt-old": true, "SwiftShader": true,
}

// RQ2 reduces the crash bugs both tools found on the RQ2 targets, capped per
// signature, and compares delta sizes. spirv-fuzz cases are the campaign's
// shared reductions (reduceCases); each selected glsl-fuzz variant is
// regenerated from its reference and seed and reduced by the glsl-fuzz
// reducer.
func RQ2(c *Campaigns) *RQ2Result { return must(rq2(c)) }

func rq2(c *Campaigns) (*RQ2Result, error) {
	res := &RQ2Result{}
	crash := func(b service.BugRef) bool {
		return rq2Targets[b.Target] && b.Signature != target.MiscompilationSignature
	}
	cases := selected(c.Fuzz, crash)
	recs, err := c.reduceCases(cases)
	if err != nil {
		return nil, err
	}
	for i, rec := range recs {
		bug := cases[i].Bug
		item, err := service.FindRef(c.refs, bug.Reference)
		if err != nil {
			return nil, err
		}
		// The sequence is the test: its replay rebuilds the variant, which
		// must match the fingerprint FuzzStep journaled.
		seqData, err := c.Env.Blobs.GetBlob(bug.SeqHash)
		if err != nil {
			return nil, err
		}
		seq, err := fuzz.UnmarshalSequence(seqData)
		if err != nil {
			return nil, fmt.Errorf("experiments: sequence of %s: %w", rec.Case, err)
		}
		variant, _ := fuzz.Replay(item.Mod, item.Inputs, seq)
		if h := store.HashBytes(variant.EncodeBytes()); h != bug.VariantHash {
			return nil, fmt.Errorf("experiments: replay of %s hashes to %s, journaled variant %s", rec.Case, h, bug.VariantHash)
		}
		res.FuzzDeltas = append(res.FuzzDeltas, rec.Delta)
		res.FuzzUnreduced = append(res.FuzzUnreduced, variant.InstructionCount()-item.Mod.InstructionCount())
	}

	for _, rc := range selected(c.Glsl, crash) {
		bug := rc.Bug
		item, err := service.FindRef(c.refs, bug.Reference)
		if err != nil {
			return nil, err
		}
		gen := glslfuzz.Fuzz(item.Mod, item.Inputs, glslfuzz.Options{Seed: bug.Seed})
		check := reduce.CrashInterestingnessOn(c.Env.Eng, target.ByName(bug.Target), item.Inputs, bug.Signature)
		// glsl-fuzz never modifies inputs, so adapt the two-argument test.
		_, variant := glslfuzz.Reduce(item.Mod, item.Inputs, gen.Instances,
			func(m *spirv.Module) bool { return check(m, item.Inputs) })
		res.GlslDeltas = append(res.GlslDeltas, variant.InstructionCount()-item.Mod.InstructionCount())
		res.GlslUnreduced = append(res.GlslUnreduced, gen.Variant.InstructionCount()-item.Mod.InstructionCount())
	}

	res.MedianFuzz = stats.MedianInts(res.FuzzDeltas)
	res.MedianGlsl = stats.MedianInts(res.GlslDeltas)
	res.MedianFuzzUnreduced = stats.MedianInts(res.FuzzUnreduced)
	res.MedianGlslUnreduced = stats.MedianInts(res.GlslUnreduced)
	return res, nil
}

// RenderRQ2 formats the RQ2 findings.
func RenderRQ2(r *RQ2Result) string {
	var sb strings.Builder
	sb.WriteString("RQ2: reduction quality (instruction-count delta, original vs reduced variant)\n")
	fmt.Fprintf(&sb, "  spirv-fuzz: %4d reductions, median delta %6.1f (unreduced median %6.1f)\n",
		len(r.FuzzDeltas), r.MedianFuzz, r.MedianFuzzUnreduced)
	fmt.Fprintf(&sb, "  glsl-fuzz : %4d reductions, median delta %6.1f (unreduced median %6.1f)\n",
		len(r.GlslDeltas), r.MedianGlsl, r.MedianGlslUnreduced)
	fmt.Fprintf(&sb, "  (paper: medians 8 vs 29, unreduced in the thousands)\n")
	return sb.String()
}
