// Package harness holds the gfauto pieces (Section 3.2) that campaign steps
// and tools share: the tool configurations under evaluation and the
// classification of an original/variant pair into a bug signature. The
// campaign pipeline itself, bug-report export included, is the step
// functions of internal/service, which spirvd, spirv-reduce and gfauto's
// experiments all run.
package harness

import (
	"context"
	"fmt"

	"spirvfuzz/internal/interp"
	"spirvfuzz/internal/runner"
	"spirvfuzz/internal/spirv"
	"spirvfuzz/internal/target"
)

// Tool identifies a fuzzer configuration under evaluation (Section 4.1).
type Tool string

// The three tool configurations of Table 3.
const (
	ToolSpirvFuzz       Tool = "spirv-fuzz"
	ToolSpirvFuzzSimple Tool = "spirv-fuzz-simple" // recommendations disabled
	ToolGlslFuzz        Tool = "glsl-fuzz"
)

// decide turns one target's original/variant observations into a signature.
func decide(tg *target.Target, origImg, varImg *interp.Image, varCrash *target.Crash) string {
	if varCrash != nil {
		return varCrash.Signature
	}
	if tg.CanRender && varImg != nil && origImg != nil && !varImg.Equal(origImg) {
		return target.MiscompilationSignature
	}
	return ""
}

// ClassifyAllCtx compares the behaviour of an original and a variant on
// every target per Figure 1 / Theorem 2.6 and returns the bug signatures,
// indexed like targets ("" where the target shows no bug). The original runs
// through eng.RunAllCtx, then the variant, so the engine hashes each module
// once and compiles and renders each distinct compiled-module class once for
// the whole target set. An original that crashes is an error, reporting the
// first crashing target in target order.
func ClassifyAllCtx(ctx context.Context, eng *runner.Engine, targets []*target.Target, original, variant *spirv.Module, origIn, varIn interp.Inputs) ([]string, error) {
	orig, err := eng.RunAllCtx(ctx, targets, original, origIn)
	if err != nil {
		return nil, err
	}
	for i, tg := range targets {
		if orig[i].Crash != nil {
			return nil, fmt.Errorf("harness: original crashes on %s: %s", tg.Name, orig[i].Crash.Signature)
		}
	}
	vars, err := eng.RunAllCtx(ctx, targets, variant, varIn)
	if err != nil {
		return nil, err
	}
	sigs := make([]string, len(targets))
	for i, tg := range targets {
		sigs[i] = decide(tg, orig[i].Img, vars[i].Img, vars[i].Crash)
	}
	return sigs, nil
}
