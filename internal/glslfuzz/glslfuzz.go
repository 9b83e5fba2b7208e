// Package glslfuzz simulates the glsl-fuzz baseline of the paper's
// evaluation (Section 4). The real glsl-fuzz transforms OpenGL shader source
// and reaches SPIR-V targets through cross-compilation; this simulation
// applies the same *style* of transformations directly to the SPIR-V subset,
// preserving the design contrasts the paper attributes to the tool:
//
//   - transformations are coarse-grained: one application makes many
//     related edits at once (a wrapped conditional with its loads, compares
//     and identity arithmetic; a dead conditional with a junk body; a
//     single-iteration loop), so reduction cannot strip the parts of a
//     transformation that are unnecessary for triggering a bug;
//   - fresh ids are obtained on the fly while applying, so instances are
//     not independent — removing an earlier instance can invalidate a later
//     one (the fuzzer/reducer synchronisation fragility of Section 6);
//   - the reducer is hand-crafted: it reverts whole instances greedily
//     rather than delta-debugging subsequences.
package glslfuzz

import (
	"math/rand"

	"spirvfuzz/internal/fuzz"
	"spirvfuzz/internal/interp"
	"spirvfuzz/internal/spirv"
)

// Instance is one applied coarse transformation, with enough recorded
// parameters to re-apply it during reduction.
type Instance struct {
	Kind  string   `json:"kind"`
	Block spirv.ID `json:"block,omitempty"` // target block label
	Value spirv.ID `json:"value,omitempty"` // target instruction / operand anchor
	Extra uint32   `json:"extra,omitempty"` // kind-specific knob
}

// Instance kinds.
const (
	KindWrapConditional  = "WrapConditional"  // if (u_one > 0.0) { body }
	KindInjectDeadCode   = "InjectDeadCode"   // if (u_half > 0.6) { junk }
	KindIdentityChain    = "IdentityChain"    // x -> (x*1.0)/1.0 or (x+0)*1
	KindSingleIterLoop   = "SingleIterLoop"   // loop executed exactly once
	KindSwizzleRoundTrip = "SwizzleRoundTrip" // v -> shuffle(v, v, identity)
)

// Result of a fuzzing run.
type Result struct {
	Variant   *spirv.Module
	Instances []Instance
}

// Options configures the baseline fuzzer.
type Options struct {
	Seed         int64
	MaxInstances int // default 12
}

// Fuzz applies randomized coarse transformations to a copy of original.
func Fuzz(original *spirv.Module, inputs interp.Inputs, opts Options) *Result {
	if opts.MaxInstances == 0 {
		opts.MaxInstances = 12
	}
	rng := fuzz.NewRand(opts.Seed)
	m := original.Clone()
	var applied []Instance
	kinds := []string{KindWrapConditional, KindInjectDeadCode, KindIdentityChain, KindSingleIterLoop, KindSwizzleRoundTrip}
	attempts := opts.MaxInstances * 4
	for len(applied) < opts.MaxInstances && attempts > 0 {
		attempts--
		inst := pickInstance(m, rng, kinds[rng.Intn(len(kinds))])
		if inst == nil {
			continue
		}
		if apply(m, inputs, *inst) {
			applied = append(applied, *inst)
		}
	}
	return &Result{Variant: m, Instances: applied}
}

// Replay applies instances to a fresh copy of the original, skipping any
// that are no longer applicable. This is what the hand-crafted reducer uses
// when reverting instances.
func Replay(original *spirv.Module, inputs interp.Inputs, instances []Instance) *spirv.Module {
	m := original.Clone()
	for _, inst := range instances {
		apply(m, inputs, inst)
	}
	return m
}

// Reduce is the hand-crafted reducer: it repeatedly sweeps the instance list
// from the back, reverting any instance whose removal keeps the variant
// interesting. Unlike delta debugging over fine-grained transformations, a
// retained instance keeps all of its edits.
func Reduce(original *spirv.Module, inputs interp.Inputs, instances []Instance,
	interesting func(*spirv.Module) bool) ([]Instance, *spirv.Module) {
	current := append([]Instance(nil), instances...)
	for {
		removedAny := false
		for i := len(current) - 1; i >= 0; i-- {
			candidate := append(append([]Instance{}, current[:i]...), current[i+1:]...)
			if interesting(Replay(original, inputs, candidate)) {
				current = candidate
				removedAny = true
			}
		}
		if !removedAny {
			break
		}
	}
	return current, Replay(original, inputs, current)
}

// pickInstance chooses parameters for a new instance against the current
// module state.
func pickInstance(m *spirv.Module, rng *rand.Rand, kind string) *Instance {
	fn := m.EntryPointFunction()
	if fn == nil {
		return nil
	}
	switch kind {
	case KindWrapConditional, KindInjectDeadCode, KindSingleIterLoop:
		b := fn.Blocks[rng.Intn(len(fn.Blocks))]
		return &Instance{Kind: kind, Block: b.Label}
	case KindIdentityChain, KindSwizzleRoundTrip:
		var candidates []spirv.ID
		for _, b := range fn.Blocks {
			for _, ins := range b.Body {
				if ins.Result != 0 {
					candidates = append(candidates, ins.Result)
				}
			}
		}
		if len(candidates) == 0 {
			return nil
		}
		return &Instance{Kind: kind, Value: candidates[rng.Intn(len(candidates))]}
	}
	return nil
}

// uniformNamed finds a uniform variable by debug name.
func uniformNamed(m *spirv.Module, name string) spirv.ID {
	for _, n := range m.Names {
		if n.Op != spirv.OpName {
			continue
		}
		s, _ := spirv.DecodeString(n.Operands[1:])
		if s != name {
			continue
		}
		id := spirv.ID(n.Operands[0])
		def := m.Def(id)
		if def != nil && def.Op == spirv.OpVariable {
			return id
		}
	}
	return 0
}
