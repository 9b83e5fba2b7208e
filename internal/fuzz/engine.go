package fuzz

import (
	"fmt"

	"spirvfuzz/internal/core"
	"spirvfuzz/internal/interp"
	"spirvfuzz/internal/spirv"
	"spirvfuzz/internal/spirv/validate"
)

// Options configures a fuzzing run.
type Options struct {
	// Seed controls all randomization (Section 3.2: "randomization is
	// controlled by a seed passed to spirv-fuzz on the command line").
	Seed int64
	// MaxTransformations caps the sequence length; the tool definitely
	// stops once the limit is exceeded. Defaults to 2000, as in the paper.
	MaxTransformations int
	// EnableRecommendations turns on the follow-on pass queue. Disabling it
	// gives the spirv-fuzz-simple configuration of Section 4.1.
	EnableRecommendations bool
	// Donors are modules whose functions may be donated via AddFunction.
	Donors []*spirv.Module
	// ValidateAfterEachPass re-validates the module after every pass and
	// makes Fuzz return an error naming the offending pass. Used by tests;
	// too slow for large campaigns.
	ValidateAfterEachPass bool
	// ContinueProbability is the chance of running another pass after each
	// pass completes (default 0.9).
	ContinueProbability float64
	// MinPasses is the number of passes run before the stop coin is first
	// flipped (default 6).
	MinPasses int
	// MaxPasses bounds the number of passes (default 30).
	MaxPasses int
}

func (o Options) withDefaults() Options {
	if o.MaxTransformations == 0 {
		o.MaxTransformations = 2000
	}
	if o.ContinueProbability == 0 {
		o.ContinueProbability = 0.9
	}
	if o.MinPasses == 0 {
		o.MinPasses = 6
	}
	if o.MaxPasses == 0 {
		o.MaxPasses = 30
	}
	return o
}

// Result is the outcome of a fuzzing run.
type Result struct {
	// Variant is the transformed module.
	Variant *spirv.Module
	// Transformations is the applied sequence; replaying it on the original
	// module (Definition 2.5) reproduces Variant exactly.
	Transformations []Transformation
	// PassesRun lists the fuzzer passes in execution order.
	PassesRun []string
	// Inputs are the (possibly modified) inputs the variant executes on:
	// input-modifying transformations like ScaleUniform change them in sync
	// with the module.
	Inputs interp.Inputs
}

// Fuzz applies randomized semantics-preserving transformations to a copy of
// original, returning the variant and the transformation sequence.
func Fuzz(original *spirv.Module, inputs interp.Inputs, opts Options) (*Result, error) {
	opts = opts.withDefaults()
	rng := NewRand(opts.Seed)
	ctx := NewContext(original.Clone(), inputs)
	res := &Result{}

	emit := func(t Transformation) bool {
		if len(res.Transformations) >= opts.MaxTransformations {
			return false
		}
		if !t.Precondition(ctx) {
			return false
		}
		t.Apply(ctx)
		res.Transformations = append(res.Transformations, t)
		return true
	}

	passes := Passes(opts.Donors)
	byName := make(map[string]Pass, len(passes))
	for _, p := range passes {
		byName[p.Name] = p
	}
	var queue []string // recommendation queue (FIFO)

	for i := 0; i < opts.MaxPasses; i++ {
		var pass Pass
		// With uniform probability, pop a recommended pass or pick at random.
		if opts.EnableRecommendations && len(queue) > 0 && coin(rng, 0.5) {
			pass = byName[queue[0]]
			queue = queue[1:]
		} else {
			pass = passes[rng.Intn(len(passes))]
		}
		pass.Run(ctx, rng, emit)
		res.PassesRun = append(res.PassesRun, pass.Name)
		if opts.ValidateAfterEachPass {
			if err := validate.Module(ctx.Mod); err != nil {
				return nil, fmt.Errorf("fuzz: module invalid after pass %s: %w", pass.Name, err)
			}
		}
		if opts.EnableRecommendations {
			// Push a random subset of follow-on passes.
			for _, follow := range Recommendations[pass.Name] {
				if coin(rng, 0.5) {
					queue = append(queue, follow)
				}
			}
		}
		if len(res.Transformations) >= opts.MaxTransformations {
			break
		}
		if i+1 >= opts.MinPasses && !coin(rng, opts.ContinueProbability) {
			break
		}
	}
	res.Variant = ctx.Mod
	res.Inputs = ctx.Inputs
	return res, nil
}

// ReplayContext applies a transformation sequence to a fresh copy of the
// original context per Definition 2.5 (skipping transformations whose
// preconditions fail) and returns the resulting context — module and
// (possibly co-modified) inputs — plus the indices actually applied.
func ReplayContext(original *spirv.Module, inputs interp.Inputs, ts []Transformation) (*Context, []int) {
	ctx := NewContext(original.Clone(), inputs)
	applied := core.ApplySequence(ctx, ts)
	return ctx, applied
}

// Replay is ReplayContext returning only the module.
func Replay(original *spirv.Module, inputs interp.Inputs, ts []Transformation) (*spirv.Module, []int) {
	ctx, applied := ReplayContext(original, inputs, ts)
	return ctx.Mod, applied
}

// ReplaySubsequenceContext replays only the transformations selected by keep.
func ReplaySubsequenceContext(original *spirv.Module, inputs interp.Inputs, ts []Transformation, keep []int) (*Context, []int) {
	ctx := NewContext(original.Clone(), inputs)
	applied := core.ApplySubsequence(ctx, ts, keep)
	return ctx, applied
}

// ReplaySubsequence is ReplaySubsequenceContext returning only the module.
func ReplaySubsequence(original *spirv.Module, inputs interp.Inputs, ts []Transformation, keep []int) (*spirv.Module, []int) {
	ctx, applied := ReplaySubsequenceContext(original, inputs, ts, keep)
	return ctx.Mod, applied
}

// TypeCounts returns how many applied transformations each type contributed
// — useful for campaign diagnostics and for inspecting what a fuzzing run
// actually did.
func (r *Result) TypeCounts() map[string]int {
	out := make(map[string]int)
	for _, t := range r.Transformations {
		out[t.Type()]++
	}
	return out
}
