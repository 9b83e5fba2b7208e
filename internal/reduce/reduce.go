// Package reduce implements the spirv-fuzz reducer of Section 3.4: delta
// debugging over the bug-inducing transformation sequence against an
// interestingness test, followed by the spirv-reduce-style shrinking of any
// remaining AddFunction bodies. It also provides the hand-off that turns a
// reduced outcome into reduction-quality measurements (Section 4.2).
package reduce

import (
	"context"

	"spirvfuzz/internal/core"
	"spirvfuzz/internal/fuzz"
	"spirvfuzz/internal/interp"
	"spirvfuzz/internal/replay"
	"spirvfuzz/internal/spirv"
	"spirvfuzz/internal/target"
)

// Interestingness is the Section 3.4 interestingness test: given a variant
// module and the inputs it executes on (input-modifying transformations may
// have changed them in sync with the module), it reports whether the bug
// still appears to be triggered. Tests built by the *On constructors are safe
// for concurrent calls, which the speculative ddmin waves rely on.
type Interestingness func(variant *spirv.Module, in interp.Inputs) bool

// Runner abstracts target execution so reductions route through a shared
// memoizing engine (runner.Engine satisfies this); ddmin probes many
// overlapping candidate subsets whose replays collapse to identical modules.
type Runner interface {
	Run(tg *target.Target, m *spirv.Module, in interp.Inputs) (*interp.Image, *target.Crash)
}

// CrashInterestingnessOn builds the interestingness test for a crash bug:
// the target, run through r, must crash with the same signature.
func CrashInterestingnessOn(r Runner, tg *target.Target, _ interp.Inputs, signature string) Interestingness {
	return func(variant *spirv.Module, in interp.Inputs) bool {
		_, crash := r.Run(tg, variant, in)
		return crash != nil && crash.Signature == signature
	}
}

// miscompilationInterestingnessOn builds the test for a miscompilation: the
// image rendered via the variant (on its inputs) must still differ from the
// image rendered via the original on the original inputs (Section 3.4's
// image-pair comparison).
func miscompilationInterestingnessOn(r Runner, tg *target.Target, origIn interp.Inputs, original *spirv.Module) Interestingness {
	origImg, origCrash := r.Run(tg, original, origIn)
	return func(variant *spirv.Module, in interp.Inputs) bool {
		if origCrash != nil {
			return false
		}
		img, crash := r.Run(tg, variant, in)
		return crash == nil && img != nil && !img.Equal(origImg)
	}
}

// ForOutcomeOn builds the interestingness test for a bug signature (a crash
// signature or target.MiscompilationSignature), with target runs routed
// through r.
func ForOutcomeOn(r Runner, tg *target.Target, original *spirv.Module, in interp.Inputs, signature string) Interestingness {
	if signature == target.MiscompilationSignature {
		return miscompilationInterestingnessOn(r, tg, in, original)
	}
	return CrashInterestingnessOn(r, tg, in, signature)
}

// Result is the outcome of a reduction.
type Result struct {
	// Kept are the indices of the original sequence that remain.
	Kept []int
	// Sequence is the minimized transformation sequence.
	Sequence []fuzz.Transformation
	// Variant is the reduced variant module.
	Variant *spirv.Module
	// Inputs are the inputs the reduced variant executes on.
	Inputs interp.Inputs
	// Delta is the size of the final delta: the difference in instruction
	// counts between the original module and the reduced variant — the
	// reduction-quality measure of Section 4.2.
	Delta int
	// Queries counts interestingness-test invocations, serial-equivalent:
	// the same at every worker count.
	Queries int
}

// ReduceParallelReplayCtx minimizes the transformation sequence of a
// bug-inducing variant: delta debugging to 1-minimality (core.Reduce, with
// speculative waves of up to workers candidates), then the spirv-reduce
// analogue that shrinks remaining AddFunction bodies. interesting must be
// safe for concurrent calls when workers > 1 (tests built by the *On
// constructors over a runner.Engine are). The kept indices, and therefore
// the reduced sequence and variant, are identical at every worker count.
//
// Replays run through reng's prefix-snapshot cache (nil or zero-budget
// disables caching: every query replays from scratch). Snapshots are shared
// across the speculative workers of one ddmin wave and across reductions
// sharing the engine; caching changes replay cost only, never results.
//
// On error the Result is nil: a done ctx stops the ddmin waves and the
// shrink probes promptly (in-flight queries finish; no new ones start), and
// a full sequence that is not interesting fails with core.ErrNotInteresting.
func ReduceParallelReplayCtx(ctx context.Context, original *spirv.Module, in interp.Inputs, ts []fuzz.Transformation, interesting Interestingness, workers int, reng *replay.Engine) (*Result, error) {
	sess := reng.NewSession(original, in, ts)
	test := func(keep []int) bool {
		c, _ := sess.Replay(keep)
		return interesting(c.Mod, c.Inputs)
	}
	kept, st, err := core.Reduce(ctx, len(ts), test, workers)
	if err != nil {
		return nil, err
	}
	shrinkQueries, err := shrinkAddFunctions(ctx, sess, kept, interesting)
	if err != nil {
		return nil, err
	}
	// The minimized keep-set was already replayed by the last successful
	// query (and the shrink probes recorded its prefix snapshots), so this
	// final replay is served from the cache instead of re-applying the whole
	// sequence.
	c, _ := sess.Replay(kept)
	return &Result{
		Kept:     kept,
		Sequence: sess.Sequence(kept),
		Variant:  c.Mod,
		Inputs:   c.Inputs,
		Delta:    c.Mod.InstructionCount() - original.InstructionCount(),
		Queries:  st.Queries + shrinkQueries,
	}, nil
}

// shrinkAddFunctions is the spirv-reduce post-pass (Section 3.4): donated
// functions sometimes carry more instructions than the bug needs, and
// AddFunction is the one transformation that could not be split into smaller
// transformations. For each remaining AddFunction, try deleting body
// instructions whose results nothing in the encoded function uses.
//
// Each probe overrides the AddFunction's slot in the replay session rather
// than copying the whole candidate sequence: the prefix before the slot is
// served from the snapshot cache and only the AddFunction and its suffix are
// re-applied. Accepted shrinks are committed into the session, which keeps
// prefix snapshots below the slot valid.
//
// Slots are processed in descending order: a probe re-applies every kept
// transformation after its slot, so shrinking the later AddFunctions first
// means earlier slots' probes replay already-shrunk (cheaper) versions of
// them instead of the full originals.
func shrinkAddFunctions(ctx context.Context, sess *replay.Session, kept []int, interesting Interestingness) (int, error) {
	queries := 0
	for ki := len(kept) - 1; ki >= 0; ki-- {
		slot := kept[ki]
		af, ok := sess.At(slot).(*fuzz.AddFunction)
		if !ok {
			continue
		}
		for {
			if err := ctx.Err(); err != nil {
				return queries, err
			}
			shrunk, changed := dropOneDeadInstr(af)
			if !changed {
				break
			}
			c, _ := sess.ReplayOverride(kept, slot, shrunk)
			queries++
			if !interesting(c.Mod, c.Inputs) {
				break
			}
			af = shrunk
			sess.Commit(slot, shrunk)
		}
	}
	return queries, nil
}

// dropOneDeadInstr returns a copy of af with one unused-result body
// instruction removed, or (af, false) if none can be removed.
func dropOneDeadInstr(af *fuzz.AddFunction) (*fuzz.AddFunction, bool) {
	used := map[spirv.ID]bool{}
	scan := func(e fuzz.EncodedInstr) {
		ins, ok := e.Decode()
		if !ok {
			return
		}
		ins.Uses(func(id spirv.ID) { used[id] = true })
	}
	scan(af.Def)
	for _, p := range af.Params {
		scan(p)
	}
	for _, b := range af.Blocks {
		for _, p := range b.Phis {
			scan(p)
		}
		for _, ins := range b.Body {
			scan(ins)
		}
		if b.Merge != nil {
			scan(*b.Merge)
		}
		scan(b.Term)
	}
	for bi, b := range af.Blocks {
		for ii, e := range b.Body {
			ins, ok := e.Decode()
			if !ok || ins.Result == 0 || used[ins.Result] || ins.Op.HasSideEffects() || ins.Op == spirv.OpVariable {
				continue
			}
			clone := *af
			clone.Blocks = append([]fuzz.EncodedBlock{}, af.Blocks...)
			nb := clone.Blocks[bi]
			nb.Body = append(append([]fuzz.EncodedInstr{}, b.Body[:ii]...), b.Body[ii+1:]...)
			clone.Blocks[bi] = nb
			return &clone, true
		}
	}
	return af, false
}

// ShrinkAddFunctionsForTest exposes shrinkAddFunctions to benchmarks.
func ShrinkAddFunctionsForTest(sess *replay.Session, kept []int, interesting Interestingness) int {
	queries, _ := shrinkAddFunctions(context.Background(), sess, kept, interesting)
	return queries
}
