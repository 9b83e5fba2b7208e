package fuzz_test

import (
	"math"
	"testing"

	"spirvfuzz/internal/corpus"
	"spirvfuzz/internal/fuzz"
	"spirvfuzz/internal/interp"
	"spirvfuzz/internal/spirv"
	"spirvfuzz/internal/testmod"
)

// matrixCtx builds a context over the Matrix shader, whose "scale" uniform
// is loaded once.
func matrixCtx(scale float32) (*fuzz.Context, *interp.Image, error) {
	m := testmod.Matrix()
	in := interp.Inputs{W: 4, H: 4, Uniforms: map[string]interp.Value{"scale": interp.FloatVal(scale)}}
	img, err := interp.Render(m, in)
	return fuzz.NewContext(m, in), img, err
}

func scaleUniformOf(c *fuzz.Context) (*fuzz.ScaleUniform, spirv.ID) {
	m := c.Mod
	var uv spirv.ID
	for _, ins := range m.TypesGlobals {
		if ins.Op == spirv.OpVariable && ins.Operands[0] == spirv.StorageUniformConstant {
			uv = ins.Result
		}
	}
	half := m.EnsureConstantFloat(0.5)
	freshIDs := map[spirv.ID]spirv.ID{}
	next := m.Bound
	for _, fn := range m.Functions {
		for _, b := range fn.Blocks {
			for _, ins := range b.Body {
				if ins.Op == spirv.OpLoad && ins.IDOperand(0) == uv {
					freshIDs[ins.Result] = next
					next++
				}
			}
		}
	}
	return &fuzz.ScaleUniform{UniformVar: uv, HalfConst: half, FreshIDs: freshIDs}, uv
}

func TestScaleUniformPreservesSemantics(t *testing.T) {
	c, want, err := matrixCtx(0.75)
	if err != nil {
		t.Fatal(err)
	}
	tr, _ := scaleUniformOf(c)
	applyOK(t, c, tr)
	renderEq(t, c, want)
	// The input value doubled...
	if got := c.Inputs.Uniforms["scale"].F; got != 1.5 {
		t.Fatalf("input value = %v, want 1.5", got)
	}
	// ...and every load is compensated by a multiply with 0.5.
	found := false
	for _, fn := range c.Mod.Functions {
		for _, b := range fn.Blocks {
			for i, ins := range b.Body {
				if ins.Op == spirv.OpLoad && ins.IDOperand(0) == tr.UniformVar {
					next := b.Body[i+1]
					if next.Op != spirv.OpFMul || next.IDOperand(0) != ins.Result {
						t.Fatalf("load not followed by compensation: %s then %s", ins, next)
					}
					found = true
				}
			}
		}
	}
	if !found {
		t.Fatal("no compensated load found")
	}
}

func TestScaleUniformComposes(t *testing.T) {
	// Applying the transformation twice quadruples the input and compensates
	// twice; semantics are still preserved exactly.
	c, want, err := matrixCtx(0.25)
	if err != nil {
		t.Fatal(err)
	}
	tr1, _ := scaleUniformOf(c)
	applyOK(t, c, tr1)
	tr2, _ := scaleUniformOf(c)
	applyOK(t, c, tr2)
	renderEq(t, c, want)
	if got := c.Inputs.Uniforms["scale"].F; got != 1.0 {
		t.Fatalf("input value = %v, want 1.0", got)
	}
}

func TestScaleUniformPreconditions(t *testing.T) {
	c, _, err := matrixCtx(0.5)
	if err != nil {
		t.Fatal(err)
	}
	m := c.Mod
	tr, uv := scaleUniformOf(c)

	// Wrong half constant.
	bad := *tr
	bad.HalfConst = m.EnsureConstantFloat(0.25)
	rejected(t, c, &bad)
	// Incomplete load coverage.
	bad2 := *tr
	bad2.FreshIDs = map[spirv.ID]spirv.ID{}
	rejected(t, c, &bad2)
	// Non-uniform variable.
	bad3 := *tr
	for _, ins := range m.TypesGlobals {
		if ins.Op == spirv.OpVariable && ins.Operands[0] == spirv.StorageOutput {
			bad3.UniformVar = ins.Result
		}
	}
	rejected(t, c, &bad3)
	// Infinite doubling.
	c.Inputs.Uniforms["scale"] = interp.FloatVal(math.MaxFloat32)
	rejected(t, c, tr)
	c.Inputs.Uniforms["scale"] = interp.FloatVal(0.5)
	_ = uv
	// The earlier Ensure calls consumed ids, so rebuild with fresh ids: the
	// transformation then applies cleanly.
	good, _ := scaleUniformOf(c)
	applyOK(t, c, good)
}

func TestScaleUniformRejectedWhenLoadHasSynonym(t *testing.T) {
	// If a load participates in a Synonymous fact, scaling would falsify the
	// fact; the precondition rejects it.
	c, _, err := matrixCtx(0.5)
	if err != nil {
		t.Fatal(err)
	}
	m := c.Mod
	tr, uv := scaleUniformOf(c)
	var loadID spirv.ID
	for l := range tr.FreshIDs {
		loadID = l
	}
	_ = uv
	loc := c.FindInstruction(loadID)
	cp := &fuzz.CopyObject{Fresh: m.Bound, Source: loadID, Block: loc.Block.Label, Before: 0}
	applyOK(t, c, cp)
	tr2, _ := scaleUniformOf(c) // re-enumerate loads (unchanged set)
	rejected(t, c, tr2)
}

func TestScaleUniformReductionInterplay(t *testing.T) {
	// A ScaleUniform whose loads came from an earlier ObfuscateConstants-
	// style load self-invalidates when that load's transformation is removed
	// during reduction — the map no longer covers the load set exactly.
	c, want, err := matrixCtx(0.5)
	if err != nil {
		t.Fatal(err)
	}
	original := c.Mod.Clone()
	origInputs := c.Inputs.Clone()

	// T1 adds a second load of the uniform; T2 scales (covering both loads).
	m := c.Mod
	_, uv := scaleUniformOf(c)
	entry := m.EntryPointFunction().Entry()
	t1 := &fuzz.AddLoad{Fresh: m.Bound, Pointer: uv, Block: entry.Label, Before: 0}
	applyOK(t, c, t1)
	t2, _ := scaleUniformOf(c)
	applyOK(t, c, t2)
	renderEq(t, c, want)

	seq := []fuzz.Transformation{t1, t2}
	// Dropping T1: T2's map still lists T1's load → precondition fails → T2
	// skipped; the replayed context must equal the original (no half-applied
	// state), and in particular the inputs must be pristine.
	ctx, applied := fuzz.ReplaySubsequenceContext(original, origInputs, seq, []int{1})
	if len(applied) != 0 {
		t.Fatalf("T2 should be skipped without T1; applied %v", applied)
	}
	if got := ctx.Inputs.Uniforms["scale"].F; got != 0.5 {
		t.Fatalf("inputs mutated despite skip: %v", got)
	}
	// Full replay matches the fuzzed context.
	ctx2, applied2 := fuzz.ReplaySubsequenceContext(original, origInputs, seq, []int{0, 1})
	if len(applied2) != 2 {
		t.Fatalf("full replay applied %v", applied2)
	}
	if ctx2.Mod.String() != c.Mod.String() {
		t.Fatal("full replay diverged")
	}
	if ctx2.Inputs.Uniforms["scale"].F != 2.0*0.5 {
		t.Fatalf("replayed input = %v", ctx2.Inputs.Uniforms["scale"].F)
	}
}

// TestScaleUniformRejectsPointerSynonym replays the reduced form of a
// campaign variant (diamond2, seed 2776) that rendered differently from its
// reference: a uniform load is made through a copy of the uniform's
// pointer, and ScaleUniform, which compensates only direct loads, then
// doubled the input under it. ScaleUniform must not apply while such a
// synonym exists, so the replay keeps the reference's image.
func TestScaleUniformRejectsPointerSynonym(t *testing.T) {
	var item corpus.Item
	for _, it := range corpus.References() {
		if it.Name == "diamond2" {
			item = it
		}
	}
	ts, err := fuzz.UnmarshalSequence([]byte(`[
		{"type": "ReplaceConstantWithUniform", "args": {"user": 38, "operand": 1, "uniformVar": 5, "freshLoad": 42}},
		{"type": "CopyObject", "args": {"fresh": 44, "source": 5, "block": 18, "before": 23}},
		{"type": "ReplaceIdWithSynonym", "args": {"user": 42, "operand": 0, "synonym": 44}},
		{"type": "ScaleUniform", "args": {"uniformVar": 5, "halfConst": 32}}
	]`))
	if err != nil {
		t.Fatal(err)
	}
	c, applied := fuzz.ReplayContext(item.Mod, item.Inputs, ts)
	if len(applied) < 3 || applied[2] != 2 {
		t.Fatalf("the load does not read through the pointer copy: applied %v", applied)
	}
	want, err := interp.Render(item.Mod, item.Inputs)
	if err != nil {
		t.Fatal(err)
	}
	got, err := interp.Render(c.Mod, c.Inputs)
	if err != nil {
		t.Fatal(err)
	}
	if !got.Equal(want) {
		t.Fatalf("replay of %v renders %d pixels differently", applied, got.DiffCount(want))
	}
	if len(applied) != 3 {
		t.Fatalf("ScaleUniform applied over a pointer synonym: applied %v", applied)
	}
}
