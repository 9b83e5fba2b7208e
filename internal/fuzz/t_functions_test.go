package fuzz_test

import (
	"errors"
	"testing"

	"spirvfuzz/internal/corpus"
	"spirvfuzz/internal/fuzz"
	"spirvfuzz/internal/interp"
	"spirvfuzz/internal/spirv"
	"spirvfuzz/internal/spirv/validate"
	"spirvfuzz/internal/testmod"
)

func TestSetFunctionControlTransformation(t *testing.T) {
	c, want := baseline(t, testmod.Caller())
	helper := c.Mod.Functions[0]
	tr := &fuzz.SetFunctionControl{Function: helper.ID(), Control: spirv.FunctionControlDontInline}
	applyOK(t, c, tr)
	renderEq(t, c, want)
	if helper.Control() != spirv.FunctionControlDontInline {
		t.Fatal("control not set")
	}
	// Setting the same value again, a bogus mask, or a missing function.
	rejected(t, c, &fuzz.SetFunctionControl{Function: helper.ID(), Control: spirv.FunctionControlDontInline})
	rejected(t, c, &fuzz.SetFunctionControl{Function: helper.ID(), Control: 77})
	rejected(t, c, &fuzz.SetFunctionControl{Function: 9999, Control: 0})
}

func TestInlineFunctionTransformation(t *testing.T) {
	c, want := baseline(t, testmod.Caller())
	m := c.Mod
	fn := m.EntryPointFunction()
	var call *spirv.Instruction
	for _, b := range fn.Blocks {
		for _, ins := range b.Body {
			if ins.Op == spirv.OpFunctionCall {
				call = ins
			}
		}
	}
	callee := m.Function(call.IDOperand(0))
	idMap := map[spirv.ID]spirv.ID{}
	next := m.Bound
	for _, ins := range callee.Blocks[0].Body {
		if ins.Result != 0 {
			idMap[ins.Result] = next
			next++
		}
	}
	tr := &fuzz.InlineFunction{Call: call.Result, IDMap: idMap}
	applyOK(t, c, tr)
	renderEq(t, c, want)
	// The call is gone; the result id survives as a CopyObject.
	for _, b := range fn.Blocks {
		for _, ins := range b.Body {
			if ins.Op == spirv.OpFunctionCall {
				t.Fatal("call not removed")
			}
		}
	}
	if loc := c.FindInstruction(call.Result); loc == nil || loc.Instr.Op != spirv.OpCopyObject {
		t.Fatal("call result must survive as a copy of the return value")
	}
	// Re-inlining the same call id is rejected (it no longer names a call).
	rejected(t, c, &fuzz.InlineFunction{Call: call.Result, IDMap: idMap})
}

func TestInlineFunctionRejectsIncompleteIDMap(t *testing.T) {
	c, _ := baseline(t, testmod.Caller())
	m := c.Mod
	fn := m.EntryPointFunction()
	var call *spirv.Instruction
	for _, b := range fn.Blocks {
		for _, ins := range b.Body {
			if ins.Op == spirv.OpFunctionCall {
				call = ins
			}
		}
	}
	rejected(t, c, &fuzz.InlineFunction{Call: call.Result, IDMap: map[spirv.ID]spirv.ID{}})
	// Colliding fresh ids are rejected too.
	callee := m.Function(call.IDOperand(0))
	bad := map[spirv.ID]spirv.ID{}
	for _, ins := range callee.Blocks[0].Body {
		if ins.Result != 0 {
			bad[ins.Result] = m.Bound // everyone maps to the same id
		}
	}
	if len(bad) > 1 {
		rejected(t, c, &fuzz.InlineFunction{Call: call.Result, IDMap: bad})
	}
}

func TestFunctionCallTransformation(t *testing.T) {
	c, want := baseline(t, testmod.Diamond())
	m := c.Mod
	fn := m.EntryPointFunction()
	entry := fn.Entry()

	// Donate a live-safe function first.
	donors := corpus.Donors()
	var donated []fuzz.Transformation
	for _, d := range donors {
		donated = fuzz.Donate(c, d, d.Functions[0], true)
		if donated != nil {
			break
		}
	}
	if donated == nil {
		t.Fatal("no donatable function")
	}
	for _, tr := range donated {
		applyOK(t, c, tr)
	}
	callee := m.Functions[len(m.Functions)-1]
	if !c.Facts.IsLiveSafe(callee.ID()) {
		t.Fatal("donated function must be LiveSafe")
	}
	_, params, _ := m.FunctionTypeInfo(callee.TypeID())
	args := make([]spirv.ID, len(params))
	for i, p := range params {
		switch {
		case m.IsFloatType(p):
			args[i] = m.EnsureConstantFloat(0)
		case m.IsIntType(p):
			args[i] = m.EnsureConstantInt(0)
		case m.IsBoolType(p):
			args[i] = m.EnsureConstantBool(false)
		default:
			t.Skipf("donor parameter type unsupported in this test")
		}
	}
	tr := &fuzz.FunctionCall{Fresh: m.Bound, Callee: callee.ID(), Args: args, Block: entry.Label, Before: 0}
	applyOK(t, c, tr)
	renderEq(t, c, want)
	if m.TypeOp(callee.ReturnType()) != spirv.OpTypeVoid && !c.Facts.IsIrrelevant(tr.Fresh) {
		t.Fatal("live-safe call result must be Irrelevant")
	}

	// Calling a non-LiveSafe function from a live block is rejected.
	c2, _ := baseline(t, testmod.Caller())
	m2 := c2.Mod
	helper := m2.Functions[0]
	zeroF := m2.EnsureConstantFloat(0)
	rejected(t, c2, &fuzz.FunctionCall{
		Fresh: m2.Bound, Callee: helper.ID(), Args: []spirv.ID{zeroF},
		Block: m2.EntryPointFunction().Entry().Label,
	})
	// Recursion is rejected: a function calling itself.
	rejected(t, c2, &fuzz.FunctionCall{
		Fresh: m2.Bound, Callee: helper.ID(), Args: []spirv.ID{helper.Params[0].Result},
		Block: helper.Blocks[0].Label,
	})
	// Arity mismatches are rejected.
	c.Facts.MarkLiveSafe(callee.ID())
	rejected(t, c, &fuzz.FunctionCall{Fresh: m.Bound, Callee: callee.ID(), Args: nil, Block: entry.Label})
}

func TestAddParameterTransformation(t *testing.T) {
	c, want := baseline(t, testmod.Caller())
	m := c.Mod
	helper := m.Functions[0]
	f32 := m.EnsureTypeFloat(32)
	intT := m.EnsureTypeInt(32, true)
	newType := m.EnsureTypeFunction(f32, f32, intT)
	zero := m.EnsureConstantInt(0)
	var call *spirv.Instruction
	for _, b := range m.EntryPointFunction().Blocks {
		for _, ins := range b.Body {
			if ins.Op == spirv.OpFunctionCall {
				call = ins
			}
		}
	}
	tr := &fuzz.AddParameter{
		Function:   helper.ID(),
		FreshParam: m.Bound,
		ParamType:  intT,
		NewFnType:  newType,
		CallArgs:   map[spirv.ID]spirv.ID{call.Result: zero},
	}
	applyOK(t, c, tr)
	renderEq(t, c, want)
	if len(helper.Params) != 2 || len(call.Operands) != 3 {
		t.Fatal("parameter or call argument not added")
	}
	if !c.Facts.IsIrrelevant(tr.FreshParam) {
		t.Fatal("fresh parameter must be Irrelevant")
	}

	// Entry points cannot gain parameters; missing call args are rejected;
	// pointer parameter types are rejected.
	main := m.EntryPointFunction()
	voidT := m.EnsureTypeVoid()
	mainNew := m.EnsureTypeFunction(voidT, intT)
	rejected(t, c, &fuzz.AddParameter{Function: main.ID(), FreshParam: m.Bound, ParamType: intT, NewFnType: mainNew})
	newType2 := m.EnsureTypeFunction(f32, f32, intT, intT)
	rejected(t, c, &fuzz.AddParameter{Function: helper.ID(), FreshParam: m.Bound, ParamType: intT, NewFnType: newType2, CallArgs: nil})
	ptrT := m.EnsureTypePointer(spirv.StorageFunction, intT)
	newType3 := m.EnsureTypeFunction(f32, f32, intT, ptrT)
	rejected(t, c, &fuzz.AddParameter{Function: helper.ID(), FreshParam: m.Bound, ParamType: ptrT, NewFnType: newType3,
		CallArgs: map[spirv.ID]spirv.ID{call.Result: zero}})
}

func TestPropagateInstructionUpTransformation(t *testing.T) {
	c, want := baseline(t, testmod.Loop())
	m := c.Mod
	fn := m.EntryPointFunction()
	header, check := fn.Blocks[1], fn.Blocks[2]
	cmp := check.Body[0] // SLessThan over the ϕ

	tr := &fuzz.PropagateInstructionUp{
		Instr:    cmp.Result,
		FreshIDs: map[spirv.ID]spirv.ID{header.Label: m.Bound},
	}
	applyOK(t, c, tr)
	renderEq(t, c, want)
	// The comparison is now a ϕ in the check block, and the header computes
	// the hoisted copy.
	if loc := c.FindInstruction(cmp.Result); loc == nil || loc.Instr.Op != spirv.OpPhi {
		t.Fatal("propagated instruction must become a ϕ with the same id")
	}
	foundHoisted := false
	for _, ins := range header.Body {
		if ins.Op == spirv.OpSLessThan {
			foundHoisted = true
		}
	}
	if !foundHoisted {
		t.Fatal("hoisted copy missing from predecessor")
	}

	// A second application (Figure 8a applies it repeatedly): the ϕ itself
	// cannot be propagated (ϕs are not movable), but the hoisted comparison
	// in the header — not at body index 0 — is rejected too.
	rejected(t, c, &fuzz.PropagateInstructionUp{Instr: cmp.Result, FreshIDs: map[spirv.ID]spirv.ID{header.Label: m.Bound}})

	// Stores and calls are not movable; missing FreshIDs entries rejected.
	c2, _ := baseline(t, testmod.Diamond())
	fn2 := c2.Mod.EntryPointFunction()
	mergeB := fn2.Blocks[len(fn2.Blocks)-1]
	construct := mergeB.Body[0]
	rejected(t, c2, &fuzz.PropagateInstructionUp{Instr: construct.Result, FreshIDs: map[spirv.ID]spirv.ID{}})
	ok := &fuzz.PropagateInstructionUp{
		Instr: construct.Result,
		FreshIDs: map[spirv.ID]spirv.ID{
			fn2.Blocks[1].Label: c2.Mod.Bound,
			fn2.Blocks[2].Label: c2.Mod.Bound + 1,
		},
	}
	applyOK(t, c2, ok)
	img2, _ := baseline(t, testmod.Diamond())
	_ = img2
	renderEq(t, c2, mustRender(t, testmod.Diamond()))
}

func TestPropagateInstructionUpThroughPhis(t *testing.T) {
	// The Figure 8a mechanics: when the propagated instruction's operand is
	// a ϕ of the *same* block, each hoisted copy uses that ϕ's incoming
	// value for its predecessor. Rebuild the figure's middle CFG by moving
	// the loop's exit comparison into the header (where the induction ϕ
	// lives), then propagate it up into the header's two predecessors.
	c, want := baseline(t, testmod.Loop())
	m := c.Mod
	fn := m.EntryPointFunction()
	entry, header, check := fn.Blocks[0], fn.Blocks[1], fn.Blocks[2]
	iPhi := header.Phis[0]
	cmp := check.Body[0]
	if cmp.IDOperand(0) != iPhi.Result {
		t.Fatalf("expected comparison over the ϕ, got %s", cmp)
	}
	// Move the comparison into the header (it dominates the check block, so
	// this is a valid hand-edit for test setup).
	check.Body = check.Body[1:]
	header.Body = append(header.Body, cmp)

	cont := fn.Blocks[4]
	tr := &fuzz.PropagateInstructionUp{
		Instr: cmp.Result,
		FreshIDs: map[spirv.ID]spirv.ID{
			entry.Label: m.Bound,
			cont.Label:  m.Bound + 1,
		},
	}
	applyOK(t, c, tr)
	renderEq(t, c, want)

	// The entry's hoisted copy compares the ϕ's entry value (the constant
	// 0); the continue block's copy compares iNext — never the ϕ itself.
	entryCopy := entry.Body[len(entry.Body)-1]
	contCopy := cont.Body[len(cont.Body)-1]
	if entryCopy.Op != spirv.OpSLessThan || contCopy.Op != spirv.OpSLessThan {
		t.Fatalf("hoisted copies wrong: %s / %s", entryCopy, contCopy)
	}
	if entryCopy.IDOperand(0) == iPhi.Result || contCopy.IDOperand(0) == iPhi.Result {
		t.Fatal("hoisted copies must use per-predecessor incoming values, not the ϕ")
	}
	if entryCopy.IDOperand(0) == contCopy.IDOperand(0) {
		t.Fatal("the two predecessors receive different incoming values")
	}
	// The original id lives on as a ϕ selecting between the copies.
	if loc := c.FindInstruction(cmp.Result); loc == nil || loc.Instr.Op != spirv.OpPhi {
		t.Fatal("comparison must become a ϕ")
	}
}

func mustRender(t *testing.T, m *spirv.Module) *interp.Image {
	t.Helper()
	_, img := baseline(t, m)
	return img
}

// addFunctionReproducer finds the first campaign sequence holding an
// applied AddFunction with a parameter that mutate can break, and returns
// the campaign seed, the sequence with that AddFunction mutated in place,
// and its index. mutate gets the context the AddFunction applies to.
func addFunctionReproducer(t testing.TB, mutate func(c *fuzz.Context, af *fuzz.AddFunction) bool) (int64, []fuzz.Transformation, int) {
	t.Helper()
	for seed := int64(0); seed < 200; seed++ {
		item, ts := campaignSequence(t, seed)
		_, applied := fuzz.ReplayContext(item.Mod, item.Inputs, ts)
		for _, i := range applied {
			af, ok := ts[i].(*fuzz.AddFunction)
			if !ok || len(af.Params) == 0 {
				continue
			}
			if c, _ := fuzz.ReplayContext(item.Mod, item.Inputs, ts[:i]); mutate(c, af) {
				return seed, ts, i
			}
		}
	}
	t.Fatal("no campaign sequence holds a suitable AddFunction")
	return 0, nil, 0
}

// retypeParameter gives the first parameter a type other than the one the
// function type names.
func retypeParameter(c *fuzz.Context, af *fuzz.AddFunction) bool {
	for _, ins := range c.Mod.TypesGlobals {
		if ins.Op.IsType() && ins.Result != af.Params[0].TypeID {
			af.Params[0].TypeID = ins.Result
			return true
		}
	}
	return false
}

// useForeignLocal replaces a constant operand of a body instruction with an
// id of the same type that is local to a function already in the module.
func useForeignLocal(c *fuzz.Context, af *fuzz.AddFunction) bool {
	localOfType := map[spirv.ID]spirv.ID{}
	for _, fn := range c.Mod.Functions {
		for _, b := range fn.Blocks {
			for _, ins := range b.Body {
				if ins.Result != 0 && ins.Type != 0 {
					localOfType[ins.Type] = ins.Result
				}
			}
		}
	}
	for _, g := range c.Mod.TypesGlobals {
		local, ok := localOfType[g.Type]
		if !g.Op.IsConstant() || !ok {
			continue
		}
		for _, b := range af.Blocks {
			for _, e := range b.Body {
				for k, w := range e.Operands {
					if spirv.ID(w) == g.Result {
						e.Operands[k] = uint32(local)
						return true
					}
				}
			}
		}
	}
	return false
}

// checkAddFunctionRejected checks that the AddFunction at index i of a
// campaign sequence fails its precondition, and that applying it anyway
// breaks the validation rule the precondition guards.
func checkAddFunctionRejected(t *testing.T, seed int64, ts []fuzz.Transformation, i int, rule string) {
	t.Helper()
	refs := corpus.References()
	item := refs[int(uint64(seed)%uint64(len(refs)))]
	c, _ := fuzz.ReplayContext(item.Mod, item.Inputs, ts[:i])
	if ts[i].Precondition(c) {
		t.Fatalf("seed %d: AddFunction %d accepted", seed, i)
	}
	ts[i].Apply(c)
	var verr *validate.Error
	if err := validate.Module(c.Mod); !errors.As(err, &verr) || verr.Rule != rule {
		t.Fatalf("seed %d: applied anyway, AddFunction %d gives %v, want a %s violation", seed, i, err, rule)
	}
}

func TestAddFunctionRejectsParameterTypeMismatch(t *testing.T) {
	seed, ts, i := addFunctionReproducer(t, retypeParameter)
	checkAddFunctionRejected(t, seed, ts, i, "fn.param-type")
}

func TestAddFunctionRejectsForeignLocalID(t *testing.T) {
	seed, ts, i := addFunctionReproducer(t, useForeignLocal)
	checkAddFunctionRejected(t, seed, ts, i, "ssa.dominance")
}
