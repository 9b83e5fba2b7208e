package interp_test

// Differential tests pinning the compiled register VM to the tree-walking
// reference evaluator: for every module — canonical, corpus, fuzzed,
// optimizer-shaped or deliberately broken — both engines must produce
// byte-identical images, or faults with identical messages. This is the
// executable statement of the "two engines, one semantics" contract Render
// relies on.

import (
	"sync"
	"testing"

	"spirvfuzz/internal/corpus"
	"spirvfuzz/internal/fuzz"
	"spirvfuzz/internal/interp"
	"spirvfuzz/internal/spirv"
	"spirvfuzz/internal/target"
	"spirvfuzz/internal/testmod"
)

// assertEnginesAgree renders m under the tree walker and under the compiled
// VM, requiring bitwise-equal images or string-equal faults.
func assertEnginesAgree(t *testing.T, name string, m *spirv.Module, in interp.Inputs) {
	t.Helper()
	treeImg, treeErr := interp.RenderTree(m, in)
	prog, compileErr := interp.Compile(m)
	if compileErr != nil {
		// Compile rejects exactly the modules the tree walker rejects
		// before rendering the first pixel, with the same message.
		if treeErr == nil {
			t.Fatalf("%s: Compile failed (%v) but tree walker rendered fine", name, compileErr)
		}
		if treeErr.Error() != compileErr.Error() {
			t.Fatalf("%s: Compile error %q != tree error %q", name, compileErr, treeErr)
		}
		return
	}
	vmImg, vmErr := prog.Render(in)
	switch {
	case treeErr == nil && vmErr == nil:
		if !treeImg.Equal(vmImg) {
			t.Fatalf("%s: images differ (%d pixels)\ntree:\n%svm:\n%s",
				name, treeImg.DiffCount(vmImg), treeImg.ASCII(), vmImg.ASCII())
		}
	case treeErr != nil && vmErr != nil:
		if treeErr.Error() != vmErr.Error() {
			t.Fatalf("%s: fault mismatch: tree %q, vm %q", name, treeErr, vmErr)
		}
	default:
		t.Fatalf("%s: outcome mismatch: tree err %v, vm err %v", name, treeErr, vmErr)
	}
}

func TestVMDiffCanonicalModules(t *testing.T) {
	in := interp.Inputs{W: 8, H: 8, Uniforms: map[string]interp.Value{"scale": interp.FloatVal(0.5)}}
	for name, m := range testmod.All() {
		assertEnginesAgree(t, name, m, in)
	}
}

func TestVMDiffCorpusReferences(t *testing.T) {
	for _, item := range corpus.References() {
		assertEnginesAgree(t, item.Name, item.Mod, item.Inputs)
	}
}

// TestVMDiffFuzzedModules runs the fuzzer over every corpus reference with
// donors enabled, producing 60 structurally diverse variants (dead blocks,
// donated functions, obfuscated constants, wrapped regions...), and checks
// engine agreement on each.
func TestVMDiffFuzzedModules(t *testing.T) {
	refs := corpus.References()
	var donors []*spirv.Module
	for _, item := range refs[:3] {
		donors = append(donors, item.Mod)
	}
	const variants = 60
	for i := 0; i < variants; i++ {
		item := refs[i%len(refs)]
		res, err := fuzz.Fuzz(item.Mod, item.Inputs, fuzz.Options{
			Seed:                  int64(7000 + i),
			Donors:                donors,
			EnableRecommendations: i%2 == 0,
		})
		if err != nil {
			t.Fatalf("fuzz %s seed %d: %v", item.Name, 7000+i, err)
		}
		assertEnginesAgree(t, item.Name, res.Variant, res.Inputs)
	}
}

// TestVMDiffOptimizedModules pushes corpus references and a few fuzzed
// variants through the shared optimizer pipeline, exercising the VM on
// optimizer-shaped control flow (merged blocks, folded constants).
func TestVMDiffOptimizedModules(t *testing.T) {
	for _, item := range corpus.References() {
		opt, err := target.SharedCompile(item.Mod, nil)
		if err != nil {
			t.Fatalf("SharedCompile %s: %v", item.Name, err)
		}
		assertEnginesAgree(t, item.Name+"/opt", opt, item.Inputs)
	}
	refs := corpus.References()
	for i := 0; i < 8; i++ {
		item := refs[i%len(refs)]
		res, err := fuzz.Fuzz(item.Mod, item.Inputs, fuzz.Options{Seed: int64(9000 + i)})
		if err != nil {
			t.Fatalf("fuzz %s: %v", item.Name, err)
		}
		opt, err := target.SharedCompile(res.Variant, nil)
		if err != nil {
			t.Fatalf("SharedCompile fuzzed %s: %v", item.Name, err)
		}
		assertEnginesAgree(t, item.Name+"/fuzz+opt", opt, res.Inputs)
	}
}

// TestVMDiffFaultModules crafts modules that fault or discard in every way
// the interpreter knows, and checks the VM reproduces each fault verbatim
// (message and all). It also crafts the store shapes the VM's in-place
// OpStore must handle exactly like the tree-walker.
func TestVMDiffFaultModules(t *testing.T) {
	in := interp.Inputs{W: 8, H: 8}
	cases := map[string]*spirv.Module{}

	{ // Step-limit fault: a block branching to itself.
		m := testmod.Diamond()
		fn := m.EntryPointFunction()
		fn.Blocks[1].Term = spirv.NewInstr(spirv.OpBranch, 0, 0, uint32(fn.Blocks[1].Label))
		cases["step-limit"] = m
	}
	{ // OpUnreachable executed.
		m := testmod.Diamond()
		m.EntryPointFunction().Blocks[1].Term = spirv.NewInstr(spirv.OpUnreachable, 0, 0)
		cases["unreachable"] = m
	}
	{ // Block with no terminator at all.
		m := testmod.Diamond()
		m.EntryPointFunction().Blocks[1].Term = nil
		cases["no-terminator"] = m
	}
	{ // Branch to a block that does not exist.
		m := testmod.Diamond()
		m.EntryPointFunction().Blocks[1].Term = spirv.NewInstr(spirv.OpBranch, 0, 0, 9999)
		cases["missing-block"] = m
	}
	{ // ϕ whose incoming predecessors never match the actual edge.
		m := testmod.Diamond()
		phi := m.EntryPointFunction().Blocks[3].Phis[0]
		phi.Operands[1], phi.Operands[3] = 9999, 9999
		cases["phi-missing-pred"] = m
	}
	{ // ϕ in the entry block, which has no predecessors.
		m := testmod.Diamond()
		fn := m.EntryPointFunction()
		fn.Blocks[0].Phis = append(fn.Blocks[0].Phis, fn.Blocks[3].Phis...)
		cases["entry-phi"] = m
	}
	{ // Read of an id with no definition anywhere.
		b := spirv.NewBuilder()
		s := b.BeginFragmentShell()
		one := b.Mod.EnsureConstantFloat(1)
		v := b.Emit(spirv.OpFAdd, s.Float, spirv.ID(9990), spirv.ID(9990))
		col := b.Emit(spirv.OpCompositeConstruct, s.Vec4, v, v, v, one)
		b.Store(s.Color, col)
		b.FinishFragmentShell(s)
		cases["undefined-id"] = b.Mod
	}
	{ // Call to a function that does not exist.
		b := spirv.NewBuilder()
		s := b.BeginFragmentShell()
		one := b.Mod.EnsureConstantFloat(1)
		v := b.Emit(spirv.OpFunctionCall, s.Float, spirv.ID(9999))
		col := b.Emit(spirv.OpCompositeConstruct, s.Vec4, v, v, v, one)
		b.Store(s.Color, col)
		b.FinishFragmentShell(s)
		cases["missing-function"] = b.Mod
	}
	{ // Call with the wrong number of arguments.
		m := testmod.Caller()
		for _, blk := range m.EntryPointFunction().Blocks {
			for _, ins := range blk.Body {
				if ins.Op == spirv.OpFunctionCall {
					ins.Operands = ins.Operands[:1] // drop the argument
				}
			}
		}
		cases["bad-arity"] = m
	}
	{ // OpSwitch on a float selector.
		b := spirv.NewBuilder()
		s := b.BeginFragmentShell()
		m := b.Mod
		selC := m.EnsureConstantFloat(1.5)
		one := m.EnsureConstantFloat(1)
		def, merge := b.NewLabel(), b.NewLabel()
		b.SelectionMerge(merge)
		b.Blk.Term = spirv.NewInstr(spirv.OpSwitch, 0, 0, uint32(selC), uint32(def))
		b.Blk = nil
		b.Begin(def)
		b.Branch(merge)
		b.Begin(merge)
		col := m.EnsureConstantComposite(s.Vec4, one, one, one, one)
		colv := b.Emit(spirv.OpCopyObject, s.Vec4, col)
		b.Store(s.Color, colv)
		b.FinishFragmentShell(s)
		cases["switch-float-selector"] = m
	}
	{ // Unbounded recursion: exceeds the call-depth limit.
		m := testmod.Caller()
		var helper *spirv.Function
		for _, fn := range m.Functions {
			if fn != m.EntryPointFunction() {
				helper = fn
			}
		}
		// Rewrite the helper body to call itself.
		callee := helper.ID()
		body := helper.Blocks[0].Body
		for _, ins := range body {
			if ins.Op == spirv.OpFAdd {
				ins.Op = spirv.OpFunctionCall
				ins.Operands = []uint32{uint32(callee), uint32(helper.Params[0].Result)}
			}
		}
		cases["call-depth"] = m
	}

	// The VM's OpStore writes into the target cell's existing element
	// storage; these modules pin that against the tree-walker's
	// clone-per-store reference.
	{ // A composite stored, then stored again with a different shape:
		// inner vector length, outer arity, scalar over composite, and
		// back — on a local variable and on the output cell itself.
		b := spirv.NewBuilder()
		s := b.BeginFragmentShell()
		m := b.Mod
		one := m.EnsureConstantFloat(1)
		st4 := m.EnsureTypeStruct(s.Vec4, s.Float)
		st2 := m.EnsureTypeStruct(s.Vec2, s.Float)
		st3 := m.EnsureTypeStruct(s.Vec2, s.Float, s.Float)
		v := b.LocalVariable(st4)
		c := b.Emit(spirv.OpLoad, s.Vec2, s.Coord)
		x := b.EmitWords(spirv.OpCompositeExtract, s.Float, uint32(c), 0)
		y := b.EmitWords(spirv.OpCompositeExtract, s.Float, uint32(c), 1)
		a4 := b.Emit(spirv.OpCompositeConstruct, s.Vec4, x, y, x, one)
		b.Store(v, b.Emit(spirv.OpCompositeConstruct, st4, a4, y))
		b.Store(v, b.Emit(spirv.OpCompositeConstruct, st2, c, x))
		l2 := b.Emit(spirv.OpLoad, st2, v)
		b.Store(v, b.Emit(spirv.OpCompositeConstruct, st3, c, x, one))
		b.Store(v, b.Emit(spirv.OpCompositeConstruct, st2, c, y))
		// Index 2 clamps to the last member: a stale third member left
		// behind by the wider store would show here.
		pFloat := m.EnsureTypePointer(spirv.StorageFunction, s.Float)
		f := b.Emit(spirv.OpLoad, s.Float, b.AccessChain(pFloat, v, m.EnsureConstantInt(2)))
		b.Store(v, x)
		b.Store(v, b.Emit(spirv.OpCompositeConstruct, st4, a4, x))
		l1 := b.Emit(spirv.OpLoad, st4, v)
		b.Store(s.Color, c)
		col := b.Emit(spirv.OpCompositeConstruct, s.Vec4,
			b.EmitWords(spirv.OpCompositeExtract, s.Float, uint32(l2), 1),
			f,
			b.EmitWords(spirv.OpCompositeExtract, s.Float, uint32(l1), 0, 1),
			b.EmitWords(spirv.OpCompositeExtract, s.Float, uint32(l1), 1))
		b.Store(s.Color, col)
		b.FinishFragmentShell(s)
		cases["store-reshape"] = m
	}
	{ // Stores through access-chain paths: one and two levels deep, a
		// coordinate-dependent (clamped) index, and into the output cell.
		b := spirv.NewBuilder()
		s := b.BeginFragmentShell()
		m := b.Mod
		one := m.EnsureConstantFloat(1)
		quarter := m.EnsureConstantFloat(0.25)
		i0, i1, i2 := m.EnsureConstantInt(0), m.EnsureConstantInt(1), m.EnsureConstantInt(2)
		arr := m.EnsureTypeArray(s.Vec4, m.EnsureConstantInt(3))
		pVec4 := m.EnsureTypePointer(spirv.StorageFunction, s.Vec4)
		pFloat := m.EnsureTypePointer(spirv.StorageFunction, s.Float)
		v := b.LocalVariable(arr)
		c := b.Emit(spirv.OpLoad, s.Vec2, s.Coord)
		x := b.EmitWords(spirv.OpCompositeExtract, s.Float, uint32(c), 0)
		y := b.EmitWords(spirv.OpCompositeExtract, s.Float, uint32(c), 1)
		a := b.Emit(spirv.OpCompositeConstruct, s.Vec4, x, y, x, one)
		bb := b.Emit(spirv.OpCompositeConstruct, s.Vec4, y, x, y, one)
		b.Store(v, b.Emit(spirv.OpCompositeConstruct, arr, a, bb, a))
		b.Store(b.AccessChain(pVec4, v, i1), a)
		b.Store(b.AccessChain(pFloat, v, i1, i2), y)
		dyn := b.Emit(spirv.OpConvertFToS, s.Int, b.Emit(spirv.OpFMul, s.Float, x, m.EnsureConstantFloat(8)))
		b.Store(b.AccessChain(pFloat, v, dyn, i0), quarter)
		ld := b.Emit(spirv.OpLoad, arr, v)
		pOut := m.EnsureTypePointer(spirv.StorageOutput, s.Float)
		b.Store(s.Color, b.EmitWords(spirv.OpCompositeExtract, s.Vec4, uint32(ld), 1))
		b.Store(b.AccessChain(pOut, s.Color, i0), b.EmitWords(spirv.OpCompositeExtract, s.Float, uint32(ld), 2, 0))
		b.Store(b.AccessChain(pOut, s.Color, i1), b.EmitWords(spirv.OpCompositeExtract, s.Float, uint32(ld), 0, 0))
		b.FinishFragmentShell(s)
		cases["store-access-chain"] = m
	}
	{ // A loaded copy modified after a later store to the same cell; the
		// copy stored into a second cell must not see further writes to the
		// first; a private global accumulates across pixels from a constant
		// initializer that is also read directly.
		b := spirv.NewBuilder()
		s := b.BeginFragmentShell()
		m := b.Mod
		one := m.EnsureConstantFloat(1)
		half := m.EnsureConstantFloat(0.5)
		i1 := m.EnsureConstantInt(1)
		init := m.EnsureConstantComposite(s.Vec4, half, half, half, one)
		acc := b.GlobalVariable("acc", spirv.StoragePrivate, s.Vec4, init)
		pFloat := m.EnsureTypePointer(spirv.StorageFunction, s.Float)
		v := b.LocalVariable(s.Vec4)
		w := b.LocalVariable(s.Vec4)
		c := b.Emit(spirv.OpLoad, s.Vec2, s.Coord)
		x := b.EmitWords(spirv.OpCompositeExtract, s.Float, uint32(c), 0)
		y := b.EmitWords(spirv.OpCompositeExtract, s.Float, uint32(c), 1)
		b.Store(v, b.Emit(spirv.OpCompositeConstruct, s.Vec4, x, y, x, one))
		l1 := b.Emit(spirv.OpLoad, s.Vec4, v)
		b.Store(v, b.Emit(spirv.OpCompositeConstruct, s.Vec4, y, x, y, one))
		m1 := b.EmitWords(spirv.OpCompositeInsert, s.Vec4, uint32(half), uint32(l1), 2)
		b.Store(w, l1)
		b.Store(b.AccessChain(pFloat, v, i1), half)
		lw := b.Emit(spirv.OpLoad, s.Vec4, w)
		lv := b.Emit(spirv.OpLoad, s.Vec4, v)
		la := b.Emit(spirv.OpLoad, s.Vec4, acc)
		sum := b.Emit(spirv.OpFAdd, s.Vec4, la, b.Emit(spirv.OpFMul, s.Vec4, lv, init))
		b.Store(acc, b.Emit(spirv.OpFMul, s.Vec4, sum, init))
		col := b.Emit(spirv.OpCompositeConstruct, s.Vec4,
			b.EmitWords(spirv.OpCompositeExtract, s.Float, uint32(m1), 2),
			b.EmitWords(spirv.OpCompositeExtract, s.Float, uint32(lw), 1),
			b.EmitWords(spirv.OpCompositeExtract, s.Float, uint32(lv), 1),
			b.EmitWords(spirv.OpCompositeExtract, s.Float, uint32(la), 0))
		b.Store(s.Color, b.Emit(spirv.OpFAdd, s.Vec4, col, b.Emit(spirv.OpFMul, s.Vec4, init, init)))
		b.FinishFragmentShell(s)
		cases["store-after-load"] = m
	}

	for name, m := range cases {
		assertEnginesAgree(t, name, m, in)
	}
	for _, name := range []string{"store-reshape", "store-access-chain", "store-after-load"} {
		if _, err := interp.RenderTree(cases[name], in); err != nil {
			t.Fatalf("%s: must render, faulted: %v", name, err)
		}
	}
}

// TestVMDiffKillParallel pins the discard path specifically: killed
// fragments must leave identical transparent holes under both engines.
func TestVMDiffKillParallel(t *testing.T) {
	m := testmod.KillHalf()
	prog, err := interp.Compile(m)
	if err != nil {
		t.Fatal(err)
	}
	in := interp.Inputs{W: 16, H: 16}
	ref, err := interp.RenderTree(m, in)
	if err != nil {
		t.Fatal(err)
	}
	img, err := prog.Render(in)
	if err != nil {
		t.Fatal(err)
	}
	if !ref.Equal(img) {
		t.Fatal("image differs from tree reference")
	}
}

// TestVMDiffFirstFaultWins pins the VM's fault selection: when several
// pixels fault, the reported fault must be the one the tree walker's scan
// order hits first.
func TestVMDiffFirstFaultWins(t *testing.T) {
	// Faults on the right half of every row: pixel (4,0) faults first in
	// scan order.
	b := spirv.NewBuilder()
	s := b.BeginFragmentShell()
	m := b.Mod
	half := m.EnsureConstantFloat(0.5)
	one := m.EnsureConstantFloat(1)
	c := b.Emit(spirv.OpLoad, s.Vec2, s.Coord)
	x := b.EmitWords(spirv.OpCompositeExtract, s.Float, uint32(c), 0)
	cond := b.Emit(spirv.OpFOrdLessThan, s.Bool, x, half)
	bad, ok := b.NewLabel(), b.NewLabel()
	b.SelectionMerge(ok)
	b.BranchCond(cond, ok, bad)
	b.Begin(bad)
	b.Blk.Term = spirv.NewInstr(spirv.OpUnreachable, 0, 0)
	b.Blk = nil
	b.Begin(ok)
	col := m.EnsureConstantComposite(s.Vec4, one, one, one, one)
	colv := b.Emit(spirv.OpCopyObject, s.Vec4, col)
	b.Store(s.Color, colv)
	b.FinishFragmentShell(s)

	in := interp.Inputs{W: 8, H: 8}
	_, treeErr := interp.RenderTree(m, in)
	if treeErr == nil {
		t.Fatal("expected a fault")
	}
	prog, err := interp.Compile(m)
	if err != nil {
		t.Fatal(err)
	}
	if _, vmErr := prog.Render(in); vmErr == nil || vmErr.Error() != treeErr.Error() {
		t.Fatalf("fault %v, want %v", vmErr, treeErr)
	}
}

// TestVMDiffFrameCells pins the VM's frame-owned variable cells against the
// tree-walker's fresh cell per OpVariable execution: locals passed by
// pointer to callees that store through them, a function's locals starting
// fresh on every call, initialized locals, a discard after a store, access
// chains into local arrays and structs, the variables the planner leaves on
// fresh cells (one outside the entry block, one in an entry block branched
// back to), and pointers that outlive their activation (returned, or
// stored into memory).
func TestVMDiffFrameCells(t *testing.T) {
	in := interp.Inputs{W: 8, H: 8}
	cases := map[string]*spirv.Module{}

	{ // A caller's local passed by pointer to a callee that reads it,
		// stores through it and through an access chain into it, twice.
		b := spirv.NewBuilder()
		m := b.Mod
		f32 := m.EnsureTypeFloat(32)
		vec4 := m.EnsureTypeVector(f32, 4)
		pVec4 := m.EnsureTypePointer(spirv.StorageFunction, vec4)
		pF := m.EnsureTypePointer(spirv.StorageFunction, f32)
		one := m.EnsureConstantFloat(1)
		i1 := m.EnsureConstantInt(1)
		set, ps := b.BeginFunction("set", m.EnsureTypeVoid(), spirv.FunctionControlNone, pVec4, f32)
		b.BeginNew()
		old := b.Emit(spirv.OpLoad, vec4, ps[0])
		ox := b.EmitWords(spirv.OpCompositeExtract, f32, uint32(old), 0)
		b.Store(ps[0], b.Emit(spirv.OpCompositeConstruct, vec4, ps[1], ox, ps[1], one))
		b.Store(b.AccessChain(pF, ps[0], i1), b.Emit(spirv.OpFMul, f32, ps[1], ox))
		b.Return()
		b.EndFunction()
		s := b.BeginFragmentShell()
		v := b.LocalVariable(s.Vec4)
		c := b.Emit(spirv.OpLoad, s.Vec2, s.Coord)
		x := b.EmitWords(spirv.OpCompositeExtract, s.Float, uint32(c), 0)
		y := b.EmitWords(spirv.OpCompositeExtract, s.Float, uint32(c), 1)
		b.Store(v, b.Emit(spirv.OpCompositeConstruct, s.Vec4, y, x, y, one))
		b.Emit(spirv.OpFunctionCall, s.Void, set, v, x)
		b.Emit(spirv.OpFunctionCall, s.Void, set, v, y)
		b.Store(s.Color, b.Emit(spirv.OpLoad, s.Vec4, v))
		b.FinishFragmentShell(s)
		cases["callee-stores-through-pointer"] = m
	}
	{ // One function called twice per pixel: its uninitialized local must
		// read zero and its initialized one its initializer on each call.
		b := spirv.NewBuilder()
		m := b.Mod
		f32 := m.EnsureTypeFloat(32)
		vec2 := m.EnsureTypeVector(f32, 2)
		half := m.EnsureConstantFloat(0.5)
		quarter := m.EnsureConstantFloat(0.25)
		initC := m.EnsureConstantComposite(vec2, quarter, half)
		pVec2 := m.EnsureTypePointer(spirv.StorageFunction, vec2)
		acc, ps := b.BeginFunction("acc", f32, spirv.FunctionControlNone, f32)
		b.BeginNew()
		tv := b.LocalVariable(f32)
		iv := b.EmitWords(spirv.OpVariable, pVec2, spirv.StorageFunction, uint32(initC))
		b.Store(tv, b.Emit(spirv.OpFAdd, f32, b.Emit(spirv.OpLoad, f32, tv), ps[0]))
		il := b.Emit(spirv.OpLoad, vec2, iv)
		b.Store(iv, b.Emit(spirv.OpVectorTimesScalar, vec2, il, ps[0]))
		il2 := b.Emit(spirv.OpLoad, vec2, iv)
		sum := b.Emit(spirv.OpFAdd, f32, b.Emit(spirv.OpLoad, f32, tv),
			b.EmitWords(spirv.OpCompositeExtract, f32, uint32(il2), 1))
		b.ReturnValue(b.Emit(spirv.OpFAdd, f32, sum, b.EmitWords(spirv.OpCompositeExtract, f32, uint32(il), 0)))
		b.EndFunction()
		s := b.BeginFragmentShell()
		one := m.EnsureConstantFloat(1)
		c := b.Emit(spirv.OpLoad, s.Vec2, s.Coord)
		x := b.EmitWords(spirv.OpCompositeExtract, s.Float, uint32(c), 0)
		y := b.EmitWords(spirv.OpCompositeExtract, s.Float, uint32(c), 1)
		r1 := b.Emit(spirv.OpFunctionCall, s.Float, acc, x)
		r2 := b.Emit(spirv.OpFunctionCall, s.Float, acc, y)
		b.Store(s.Color, b.Emit(spirv.OpCompositeConstruct, s.Vec4, r1, r2, x, one))
		b.FinishFragmentShell(s)
		cases["called-twice-fresh-locals"] = m
	}
	{ // Locals initialized from a constant and from a loaded value: writes
		// through the local must not reach the value it was initialized from.
		b := spirv.NewBuilder()
		s := b.BeginFragmentShell()
		m := b.Mod
		one := m.EnsureConstantFloat(1)
		half := m.EnsureConstantFloat(0.5)
		i0 := m.EnsureConstantInt(0)
		pFloat := m.EnsureTypePointer(spirv.StorageFunction, s.Float)
		pVec2 := m.EnsureTypePointer(spirv.StorageFunction, s.Vec2)
		pVec4 := m.EnsureTypePointer(spirv.StorageFunction, s.Vec4)
		initC := m.EnsureConstantComposite(s.Vec4, half, one, half, one)
		c := b.Emit(spirv.OpLoad, s.Vec2, s.Coord)
		cv := b.EmitWords(spirv.OpVariable, pVec2, spirv.StorageFunction, uint32(c))
		kv := b.EmitWords(spirv.OpVariable, pVec4, spirv.StorageFunction, uint32(initC))
		b.Store(b.AccessChain(pFloat, cv, i0), half)
		b.Store(b.AccessChain(pFloat, kv, i0), b.EmitWords(spirv.OpCompositeExtract, s.Float, uint32(c), 1))
		lc := b.Emit(spirv.OpLoad, s.Vec2, cv)
		lk := b.Emit(spirv.OpLoad, s.Vec4, kv)
		b.Store(s.Color, b.Emit(spirv.OpCompositeConstruct, s.Vec4,
			b.EmitWords(spirv.OpCompositeExtract, s.Float, uint32(c), 0),
			b.EmitWords(spirv.OpCompositeExtract, s.Float, uint32(lc), 0),
			b.EmitWords(spirv.OpCompositeExtract, s.Float, uint32(lk), 0),
			b.EmitWords(spirv.OpCompositeExtract, s.Float, uint32(lk), 1)))
		b.FinishFragmentShell(s)
		cases["initialized-local"] = m
	}
	{ // A callee stores a pixel-dependent value into its local, then
		// discards the fragment on the left half; on the right half it reads
		// the local before storing, which must be zero again.
		b := spirv.NewBuilder()
		m := b.Mod
		f32 := m.EnsureTypeFloat(32)
		half := m.EnsureConstantFloat(0.5)
		maybeKill, ps := b.BeginFunction("maybeKill", f32, spirv.FunctionControlNone, f32)
		b.BeginNew()
		tv := b.LocalVariable(f32)
		before := b.Emit(spirv.OpLoad, f32, tv)
		b.Store(tv, ps[0])
		cond := b.Emit(spirv.OpFOrdLessThan, m.EnsureTypeBool(), ps[0], half)
		kill, keep := b.NewLabel(), b.NewLabel()
		b.SelectionMerge(keep)
		b.BranchCond(cond, kill, keep)
		b.Begin(kill)
		b.Kill()
		b.Begin(keep)
		b.ReturnValue(b.Emit(spirv.OpFAdd, f32, before, b.Emit(spirv.OpLoad, f32, tv)))
		b.EndFunction()
		s := b.BeginFragmentShell()
		one := m.EnsureConstantFloat(1)
		v := b.LocalVariable(s.Float)
		c := b.Emit(spirv.OpLoad, s.Vec2, s.Coord)
		x := b.EmitWords(spirv.OpCompositeExtract, s.Float, uint32(c), 0)
		y := b.EmitWords(spirv.OpCompositeExtract, s.Float, uint32(c), 1)
		b.Store(v, b.Emit(spirv.OpFAdd, s.Float, b.Emit(spirv.OpLoad, s.Float, v), y))
		r := b.Emit(spirv.OpFunctionCall, s.Float, maybeKill, x)
		b.Store(s.Color, b.Emit(spirv.OpCompositeConstruct, s.Vec4, r, b.Emit(spirv.OpLoad, s.Float, v), y, one))
		b.FinishFragmentShell(s)
		cases["kill-after-store"] = m
	}
	{ // Access chains into a local array of structs: one to three indices,
		// a chain off a chain, a coordinate-dependent index clamped into
		// range, and an index past a scalar member, which the chain ignores.
		b := spirv.NewBuilder()
		s := b.BeginFragmentShell()
		m := b.Mod
		one := m.EnsureConstantFloat(1)
		quarter := m.EnsureConstantFloat(0.25)
		i0, i1, i2, i3 := m.EnsureConstantInt(0), m.EnsureConstantInt(1), m.EnsureConstantInt(2), m.EnsureConstantInt(3)
		st := m.EnsureTypeStruct(s.Vec4, s.Float)
		arr := m.EnsureTypeArray(st, i3)
		pSt := m.EnsureTypePointer(spirv.StorageFunction, st)
		pVec4 := m.EnsureTypePointer(spirv.StorageFunction, s.Vec4)
		pFloat := m.EnsureTypePointer(spirv.StorageFunction, s.Float)
		v := b.LocalVariable(arr)
		c := b.Emit(spirv.OpLoad, s.Vec2, s.Coord)
		x := b.EmitWords(spirv.OpCompositeExtract, s.Float, uint32(c), 0)
		y := b.EmitWords(spirv.OpCompositeExtract, s.Float, uint32(c), 1)
		e1 := b.AccessChain(pSt, v, i1)
		b.Store(e1, b.Emit(spirv.OpCompositeConstruct, st, b.Emit(spirv.OpCompositeConstruct, s.Vec4, x, y, x, one), y))
		b.Store(b.AccessChain(pFloat, e1, i0, i2), quarter)
		b.Store(b.AccessChain(pFloat, v, i2, i1), x)
		dyn := b.Emit(spirv.OpConvertFToS, s.Int, b.Emit(spirv.OpFMul, s.Float, x, m.EnsureConstantFloat(8)))
		b.Store(b.AccessChain(pFloat, v, dyn, i0, i3), y)
		b.Store(b.AccessChain(pFloat, v, i2, i1, i3), b.Emit(spirv.OpFAdd, s.Float, x, y))
		row := b.Emit(spirv.OpLoad, s.Vec4, b.AccessChain(pVec4, v, i1, i0))
		whole := b.Emit(spirv.OpLoad, arr, v)
		b.Store(s.Color, b.Emit(spirv.OpCompositeConstruct, s.Vec4,
			b.EmitWords(spirv.OpCompositeExtract, s.Float, uint32(row), 2),
			b.EmitWords(spirv.OpCompositeExtract, s.Float, uint32(whole), 2, 1),
			b.EmitWords(spirv.OpCompositeExtract, s.Float, uint32(whole), 2, 0, 3),
			b.Emit(spirv.OpLoad, s.Float, b.AccessChain(pFloat, v, i1, i1))))
		b.FinishFragmentShell(s)
		cases["local-array-struct-chains"] = m
	}
	{ // A variable inside a loop body keeps a fresh cell per execution:
		// each iteration reads the previous iteration's cell through a
		// ϕ-carried pointer.
		b := spirv.NewBuilder()
		s := b.BeginFragmentShell()
		m := b.Mod
		one := m.EnsureConstantFloat(1)
		i0, i1, i4 := m.EnsureConstantInt(0), m.EnsureConstantInt(1), m.EnsureConstantInt(4)
		pFloat := m.EnsureTypePointer(spirv.StorageFunction, s.Float)
		first := b.LocalVariable(s.Float)
		c := b.Emit(spirv.OpLoad, s.Vec2, s.Coord)
		x := b.EmitWords(spirv.OpCompositeExtract, s.Float, uint32(c), 0)
		b.Store(first, x)
		entry := b.Blk.Label
		header, body, merge := b.NewLabel(), b.NewLabel(), b.NewLabel()
		b.Branch(header)
		b.Begin(header)
		i := b.Mod.FreshID()
		prev := b.Mod.FreshID()
		sum := b.Mod.FreshID()
		next, prevNext, sumNext := b.Mod.FreshID(), b.Mod.FreshID(), b.Mod.FreshID()
		b.Blk.Phis = append(b.Blk.Phis,
			spirv.NewInstr(spirv.OpPhi, s.Int, i, uint32(i0), uint32(entry), uint32(next), uint32(body)),
			spirv.NewInstr(spirv.OpPhi, pFloat, prev, uint32(first), uint32(entry), uint32(prevNext), uint32(body)),
			spirv.NewInstr(spirv.OpPhi, s.Float, sum, uint32(x), uint32(entry), uint32(sumNext), uint32(body)))
		b.LoopMerge(merge, body)
		b.BranchCond(b.Emit(spirv.OpSLessThan, s.Bool, i, i4), body, merge)
		b.Begin(body)
		cell := b.LocalVariable(s.Float)
		fi := b.Emit(spirv.OpConvertSToF, s.Float, i)
		b.Store(cell, b.Emit(spirv.OpFMul, s.Float, fi, x))
		old := b.Emit(spirv.OpLoad, s.Float, prev)
		b.Blk.Body = append(b.Blk.Body,
			spirv.NewInstr(spirv.OpFAdd, s.Float, sumNext, uint32(sum), uint32(old)),
			spirv.NewInstr(spirv.OpIAdd, s.Int, next, uint32(i), uint32(i1)),
			spirv.NewInstr(spirv.OpCopyObject, pFloat, prevNext, uint32(cell)))
		b.Branch(header)
		b.Begin(merge)
		q := b.Emit(spirv.OpFMul, s.Float, sum, m.EnsureConstantFloat(0.125))
		b.Store(s.Color, b.Emit(spirv.OpCompositeConstruct, s.Vec4, q, x, q, one))
		b.FinishFragmentShell(s)
		cases["fresh-cell-fallback"] = m
	}
	{ // An entry block branched back to: its variable runs twice in one
		// activation, so the function falls back to fresh cells, and the
		// second pass reads the first pass's cell through a saved pointer.
		b := spirv.NewBuilder()
		s := b.BeginFragmentShell()
		m := b.Mod
		one := m.EnsureConstantFloat(1)
		i0, i1 := m.EnsureConstantInt(0), m.EnsureConstantInt(1)
		pInt := m.EnsureTypePointer(spirv.StorageFunction, s.Int)
		g := b.GlobalVariable("passes", spirv.StoragePrivate, s.Int, i0)
		entry := b.Blk.Label
		v := b.LocalVariable(s.Int)
		n := b.Emit(spirv.OpLoad, s.Int, g)
		n1 := b.Emit(spirv.OpIAdd, s.Int, n, i1)
		b.Store(g, n1)
		b.Store(v, n1)
		again, done := b.NewLabel(), b.NewLabel()
		b.BranchCond(b.Emit(spirv.OpIEqual, s.Bool, n, i0), again, done)
		b.Begin(again)
		saved := b.Emit(spirv.OpCopyObject, pInt, v)
		b.Branch(entry)
		b.Begin(done)
		oldV := b.Emit(spirv.OpConvertSToF, s.Float, b.Emit(spirv.OpLoad, s.Int, saved))
		newV := b.Emit(spirv.OpConvertSToF, s.Float, b.Emit(spirv.OpLoad, s.Int, v))
		b.Store(g, i0)
		c := b.Emit(spirv.OpLoad, s.Vec2, s.Coord)
		x := b.EmitWords(spirv.OpCompositeExtract, s.Float, uint32(c), 0)
		q := m.EnsureConstantFloat(0.25)
		b.Store(s.Color, b.Emit(spirv.OpCompositeConstruct, s.Vec4,
			b.Emit(spirv.OpFMul, s.Float, oldV, q), b.Emit(spirv.OpFMul, s.Float, newV, q), x, one))
		b.FinishFragmentShell(s)
		cases["entry-reentered"] = m
	}
	{ // A callee returns a pointer to its own local; the caller calls it
		// twice and reads both cells after the second call.
		b := spirv.NewBuilder()
		m := b.Mod
		f32 := m.EnsureTypeFloat(32)
		pF := m.EnsureTypePointer(spirv.StorageFunction, f32)
		mk, ps := b.BeginFunction("mk", pF, spirv.FunctionControlNone, f32)
		b.BeginNew()
		tv := b.LocalVariable(f32)
		b.Store(tv, ps[0])
		b.ReturnValue(tv)
		b.EndFunction()
		s := b.BeginFragmentShell()
		one := m.EnsureConstantFloat(1)
		c := b.Emit(spirv.OpLoad, s.Vec2, s.Coord)
		x := b.EmitWords(spirv.OpCompositeExtract, s.Float, uint32(c), 0)
		y := b.EmitWords(spirv.OpCompositeExtract, s.Float, uint32(c), 1)
		p1 := b.Emit(spirv.OpFunctionCall, pF, mk, x)
		p2 := b.Emit(spirv.OpFunctionCall, pF, mk, y)
		b.Store(s.Color, b.Emit(spirv.OpCompositeConstruct, s.Vec4,
			b.Emit(spirv.OpLoad, s.Float, p1), b.Emit(spirv.OpLoad, s.Float, p2), x, one))
		b.FinishFragmentShell(s)
		cases["returned-local-pointer"] = m
	}
	{ // A pointer stored into memory: the caller hands a callee a local
		// that holds a pointer, the callee stores a pointer to its own local
		// into it, and the caller reads through it after a second call.
		b := spirv.NewBuilder()
		m := b.Mod
		f32 := m.EnsureTypeFloat(32)
		pF := m.EnsureTypePointer(spirv.StorageFunction, f32)
		ppF := m.EnsureTypePointer(spirv.StorageFunction, pF)
		leak, ps := b.BeginFunction("leak", m.EnsureTypeVoid(), spirv.FunctionControlNone, ppF, f32)
		b.BeginNew()
		tv := b.LocalVariable(f32)
		b.Store(tv, ps[1])
		b.Store(ps[0], tv)
		b.Return()
		b.EndFunction()
		s := b.BeginFragmentShell()
		one := m.EnsureConstantFloat(1)
		own := b.LocalVariable(s.Float)
		holder := b.EmitWords(spirv.OpVariable, ppF, spirv.StorageFunction, uint32(own))
		c := b.Emit(spirv.OpLoad, s.Vec2, s.Coord)
		x := b.EmitWords(spirv.OpCompositeExtract, s.Float, uint32(c), 0)
		y := b.EmitWords(spirv.OpCompositeExtract, s.Float, uint32(c), 1)
		b.Emit(spirv.OpFunctionCall, s.Void, leak, holder, x)
		p := b.Emit(spirv.OpLoad, pF, holder)
		b.Emit(spirv.OpFunctionCall, s.Void, leak, holder, y)
		b.Store(s.Color, b.Emit(spirv.OpCompositeConstruct, s.Vec4,
			b.Emit(spirv.OpLoad, s.Float, p), b.Emit(spirv.OpLoad, s.Float, b.Emit(spirv.OpLoad, pF, holder)), x, one))
		b.FinishFragmentShell(s)
		cases["stored-local-pointer"] = m
	}
	{ // An access-chain pointer into a local, stored into a float global
		// (the interpreter does not check types): each pixel first makes
		// chains of its own, then reads the previous pixel's local through
		// the stored pointer.
		b := spirv.NewBuilder()
		s := b.BeginFragmentShell()
		m := b.Mod
		one := m.EnsureConstantFloat(1)
		zero := m.EnsureConstantFloat(0)
		i0, i1, i2, i3 := m.EnsureConstantInt(0), m.EnsureConstantInt(1), m.EnsureConstantInt(2), m.EnsureConstantInt(3)
		pFloat := m.EnsureTypePointer(spirv.StorageFunction, s.Float)
		g := b.GlobalVariable("saved", spirv.StoragePrivate, s.Float, zero)
		have := b.GlobalVariable("have", spirv.StoragePrivate, s.Int, i0)
		v := b.LocalVariable(m.EnsureTypeArray(s.Float, i3))
		c := b.Emit(spirv.OpLoad, s.Vec2, s.Coord)
		x := b.EmitWords(spirv.OpCompositeExtract, s.Float, uint32(c), 0)
		y := b.EmitWords(spirv.OpCompositeExtract, s.Float, uint32(c), 1)
		b.Store(b.AccessChain(pFloat, v, i0), x)
		e2 := b.AccessChain(pFloat, v, i2)
		b.Store(e2, y)
		readOld, skip, merge := b.NewLabel(), b.NewLabel(), b.NewLabel()
		b.SelectionMerge(merge)
		b.BranchCond(b.Emit(spirv.OpINotEqual, s.Bool, b.Emit(spirv.OpLoad, s.Int, have), i0), readOld, skip)
		b.Begin(readOld)
		ov := b.Emit(spirv.OpLoad, s.Float, b.Emit(spirv.OpLoad, pFloat, g))
		b.Branch(merge)
		b.Begin(skip)
		b.Branch(merge)
		b.Begin(merge)
		r := b.Phi(s.Float, ov, readOld, zero, skip)
		b.Store(g, e2)
		b.Store(have, i1)
		b.Store(s.Color, b.Emit(spirv.OpCompositeConstruct, s.Vec4, r, x, y, one))
		b.FinishFragmentShell(s)
		cases["pointer-in-global"] = m
	}

	for name, m := range cases {
		if _, err := interp.RenderTree(m, in); err != nil {
			t.Fatalf("%s: must render, faulted: %v", name, err)
		}
		assertEnginesAgree(t, name, m, in)
	}
}

// TestVMDiffRecycledFrames pins what a recycled frame must forget: a slot
// an activation reads before writing it has to read as unset again, not as
// the previous activation's value. In scan order the first pixels write the
// slot, so a stale value would hide a fault or a module-level binding.
func TestVMDiffRecycledFrames(t *testing.T) {
	in := interp.Inputs{W: 8, H: 8}
	{ // A result read on a path its definition does not dominate: the
		// first pixel taking that path faults.
		b := spirv.NewBuilder()
		s := b.BeginFragmentShell()
		m := b.Mod
		one := m.EnsureConstantFloat(1)
		c := b.Emit(spirv.OpLoad, s.Vec2, s.Coord)
		x := b.EmitWords(spirv.OpCompositeExtract, s.Float, uint32(c), 0)
		def, skip, merge := b.NewLabel(), b.NewLabel(), b.NewLabel()
		b.SelectionMerge(merge)
		b.BranchCond(b.Emit(spirv.OpFOrdLessThan, s.Bool, x, m.EnsureConstantFloat(0.5)), def, skip)
		b.Begin(def)
		v := b.Emit(spirv.OpFAdd, s.Float, x, x)
		b.Branch(merge)
		b.Begin(skip)
		b.Branch(merge)
		b.Begin(merge)
		b.Store(s.Color, b.Emit(spirv.OpCompositeConstruct, s.Vec4, v, x, x, one))
		b.FinishFragmentShell(s)
		if _, err := interp.RenderTree(m, in); err == nil {
			t.Fatal("read-before-def: must fault")
		}
		assertEnginesAgree(t, "read-before-def", m, in)
	}
	{ // An entry-block result whose id is also a module-level constant,
		// read before its definition: every pixel reads the constant there.
		b := spirv.NewBuilder()
		s := b.BeginFragmentShell()
		m := b.Mod
		one := m.EnsureConstantFloat(1)
		k := m.EnsureConstantFloat(0.25)
		c := b.Emit(spirv.OpLoad, s.Vec2, s.Coord)
		x := b.EmitWords(spirv.OpCompositeExtract, s.Float, uint32(c), 0)
		r := b.Emit(spirv.OpFAdd, s.Float, k, x)
		b.Blk.Body = append(b.Blk.Body, spirv.NewInstr(spirv.OpFMul, s.Float, k, uint32(x), uint32(x)))
		b.Store(s.Color, b.Emit(spirv.OpCompositeConstruct, s.Vec4, r, k, x, one))
		b.FinishFragmentShell(s)
		if _, err := interp.RenderTree(m, in); err != nil {
			t.Fatalf("forward-read-in-entry: must render, faulted: %v", err)
		}
		assertEnginesAgree(t, "forward-read-in-entry", m, in)
	}
}

// TestVMDiffConcurrentRenders renders every corpus reference from several
// goroutines at once, as the campaign's workers do: the arena chunks that
// finished renders hand to later ones must never be shared by two renders,
// and a reused chunk must not leak into an image.
func TestVMDiffConcurrentRenders(t *testing.T) {
	refs := corpus.References()
	progs := make([]*interp.Program, len(refs))
	want := make([]*interp.Image, len(refs))
	for i, item := range refs {
		img, err := interp.RenderTree(item.Mod, item.Inputs)
		if err != nil {
			t.Fatalf("%s: %v", item.Name, err)
		}
		want[i] = img
		if progs[i], err = interp.Compile(item.Mod); err != nil {
			t.Fatalf("%s: %v", item.Name, err)
		}
	}
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for round := 0; round < 3; round++ {
				for j := range refs {
					i := (j + g) % len(refs)
					img, err := progs[i].Render(refs[i].Inputs)
					if err != nil || !img.Equal(want[i]) {
						t.Errorf("%s: image differs from the tree-walker's (err %v)", refs[i].Name, err)
						return
					}
				}
			}
		}()
	}
	wg.Wait()
}
