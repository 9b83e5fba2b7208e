package interp_test

// Differential tests pinning the compiled register VM to the tree-walking
// reference evaluator: for every module — canonical, corpus, fuzzed,
// optimizer-shaped or deliberately broken — both engines must produce
// byte-identical images, or faults with identical messages. This is the
// executable statement of the "two engines, one semantics" contract Render
// relies on.

import (
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
