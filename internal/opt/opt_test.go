package opt_test

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"testing"

	"spirvfuzz/internal/corpus"
	"spirvfuzz/internal/fuzz"
	"spirvfuzz/internal/interp"
	"spirvfuzz/internal/opt"
	"spirvfuzz/internal/spirv"
	"spirvfuzz/internal/spirv/validate"
	"spirvfuzz/internal/testmod"
)

// TestStandardPipelinePreservesSemantics optimizes every corpus reference
// and checks validity and image equality — the optimizer must itself be a
// correct compiler, since the simulated targets are built from it.
func TestStandardPipelinePreservesSemantics(t *testing.T) {
	for _, item := range corpus.References() {
		want, err := interp.Render(item.Mod, item.Inputs)
		if err != nil {
			t.Fatalf("%s: %v", item.Name, err)
		}
		o := item.Mod.Clone()
		if err := opt.Pipeline(o, opt.Standard(), 0); err != nil {
			t.Fatalf("%s: pipeline: %v", item.Name, err)
		}
		if err := validate.Module(o); err != nil {
			t.Fatalf("%s: invalid after optimization: %v\n%s", item.Name, err, o)
		}
		got, err := interp.Render(o, item.Inputs)
		if err != nil {
			t.Fatalf("%s: optimized module faults: %v", item.Name, err)
		}
		if !got.Equal(want) {
			t.Fatalf("%s: optimization changed the image (%d pixels)", item.Name, got.DiffCount(want))
		}
	}
}

// TestPipelineOnFuzzedVariants runs the optimizer over transformed variants,
// which exhibit much weirder shapes than the references.
func TestPipelineOnFuzzedVariants(t *testing.T) {
	donors := corpus.Donors()
	for i, item := range corpus.References() {
		if i%3 != 0 {
			continue // subset for speed
		}
		want, err := interp.Render(item.Mod, item.Inputs)
		if err != nil {
			t.Fatal(err)
		}
		for seed := int64(0); seed < 3; seed++ {
			res, err := fuzz.Fuzz(item.Mod, item.Inputs, fuzz.Options{Seed: seed, Donors: donors, EnableRecommendations: true})
			if err != nil {
				t.Fatal(err)
			}
			o := res.Variant.Clone()
			if err := opt.Pipeline(o, opt.Standard(), 0); err != nil {
				t.Fatalf("%s seed %d: pipeline: %v", item.Name, seed, err)
			}
			if err := validate.Module(o); err != nil {
				t.Fatalf("%s seed %d: invalid after optimization: %v\n%s", item.Name, seed, err, o)
			}
			got, err := interp.Render(o, res.Inputs)
			if err != nil {
				t.Fatalf("%s seed %d: %v", item.Name, seed, err)
			}
			if !got.Equal(want) {
				t.Fatalf("%s seed %d: optimization changed the image", item.Name, seed)
			}
		}
	}
}

// TestStandardPipelineOutputPinned pins the standard pipeline's output on
// fuzzed variants of every corpus reference, built as in
// TestPipelineOnFuzzedVariants: the digest of the encoded outputs must not
// move when an analysis the passes use is reimplemented. Regenerate the
// constant only for a deliberate change to what a pass emits.
func TestStandardPipelineOutputPinned(t *testing.T) {
	const want = "b46a337b15c6be47118fce6c9df687653179994a0e868e786a0d7a30555ec9a8"
	donors := corpus.Donors()
	h := sha256.New()
	for _, item := range corpus.References() {
		for seed := int64(0); seed < 8; seed++ {
			res, err := fuzz.Fuzz(item.Mod, item.Inputs, fuzz.Options{Seed: seed, Donors: donors, EnableRecommendations: true})
			if err != nil {
				t.Fatal(err)
			}
			o := res.Variant.Clone()
			if err := opt.Pipeline(o, opt.Standard(), 0); err != nil {
				t.Fatalf("%s seed %d: pipeline: %v", item.Name, seed, err)
			}
			out := o.EncodeBytes()
			binary.Write(h, binary.LittleEndian, uint64(len(out)))
			h.Write(out)
		}
	}
	if got := hex.EncodeToString(h.Sum(nil)); got != want {
		t.Fatalf("optimized outputs digest %s, want %s", got, want)
	}
}

func TestInlineRespectsDontInline(t *testing.T) {
	m := testmod.Caller()
	m.Functions[0].SetControl(spirv.FunctionControlDontInline)
	if _, err := opt.Inline().Run(m); err != nil {
		t.Fatal(err)
	}
	calls := countOps(m, spirv.OpFunctionCall)
	if calls != 1 {
		t.Fatalf("DontInline ignored: %d calls remain", calls)
	}
	m2 := testmod.Caller()
	if _, err := opt.Inline().Run(m2); err != nil {
		t.Fatal(err)
	}
	if countOps(m2, spirv.OpFunctionCall) != 0 {
		t.Fatal("small single-block callee should be inlined")
	}
}

func TestConstantFoldFoldsBranches(t *testing.T) {
	m := testmod.Diamond()
	fn := m.EntryPointFunction()
	// Replace the data-dependent condition with constant true.
	fn.Blocks[0].Term.Operands[0] = uint32(m.EnsureConstantBool(true))
	if _, err := opt.ConstantFold().Run(m); err != nil {
		t.Fatal(err)
	}
	if fn.Blocks[0].Term.Op != spirv.OpBranch {
		t.Fatal("constant conditional branch not folded")
	}
	if fn.Blocks[0].Merge != nil {
		t.Fatal("merge instruction must be dropped with the fold")
	}
	// The right block is now unreachable; ϕ edges must have been pruned and
	// the module must clean up into a valid one.
	if _, err := opt.EliminateDeadBlocks().Run(m); err != nil {
		t.Fatal(err)
	}
	if err := validate.Module(m); err != nil {
		t.Fatalf("after fold+elim: %v\n%s", err, m)
	}
}

func TestConstantFoldArithmetic(t *testing.T) {
	b := spirv.NewBuilder()
	s := b.BeginFragmentShell()
	m := b.Mod
	c2 := m.EnsureConstantInt(2)
	c3 := m.EnsureConstantInt(3)
	sum := b.Emit(spirv.OpIAdd, s.Int, c2, c3)
	prod := b.Emit(spirv.OpIMul, s.Int, sum, c2)
	f := b.Emit(spirv.OpConvertSToF, s.Float, prod)
	one := m.EnsureConstantFloat(1)
	col := b.Emit(spirv.OpCompositeConstruct, s.Vec4, f, f, f, one)
	b.Store(s.Color, col)
	b.FinishFragmentShell(s)

	if err := opt.Pipeline(m, []opt.Pass{opt.ConstantFold(), opt.CopyPropagate(), opt.DCE()}, 0); err != nil {
		t.Fatal(err)
	}
	if n := countOps(m, spirv.OpIAdd) + countOps(m, spirv.OpIMul); n != 0 {
		t.Fatalf("%d arithmetic instructions survive folding", n)
	}
	if _, ok := findIntConst(m, 10); !ok {
		t.Fatal("folded constant 10 missing")
	}
}

func TestCopyPropagateResolvesChains(t *testing.T) {
	m := testmod.Diamond()
	fn := m.EntryPointFunction()
	// diamond's left/right blocks hold CopyObjects feeding the ϕ.
	if _, err := opt.CopyPropagate().Run(m); err != nil {
		t.Fatal(err)
	}
	if countOps(m, spirv.OpCopyObject) != 0 {
		t.Fatal("copies not removed")
	}
	if err := validate.Module(m); err != nil {
		t.Fatalf("%v\n%s", err, m)
	}
	_ = fn
}

func TestDCERemovesUnusedChain(t *testing.T) {
	m := testmod.Diamond()
	fn := m.EntryPointFunction()
	entry := fn.Blocks[0]
	f32 := m.EnsureTypeFloat(32)
	c := m.EnsureConstantFloat(3)
	a := m.FreshID()
	bID := m.FreshID()
	entry.Body = append(entry.Body,
		spirv.NewInstr(spirv.OpFAdd, f32, a, uint32(c), uint32(c)),
		spirv.NewInstr(spirv.OpFMul, f32, bID, uint32(a), uint32(c)),
	)
	before := m.InstructionCount()
	if _, err := opt.DCE().Run(m); err != nil {
		t.Fatal(err)
	}
	if m.InstructionCount() >= before {
		t.Fatal("DCE removed nothing")
	}
	if err := validate.Module(m); err != nil {
		t.Fatal(err)
	}
}

func TestCSELocalDeduplicates(t *testing.T) {
	b := spirv.NewBuilder()
	s := b.BeginFragmentShell()
	m := b.Mod
	x := b.Emit(spirv.OpLoad, s.Vec2, s.Coord)
	e1 := b.EmitWords(spirv.OpCompositeExtract, s.Float, uint32(x), 0)
	e2 := b.EmitWords(spirv.OpCompositeExtract, s.Float, uint32(x), 0) // duplicate
	sum := b.Emit(spirv.OpFAdd, s.Float, e1, e2)
	one := m.EnsureConstantFloat(1)
	col := b.Emit(spirv.OpCompositeConstruct, s.Vec4, sum, sum, sum, one)
	b.Store(s.Color, col)
	b.FinishFragmentShell(s)

	changed, err := opt.CSELocal().Run(m)
	if err != nil || !changed {
		t.Fatalf("changed=%t err=%v", changed, err)
	}
	if countOps(m, spirv.OpCopyObject) != 1 {
		t.Fatal("duplicate extract should become a copy")
	}
	if err := validate.Module(m); err != nil {
		t.Fatal(err)
	}
}

func TestBlockLayoutRestoresRPO(t *testing.T) {
	// The diamond's natural order is already RPO; swapping the sibling arms
	// (valid, Figure 8b-style) makes layout restore the canonical order.
	m := testmod.Diamond()
	fn := m.EntryPointFunction()
	if changed, _ := opt.BlockLayout().Run(m); changed {
		t.Fatal("natural order should already be RPO")
	}
	fn.Blocks[1], fn.Blocks[2] = fn.Blocks[2], fn.Blocks[1]
	if err := validate.Module(m); err != nil {
		t.Fatalf("swap should be valid: %v", err)
	}
	changed, err := opt.BlockLayout().Run(m)
	if err != nil || !changed {
		t.Fatalf("changed=%t err=%v", changed, err)
	}
	if err := validate.Module(m); err != nil {
		t.Fatal(err)
	}
	// Idempotent afterwards.
	changed, _ = opt.BlockLayout().Run(m)
	if changed {
		t.Fatal("second layout run should be a no-op")
	}
}

func countOps(m *spirv.Module, op spirv.Opcode) int {
	n := 0
	m.ForEachInstruction(func(ins *spirv.Instruction) {
		if ins.Op == op {
			n++
		}
	})
	return n
}

func findIntConst(m *spirv.Module, v int64) (spirv.ID, bool) {
	for _, ins := range m.TypesGlobals {
		if ins.Op == spirv.OpConstant {
			if got, ok := m.ConstantIntValue(ins.Result); ok && got == v {
				return ins.Result, true
			}
		}
	}
	return 0, false
}

// TestEliminateDeadBlocksDanglingTarget covers an invalid module whose
// entry branches to a label that names no block: the function's other
// block is unreachable and must go, even though the set of labels reached
// (the entry and the dangling target) is as large as the block list.
func TestEliminateDeadBlocksDanglingTarget(t *testing.T) {
	m := testmod.Diamond()
	fn := m.EntryPointFunction()
	entry, tail := fn.Blocks[0], fn.Blocks[len(fn.Blocks)-1]
	entry.Merge = nil
	entry.Term = spirv.NewInstr(spirv.OpBranch, 0, 0, uint32(m.FreshID()))
	tail.Phis = nil
	fn.Blocks = []*spirv.Block{entry, tail}
	changed, err := opt.EliminateDeadBlocks().Run(m)
	if err != nil || !changed {
		t.Fatalf("changed=%t err=%v", changed, err)
	}
	if len(fn.Blocks) != 1 || fn.Blocks[0] != entry {
		t.Fatalf("%d blocks left, want the entry alone", len(fn.Blocks))
	}
}

func TestMergeBlocksUndoesSplit(t *testing.T) {
	m := testmod.Diamond()
	fn := m.EntryPointFunction()
	merge := fn.Blocks[len(fn.Blocks)-1]
	// Split the merge block by hand: tail gets the store+return.
	tail := &spirv.Block{Label: m.FreshID(), Body: merge.Body[1:], Term: merge.Term}
	merge.Body = merge.Body[:1]
	merge.Term = spirv.NewInstr(spirv.OpBranch, 0, 0, uint32(tail.Label))
	fn.Blocks = append(fn.Blocks, tail)
	if err := validate.Module(m); err != nil {
		t.Fatalf("split setup invalid: %v", err)
	}
	nBlocks := len(fn.Blocks)
	changed, err := opt.MergeBlocks().Run(m)
	if err != nil || !changed {
		t.Fatalf("changed=%t err=%v", changed, err)
	}
	if len(fn.Blocks) != nBlocks-1 {
		t.Fatalf("blocks = %d, want %d", len(fn.Blocks), nBlocks-1)
	}
	if err := validate.Module(m); err != nil {
		t.Fatalf("after merge: %v\n%s", err, m)
	}
	img, err := interp.Render(m, interp.Inputs{W: 4, H: 4})
	if err != nil {
		t.Fatal(err)
	}
	want, _ := interp.Render(testmod.Diamond(), interp.Inputs{W: 4, H: 4})
	if !img.Equal(want) {
		t.Fatal("merge changed semantics")
	}
}

func TestMergeBlocksKeepsStructuredTargets(t *testing.T) {
	// The loop's merge/continue blocks must not be merged away even when
	// they have single predecessors.
	m := testmod.Loop()
	before := len(m.EntryPointFunction().Blocks)
	if _, err := opt.MergeBlocks().Run(m); err != nil {
		t.Fatal(err)
	}
	after := len(m.EntryPointFunction().Blocks)
	if after < before-1 {
		t.Fatalf("merged too aggressively: %d -> %d", before, after)
	}
	if err := validate.Module(m); err != nil {
		t.Fatalf("%v\n%s", err, m)
	}
	img, err := interp.Render(m, interp.Inputs{W: 4, H: 4})
	if err != nil {
		t.Fatal(err)
	}
	want, _ := interp.Render(testmod.Loop(), interp.Inputs{W: 4, H: 4})
	if !img.Equal(want) {
		t.Fatal("merge changed loop semantics")
	}
}

func TestEliminateRedundantPhis(t *testing.T) {
	m := testmod.Diamond()
	fn := m.EntryPointFunction()
	merge := fn.Blocks[len(fn.Blocks)-1]
	phi := merge.Phis[0]
	// Make both incoming values the same id (a constant): the ϕ becomes
	// redundant.
	c := m.EnsureConstantFloat(0.5)
	phi.Operands[0] = uint32(c)
	phi.Operands[2] = uint32(c)
	changed, err := opt.EliminateRedundantPhis().Run(m)
	if err != nil || !changed {
		t.Fatalf("changed=%t err=%v", changed, err)
	}
	if len(merge.Phis) != 0 {
		t.Fatal("redundant ϕ not removed")
	}
	if merge.Body[0].Op != spirv.OpCopyObject {
		t.Fatal("copy replacement missing")
	}
	if err := validate.Module(m); err != nil {
		t.Fatalf("%v\n%s", err, m)
	}
	// A genuinely two-valued ϕ stays (fresh diamond).
	m2 := testmod.Diamond()
	changed, _ = opt.EliminateRedundantPhis().Run(m2)
	if changed {
		t.Fatal("non-redundant ϕ removed")
	}
	// Loop ϕs (self-referencing back edges with distinct values) stay.
	m3 := testmod.Loop()
	opt.EliminateRedundantPhis().Run(m3)
	if err := validate.Module(m3); err != nil {
		t.Fatal(err)
	}
	img, err := interp.Render(m3, interp.Inputs{W: 2, H: 2})
	if err != nil {
		t.Fatal(err)
	}
	want, _ := interp.Render(testmod.Loop(), interp.Inputs{W: 2, H: 2})
	if !img.Equal(want) {
		t.Fatal("phi elimination changed loop semantics")
	}
}
