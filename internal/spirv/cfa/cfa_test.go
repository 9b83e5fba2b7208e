package cfa_test

import (
	"reflect"
	"testing"

	"spirvfuzz/internal/spirv"
	"spirvfuzz/internal/spirv/cfa"
)

// fn builds a function skeleton from (label, successor-list) pairs. The
// first block is the entry. Terminators are OpBranch/OpBranchConditional/
// OpReturn depending on successor count (conditions use a dummy id).
func fnOf(t *testing.T, blocks ...[]spirv.ID) *spirv.Function {
	t.Helper()
	f := &spirv.Function{Def: spirv.NewInstr(spirv.OpFunction, 1, 100, spirv.FunctionControlNone, 2)}
	for _, spec := range blocks {
		b := &spirv.Block{Label: spec[0]}
		switch len(spec) - 1 {
		case 0:
			b.Term = spirv.NewInstr(spirv.OpReturn, 0, 0)
		case 1:
			b.Term = spirv.NewInstr(spirv.OpBranch, 0, 0, uint32(spec[1]))
		case 2:
			b.Term = spirv.NewInstr(spirv.OpBranchConditional, 0, 0, 999, uint32(spec[1]), uint32(spec[2]))
		default:
			t.Fatalf("too many successors")
		}
		f.Blocks = append(f.Blocks, b)
	}
	return f
}

// labelsOf maps block indices of f to their labels, -1 to 0.
func labelsOf(f *spirv.Function, idx []int32) []spirv.ID {
	labels := make([]spirv.ID, len(idx))
	for i, b := range idx {
		if b >= 0 {
			labels[i] = f.Blocks[b].Label
		}
	}
	return labels
}

func TestCFGAndReachability(t *testing.T) {
	// 1 -> (2, 3); 2 -> 4; 3 -> 4; 4 halt; 5 orphan.
	f := fnOf(t, []spirv.ID{1, 2, 3}, []spirv.ID{2, 4}, []spirv.ID{3, 4}, []spirv.ID{4}, []spirv.ID{5, 4})
	g := cfa.Build(f)
	if got := labelsOf(f, g.Succs(g.Index(1))); !reflect.DeepEqual(got, []spirv.ID{2, 3}) {
		t.Fatalf("succs(1) = %v", got)
	}
	preds := labelsOf(f, g.Preds(g.Index(4)))
	if !reflect.DeepEqual(preds, []spirv.ID{2, 3, 5}) { // 2, 3 and the orphan 5, in block order
		t.Fatalf("preds(4) = %v", preds)
	}
	reach := g.Reachable()
	for _, b := range []spirv.ID{1, 2, 3, 4} {
		if !reach[g.Index(b)] {
			t.Errorf("block %d should be reachable", b)
		}
	}
	if reach[g.Index(5)] {
		t.Error("orphan block 5 must be unreachable")
	}
}

func TestDominators(t *testing.T) {
	// Classic diamond with a loop back-edge:
	// 1 -> 2; 2 -> (3,4); 3 -> 5; 4 -> 5; 5 -> (2, 6); 6 halt.
	f := fnOf(t,
		[]spirv.ID{1, 2},
		[]spirv.ID{2, 3, 4},
		[]spirv.ID{3, 5},
		[]spirv.ID{4, 5},
		[]spirv.ID{5, 2, 6},
		[]spirv.ID{6},
	)
	g := cfa.Build(f)
	d := cfa.Dominators(g)
	dominates := func(a, b spirv.ID) bool { return d.Dominates(g.Index(a), g.Index(b)) }
	want := map[spirv.ID]spirv.ID{2: 1, 3: 2, 4: 2, 5: 2, 6: 5}
	for b, idom := range want {
		if got := f.Blocks[d.Idom[g.Index(b)]].Label; got != idom {
			t.Errorf("idom(%d) = %d, want %d", b, got, idom)
		}
	}
	if !dominates(1, 6) || !dominates(2, 6) || !dominates(5, 6) {
		t.Error("1, 2, 5 must dominate 6")
	}
	if dominates(3, 5) || dominates(4, 5) {
		t.Error("3 and 4 must not dominate 5")
	}
	if !dominates(3, 3) {
		t.Error("dominance is reflexive")
	}
	if d.StrictlyDominates(g.Index(3), g.Index(3)) {
		t.Error("strict dominance is irreflexive")
	}
	// Unreachable blocks are dominated by nothing else.
	f2 := fnOf(t, []spirv.ID{1}, []spirv.ID{9})
	g2 := cfa.Build(f2)
	d2 := cfa.Dominators(g2)
	if d2.Dominates(g2.Index(1), g2.Index(9)) {
		t.Error("unreachable block must not be dominated by entry")
	}
}

func TestReversePostOrder(t *testing.T) {
	f := fnOf(t, []spirv.ID{1, 2, 3}, []spirv.ID{2, 4}, []spirv.ID{3, 4}, []spirv.ID{4})
	rpo := labelsOf(f, cfa.Build(f).ReversePostOrder())
	if rpo[0] != 1 || rpo[len(rpo)-1] != 4 {
		t.Fatalf("rpo = %v", rpo)
	}
	pos := map[spirv.ID]int{}
	for i, b := range rpo {
		pos[b] = i
	}
	if !(pos[1] < pos[2] && pos[1] < pos[3] && pos[2] < pos[4] && pos[3] < pos[4]) {
		t.Fatalf("rpo order violated: %v", rpo)
	}
}

func TestAvailability(t *testing.T) {
	// Build: entry(1): %10 = CopyObject %c ; cond branch (3,4)
	// 3: %11 = CopyObject %10; branch 5.  4: branch 5.  5: ret.
	m := spirv.NewModule()
	f32 := m.EnsureTypeFloat(32)
	c := m.EnsureConstantFloat(2)
	void := m.EnsureTypeVoid()
	fnType := m.EnsureTypeFunction(void)
	cond := m.EnsureConstantBool(true)
	fn := &spirv.Function{Def: spirv.NewInstr(spirv.OpFunction, void, m.FreshID(), spirv.FunctionControlNone, uint32(fnType))}
	b1 := &spirv.Block{Label: m.FreshID()}
	b3 := &spirv.Block{Label: m.FreshID()}
	b4 := &spirv.Block{Label: m.FreshID()}
	b5 := &spirv.Block{Label: m.FreshID()}
	v10 := m.FreshID()
	b1.Body = append(b1.Body, spirv.NewInstr(spirv.OpCopyObject, f32, v10, uint32(c)))
	b1.Merge = spirv.NewInstr(spirv.OpSelectionMerge, 0, 0, uint32(b5.Label), spirv.SelectionControlNone)
	b1.Term = spirv.NewInstr(spirv.OpBranchConditional, 0, 0, uint32(cond), uint32(b3.Label), uint32(b4.Label))
	v11 := m.FreshID()
	b3.Body = append(b3.Body, spirv.NewInstr(spirv.OpCopyObject, f32, v11, uint32(v10)))
	b3.Term = spirv.NewInstr(spirv.OpBranch, 0, 0, uint32(b5.Label))
	b4.Term = spirv.NewInstr(spirv.OpBranch, 0, 0, uint32(b5.Label))
	b5.Term = spirv.NewInstr(spirv.OpReturn, 0, 0)
	fn.Blocks = []*spirv.Block{b1, b3, b4, b5}
	m.Functions = append(m.Functions, fn)

	info := cfa.Analyze(m, fn)
	if !info.AvailableAt(v10, b3.Label, 0) {
		t.Error("v10 (entry) must be available in b3")
	}
	if !info.AvailableAt(v10, b5.Label, 0) {
		t.Error("v10 (entry) must be available in b5 (entry dominates all)")
	}
	if info.AvailableAt(v11, b5.Label, 0) {
		t.Error("v11 (defined in b3) must NOT be available in b5 (b3 does not dominate)")
	}
	if info.AvailableAt(v11, b4.Label, 0) {
		t.Error("v11 must not be available in sibling b4")
	}
	if !info.AvailableAt(v11, b3.Label, 1) {
		t.Error("v11 available after its own definition")
	}
	if info.AvailableAt(v10, b1.Label, 0) {
		t.Error("v10 not available before its own definition")
	}
	if !info.AvailableAt(c, b4.Label, 0) {
		t.Error("constants are available everywhere")
	}
	if info.AvailableAt(b3.Label, b5.Label, 0) {
		t.Error("labels are not values")
	}
}

func TestBlockOrderRespectsDominance(t *testing.T) {
	// Order 1,2,3,4 with 1->(2,3), 2->4, 3->4 is fine; 4 before 2 is fine
	// too (4's idom is 1); but a dominated block before its idom is not.
	f := fnOf(t, []spirv.ID{1, 2, 3}, []spirv.ID{2, 4}, []spirv.ID{3, 4}, []spirv.ID{4})
	if !cfa.BlockOrderRespectsDominance(f) {
		t.Fatal("valid order rejected")
	}
	// Swap 4 (idom 1) before 2 and 3: still valid.
	f.Blocks[1], f.Blocks[3] = f.Blocks[3], f.Blocks[1]
	if !cfa.BlockOrderRespectsDominance(f) {
		t.Fatal("reorder of siblings rejected (Figure 8b shape)")
	}
	// 1 -> 2 -> 3 chain with 3 placed before 2: 3's idom is 2, invalid.
	g := fnOf(t, []spirv.ID{1, 2}, []spirv.ID{2, 3}, []spirv.ID{3})
	g.Blocks[1], g.Blocks[2] = g.Blocks[2], g.Blocks[1]
	if cfa.BlockOrderRespectsDominance(g) {
		t.Fatal("dominated block before dominator accepted")
	}
}
