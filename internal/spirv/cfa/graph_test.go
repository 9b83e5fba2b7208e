package cfa_test

import (
	"fmt"
	"slices"
	"testing"

	"spirvfuzz/internal/corpus"
	"spirvfuzz/internal/fuzz"
	"spirvfuzz/internal/spirv"
	"spirvfuzz/internal/spirv/cfa"
)

// checkGraph compares the index-based analyses of fn with the map-keyed
// references, block by block: successor and predecessor labels in order
// (a successor that names no block is -1 here), reachability, RPO position,
// immediate dominator, dominance between every pair of blocks, and the
// block-order rule.
func checkGraph(t *testing.T, name string, fn *spirv.Function) {
	t.Helper()
	ref := referenceBuild(fn)
	refReach := ref.referenceReachable()
	refIdom := referenceDominators(ref)
	g := cfa.Build(fn)
	reach := g.Reachable()
	dom := cfa.Dominators(g)
	if g.Len() != len(fn.Blocks) || len(reach) != len(fn.Blocks) || len(dom.Idom) != len(fn.Blocks) {
		t.Fatalf("%s: %d blocks, graph has %d, reachability %d, idom %d", name, len(fn.Blocks), g.Len(), len(reach), len(dom.Idom))
	}
	if got, want := labelsOf(fn, g.ReversePostOrder()), ref.referenceReversePostOrder(); !slices.Equal(got, want) {
		t.Fatalf("%s: RPO %v, reference %v", name, got, want)
	}
	for i, b := range fn.Blocks {
		if got := g.Index(b.Label); got != i {
			t.Fatalf("%s: Index(%%%d) = %d, want %d", name, b.Label, got, i)
		}
		succs, refSuccs := g.Succs(i), ref.Succs[b.Label]
		if len(succs) != len(refSuccs) {
			t.Fatalf("%s: block %%%d has successors %v, reference %v", name, b.Label, labelsOf(fn, succs), refSuccs)
		}
		for k, s := range succs {
			if (s < 0 && fn.Block(refSuccs[k]) != nil) || (s >= 0 && fn.Blocks[s].Label != refSuccs[k]) {
				t.Fatalf("%s: block %%%d successor %d is index %d, reference %%%d", name, b.Label, k, s, refSuccs[k])
			}
		}
		if got, want := labelsOf(fn, g.Preds(i)), ref.Preds[b.Label]; !slices.Equal(got, want) {
			t.Fatalf("%s: block %%%d has predecessors %v, reference %v", name, b.Label, got, want)
		}
		if reach[i] != refReach[b.Label] {
			t.Fatalf("%s: block %%%d reachable %v, reference %v", name, b.Label, reach[i], refReach[b.Label])
		}
		want, ok := refIdom[b.Label]
		if got := dom.Idom[i]; (got < 0) == ok || (ok && fn.Blocks[got].Label != want) {
			t.Fatalf("%s: block %%%d has idom index %d, reference %%%d (reachable %v)", name, b.Label, got, want, ok)
		}
		for j, c := range fn.Blocks {
			if got, want := dom.Dominates(j, i), referenceDominates(refIdom, fn.Entry().Label, c.Label, b.Label); got != want {
				t.Fatalf("%s: %%%d dominates %%%d = %v, reference %v", name, c.Label, b.Label, got, want)
			}
		}
	}
	if got, want := dom.RespectsBlockOrder(), referenceBlockOrderRespectsDominance(fn, refIdom); got != want {
		t.Fatalf("%s: block order respects dominance = %v, reference %v", name, got, want)
	}
}

// TestGraphMatchesReference runs checkGraph over every function of the
// corpus references, of fuzzed variants of them (built as the optimizer's
// TestPipelineOnFuzzedVariants builds them, and again with each function's
// first conditional branch folded, which cuts blocks off), and of crafted
// shapes the corpus lacks.
func TestGraphMatchesReference(t *testing.T) {
	seeds := 8
	if testing.Short() {
		seeds = 2
	}
	donors := corpus.Donors()
	var fns, blocks, unreachable int
	check := func(name string, m *spirv.Module) {
		for _, fn := range m.Functions {
			checkGraph(t, fmt.Sprintf("%s fn %%%d", name, fn.ID()), fn)
			fns++
			blocks += len(fn.Blocks)
			for _, r := range cfa.Build(fn).Reachable() {
				if !r {
					unreachable++
				}
			}
		}
	}
	for _, item := range corpus.References() {
		check(item.Name, item.Mod)
		for seed := int64(0); seed < int64(seeds); seed++ {
			res, err := fuzz.Fuzz(item.Mod, item.Inputs, fuzz.Options{Seed: seed, Donors: donors, EnableRecommendations: true})
			if err != nil {
				t.Fatal(err)
			}
			name := fmt.Sprintf("%s seed %d", item.Name, seed)
			check(name, res.Variant)
			check(name+" folded", foldFirstBranches(res.Variant))
		}
	}
	if unreachable == 0 {
		t.Fatalf("weak coverage: %d functions, %d blocks, none unreachable", fns, blocks)
	}
	t.Logf("%d functions, %d blocks, %d unreachable", fns, blocks, unreachable)

	for _, c := range craftedShapes() {
		checkGraph(t, c.name, c.fn)
	}
}

type crafted struct {
	name string
	fn   *spirv.Function
}

// craftedShapes returns functions with the edge shapes that stress
// predecessor order and duplicate edges: labels descend, so block order and
// label order disagree.
func craftedShapes() []crafted {
	br := func(t spirv.ID) *spirv.Instruction { return spirv.NewInstr(spirv.OpBranch, 0, 0, uint32(t)) }
	cond := func(a, b spirv.ID) *spirv.Instruction {
		return spirv.NewInstr(spirv.OpBranchConditional, 0, 0, 999, uint32(a), uint32(b))
	}
	// sw switches on a dummy selector: default first, then (literal, label)
	// pairs.
	sw := func(def spirv.ID, cases ...spirv.ID) *spirv.Instruction {
		ops := []uint32{999, uint32(def)}
		for i, c := range cases {
			ops = append(ops, uint32(i), uint32(c))
		}
		return spirv.NewInstr(spirv.OpSwitch, 0, 0, ops...)
	}
	ret := spirv.NewInstr(spirv.OpReturn, 0, 0)
	fn := func(terms ...*spirv.Instruction) *spirv.Function {
		f := &spirv.Function{Def: spirv.NewInstr(spirv.OpFunction, 1, 100, spirv.FunctionControlNone, 2)}
		for i, term := range terms {
			f.Blocks = append(f.Blocks, &spirv.Block{Label: spirv.ID(50 - i), Term: term})
		}
		return f
	}
	return []crafted{
		{"self-loop", fn(br(49), cond(49, 48), ret)},
		{"both arms to one block", fn(cond(49, 49), cond(48, 48), ret)},
		{"switch with repeated targets", fn(sw(49, 48, 48, 49, 47), br(47), br(47), ret)},
		{"unreachable cycle", fn(br(49), ret, br(47), cond(48, 49))},
		{"dangling target", fn(cond(49, 7), ret, br(49))},
		{"back edge to the entry", fn(br(49), cond(50, 48), ret)},
		{"irreducible loop", fn(cond(49, 48), br(48), cond(49, 47), ret)},
		{"single block", fn(ret)},
	}
}

// FuzzGraphMatchesReference decodes its input into one function and runs
// checkGraph over it. The first byte sets the block count (1 to 64); then
// each block reads a terminator kind (OpReturn, OpBranch,
// OpBranchConditional, OpSwitch with 1 to 4 cases) and a byte per target.
// A target byte picks one of the function's labels or one label that names
// no block. Bytes past the end read as zero.
func FuzzGraphMatchesReference(f *testing.F) {
	f.Add([]byte{0})
	f.Add([]byte{3, 1, 1, 2, 1, 2, 0})
	f.Fuzz(func(t *testing.T, data []byte) {
		next := func() int {
			if len(data) == 0 {
				return 0
			}
			b := data[0]
			data = data[1:]
			return int(b)
		}
		n := 1 + next()%64
		// Labels are distinct and out of block order; index n is the
		// label no block has.
		label := func(i int) uint32 {
			if i == n {
				return 200
			}
			return uint32(1 + i*37%101)
		}
		target := func() uint32 { return label(next() % (n + 1)) }
		fn := &spirv.Function{Def: spirv.NewInstr(spirv.OpFunction, 1, 300, spirv.FunctionControlNone, 2)}
		for i := range n {
			var term *spirv.Instruction
			switch next() % 4 {
			case 0:
				term = spirv.NewInstr(spirv.OpReturn, 0, 0)
			case 1:
				term = spirv.NewInstr(spirv.OpBranch, 0, 0, target())
			case 2:
				term = spirv.NewInstr(spirv.OpBranchConditional, 0, 0, 999, target(), target())
			case 3:
				ops := []uint32{999, target()}
				for c := range 1 + next()%4 {
					ops = append(ops, uint32(c), target())
				}
				term = spirv.NewInstr(spirv.OpSwitch, 0, 0, ops...)
			}
			fn.Blocks = append(fn.Blocks, &spirv.Block{Label: spirv.ID(label(i)), Term: term})
		}
		checkGraph(t, "fuzzed function", fn)
	})
}
