package cfa_test

import (
	"sort"
	"testing"

	"spirvfuzz/internal/corpus"
	"spirvfuzz/internal/fuzz"
	"spirvfuzz/internal/interp"
	"spirvfuzz/internal/spirv"
	"spirvfuzz/internal/spirv/cfa"
	"spirvfuzz/internal/testmod"
)

// TestAvailableAtMatchesInfo is the differential test for the query-local
// availability check: over fuzzed variants of every testmod module (dead
// blocks, loops, split blocks, donated functions), every question a
// precondition could ask — any function, block, position from 0 through
// ϕs plus body, and id in [0, Bound+2) — must get the answer a full
// cfa.Analyze gives. Unreachable blocks and label ids are asked too.
func TestAvailableAtMatchesInfo(t *testing.T) {
	seeds := 200
	if testing.Short() {
		seeds = 20
	}
	donors := corpus.Donors()
	mods := testmod.All()
	names := make([]string, 0, len(mods))
	for name := range mods {
		names = append(names, name)
	}
	sort.Strings(names)
	var queries, unreachable, available, crossBlock int
	for _, name := range names {
		for seed := 0; seed < seeds; seed++ {
			res, err := fuzz.Fuzz(mods[name], interp.Inputs{}, fuzz.Options{
				Seed: int64(seed), EnableRecommendations: true, Donors: donors, MinPasses: 12,
			})
			if err != nil {
				t.Fatalf("%s seed %d: %v", name, seed, err)
			}
			// Fuzzing rarely leaves a block unreachable in the CFG (dead
			// blocks hang off a constant-true branch), so each variant is
			// also checked with every function's first conditional branch
			// folded to its true arm, which cuts off the false arm's blocks.
			for _, m := range []*spirv.Module{res.Variant, foldFirstBranches(res.Variant)} {
				for _, fn := range m.Functions {
					info := cfa.Analyze(m, fn)
					reach := info.G.Reachable()
					for bi, b := range fn.Blocks {
						if !reach[bi] {
							unreachable++
						}
						for pos := 0; pos <= len(b.Phis)+len(b.Body); pos++ {
							for id := spirv.ID(0); id < m.Bound+2; id++ {
								want := info.AvailableAt(id, b.Label, pos)
								if got := cfa.AvailableAt(m, fn, id, b.Label, pos); got != want {
									t.Fatalf("%s seed %d: AvailableAt(%%%d, block %%%d, pos %d) = %v, Info says %v\n%s",
										name, seed, id, b.Label, pos, got, want, m)
								}
								queries++
								if want {
									available++
									if db, ok := info.DefBlock[id]; ok && db != b.Label {
										crossBlock++
									}
								}
							}
						}
					}
				}
			}
		}
	}
	// The variants must exercise the interesting shapes, or the test proves
	// little.
	if unreachable == 0 || crossBlock == 0 || available == queries {
		t.Fatalf("weak coverage: %d queries, %d available, %d cross-block, %d unreachable blocks",
			queries, available, crossBlock, unreachable)
	}
	t.Logf("%d queries, %d available, %d cross-block, %d unreachable blocks", queries, available, crossBlock, unreachable)
}

// foldFirstBranches returns a copy of m in which each function's first
// OpBranchConditional branches unconditionally to its true target.
func foldFirstBranches(m *spirv.Module) *spirv.Module {
	c := m.Clone()
	for _, fn := range c.Functions {
		for _, b := range fn.Blocks {
			if b.Term.Op == spirv.OpBranchConditional {
				b.Term = spirv.NewInstr(spirv.OpBranch, 0, 0, uint32(b.Term.IDOperand(1)))
				b.Merge = nil
				break
			}
		}
	}
	return c
}

// TestAvailableAtLargeFunction covers a function far larger than fuzzing
// makes (no function in the e2ebench workloads' variants passes 29 blocks;
// DESIGN.md "Per-query analyses"): a 100-block chain with forward skips,
// whose last ten blocks form a region no path from the entry reaches.
func TestAvailableAtLargeFunction(t *testing.T) {
	const n = 100
	label := func(i int) spirv.ID { return spirv.ID(1000 + i) }
	var specs [][]spirv.ID
	for i := 0; i < n; i++ {
		switch {
		case i == n-11 || i == n-1:
			specs = append(specs, []spirv.ID{label(i)})
		case i%10 == 3:
			specs = append(specs, []spirv.ID{label(i), label(i + 1), label(i + 2)})
		default:
			specs = append(specs, []spirv.ID{label(i), label(i + 1)})
		}
	}
	f := fnOf(t, specs...)
	for i, b := range f.Blocks {
		b.Body = []*spirv.Instruction{spirv.NewInstr(spirv.OpCopyObject, 1, spirv.ID(5000+i), 1)}
	}
	m := &spirv.Module{Functions: []*spirv.Function{f}}
	info := cfa.Analyze(m, f)
	var ids []spirv.ID
	for i := 0; i < n; i++ {
		ids = append(ids, label(i), spirv.ID(5000+i))
	}
	for _, b := range f.Blocks {
		for pos := 0; pos <= 1; pos++ {
			for _, id := range ids {
				if got, want := cfa.AvailableAt(m, f, id, b.Label, pos), info.AvailableAt(id, b.Label, pos); got != want {
					t.Fatalf("AvailableAt(%%%d, block %%%d, pos %d) = %v, Info says %v", id, b.Label, pos, got, want)
				}
			}
		}
	}
}
