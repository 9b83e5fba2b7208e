package opt

import (
	"slices"

	"spirvfuzz/internal/spirv"
	"spirvfuzz/internal/spirv/cfa"
)

// EliminateDeadBlocks removes statically unreachable blocks and prunes ϕ
// edges that referenced them.
func EliminateDeadBlocks() Pass {
	return Pass{Name: "eliminate-dead-blocks", Run: func(m *spirv.Module) (bool, error) {
		changed := false
		for _, fn := range m.Functions {
			g := cfa.Build(fn)
			reach := g.Reachable()
			if !slices.Contains(reach, false) {
				continue
			}
			kept := fn.Blocks[:0]
			for i, b := range fn.Blocks {
				if reach[i] {
					kept = append(kept, b)
				}
			}
			fn.Blocks = kept
			// g still indexes the blocks as they were: a ϕ edge is pruned
			// when its parent was one of the removed blocks.
			for _, b := range fn.Blocks {
				for _, phi := range b.Phis {
					ops := phi.Operands[:0]
					for i := 0; i+1 < len(phi.Operands); i += 2 {
						if p := g.Index(spirv.ID(phi.Operands[i+1])); p < 0 || reach[p] {
							ops = append(ops, phi.Operands[i], phi.Operands[i+1])
						}
					}
					phi.Operands = ops
				}
			}
			changed = true
		}
		return changed, nil
	}}
}

// DCE removes side-effect-free instructions whose results are unused,
// iterating to a fixpoint, and drops debug names and decorations that refer
// to ids that no longer exist.
//
// Uses are counted once; removing an instruction decrements the counts of
// the ids it uses. Removal only ever lowers counts, so an instruction that
// becomes removable stays removable and the fixpoint is the one a recount
// per sweep reaches. Sweeps run back to front, so a dead chain laid out in
// definition order goes in one sweep.
//
// The use counts and the set of ids that still exist are slices indexed by
// id, sized by the module's Bound; an id at or above Bound (an invalid
// module) grows them.
func DCE() Pass {
	return Pass{Name: "dce", Run: func(m *spirv.Module) (bool, error) {
		uses := make([]int32, m.Bound)
		m.ForEachInstruction(func(ins *spirv.Instruction) {
			switch ins.Op {
			case spirv.OpName, spirv.OpMemberName, spirv.OpDecorate, spirv.OpMemberDecorate:
				return // debug info does not keep values alive
			}
			ins.Uses(func(id spirv.ID) {
				uses = growTo(uses, id)
				uses[id]++
			})
		})
		// Every id released was counted above, so it is in range.
		release := func(id spirv.ID) { uses[id]-- }
		// sweep drops the removable instructions of list, keeping order.
		sweep := func(list []*spirv.Instruction, removable func(*spirv.Instruction) bool) ([]*spirv.Instruction, bool) {
			w := len(list)
			for i := len(list) - 1; i >= 0; i-- {
				if ins := list[i]; removable(ins) {
					ins.Uses(release)
				} else {
					w--
					list[w] = ins
				}
			}
			if w == 0 {
				return list, false // every instruction was kept
			}
			n := copy(list, list[w:])
			clear(list[n:])
			return list[:n], true
		}
		unused := func(id spirv.ID) bool { return int(id) >= len(uses) || uses[id] == 0 }
		deadBody := func(ins *spirv.Instruction) bool {
			return ins.Result != 0 && unused(ins.Result) &&
				!ins.Op.HasSideEffects() && ins.Op != spirv.OpVariable
		}
		// ϕs with unused results are removable too.
		deadPhi := func(phi *spirv.Instruction) bool { return unused(phi.Result) }
		changedAny := false
		for changed := true; changed; {
			changed = false
			for fi := len(m.Functions) - 1; fi >= 0; fi-- {
				fn := m.Functions[fi]
				for bi := len(fn.Blocks) - 1; bi >= 0; bi-- {
					b := fn.Blocks[bi]
					var ch bool
					if b.Body, ch = sweep(b.Body, deadBody); ch {
						changed = true
					}
					if b.Phis, ch = sweep(b.Phis, deadPhi); ch {
						changed = true
					}
				}
			}
			changedAny = changedAny || changed
		}
		if changedAny {
			// Drop names/decorations for ids that no longer exist.
			exists := make([]bool, m.Bound)
			mark := func(id spirv.ID) {
				exists = growTo(exists, id)
				exists[id] = true
			}
			m.ForEachInstruction(func(ins *spirv.Instruction) {
				if ins.Result != 0 {
					mark(ins.Result)
				}
			})
			for _, fn := range m.Functions {
				for _, b := range fn.Blocks {
					mark(b.Label)
				}
			}
			filter := func(list []*spirv.Instruction) []*spirv.Instruction {
				kept := list[:0]
				for _, ins := range list {
					if id := ins.Operands[0]; int(id) < len(exists) && exists[id] {
						kept = append(kept, ins)
					}
				}
				return kept
			}
			m.Names = filter(m.Names)
			m.Decorations = filter(m.Decorations)
		}
		return changedAny, nil
	}}
}

// growTo returns s extended, if need be, so that id indexes it.
func growTo[T any](s []T, id spirv.ID) []T {
	if int(id) < len(s) {
		return s
	}
	return append(s, make([]T, int(id)+1-len(s))...)
}

// cseKey builds a structural key for a pure instruction.
func cseKey(ins *spirv.Instruction) (string, bool) {
	switch ins.Op {
	case spirv.OpLoad, spirv.OpVariable, spirv.OpFunctionCall, spirv.OpPhi, spirv.OpCopyObject:
		return "", false
	}
	if ins.Result == 0 || ins.Op.HasSideEffects() {
		return "", false
	}
	key := make([]byte, 0, 8+4*len(ins.Operands))
	key = append(key, byte(ins.Op), byte(ins.Op>>8), byte(ins.Type), byte(ins.Type>>8), byte(ins.Type>>16), byte(ins.Type>>24))
	for _, w := range ins.Operands {
		key = append(key, byte(w), byte(w>>8), byte(w>>16), byte(w>>24))
	}
	return string(key), true
}

// CSELocal replaces repeated identical pure computations within a block by
// copies of the first occurrence.
func CSELocal() Pass {
	return Pass{Name: "cse-local", Run: func(m *spirv.Module) (bool, error) {
		changed := false
		for _, fn := range m.Functions {
			for _, b := range fn.Blocks {
				seen := make(map[string]spirv.ID)
				for _, ins := range b.Body {
					key, ok := cseKey(ins)
					if !ok {
						continue
					}
					if first, dup := seen[key]; dup {
						*ins = *spirv.NewInstr(spirv.OpCopyObject, ins.Type, ins.Result, uint32(first))
						changed = true
						continue
					}
					seen[key] = ins.Result
				}
			}
		}
		return changed, nil
	}}
}

// BlockLayout reorders each function's blocks into reverse post-order
// (entry first), appending unreachable blocks in their original order. The
// result always satisfies the dominance ordering rule.
func BlockLayout() Pass {
	return Pass{Name: "block-layout", Run: func(m *spirv.Module) (bool, error) {
		changed := false
		for _, fn := range m.Functions {
			// The reachable blocks are laid out in RPO exactly when RPO
			// lists them in ascending block order.
			rpo := cfa.Build(fn).ReversePostOrder()
			if slices.IsSorted(rpo) {
				continue
			}
			blocks := make([]*spirv.Block, 0, len(fn.Blocks))
			placed := make([]bool, len(fn.Blocks))
			for _, i := range rpo {
				blocks = append(blocks, fn.Blocks[i])
				placed[i] = true
			}
			for i, b := range fn.Blocks {
				if !placed[i] {
					blocks = append(blocks, b)
				}
			}
			fn.Blocks = blocks
			changed = true
		}
		return changed, nil
	}}
}

// MergeBlocks merges a block into its unconditional successor when the
// successor has exactly one predecessor and no ϕs, and neither block heads a
// structured construct or serves as a merge/continue target. This undoes
// gratuitous SplitBlocks, as spirv-opt's block-merge pass does.
func MergeBlocks() Pass {
	return Pass{Name: "merge-blocks", Run: func(m *spirv.Module) (bool, error) {
		changed := false
		for _, fn := range m.Functions {
			// Collect structural targets that must remain distinct blocks.
			reserved := map[spirv.ID]bool{}
			for _, b := range fn.Blocks {
				if b.Merge != nil {
					reserved[spirv.ID(b.Merge.Operands[0])] = true
					if b.Merge.Op == spirv.OpLoopMerge {
						reserved[spirv.ID(b.Merge.Operands[1])] = true
					}
				}
			}
			for {
				g := cfa.Build(fn)
				merged := false
				for _, b := range fn.Blocks {
					if b.Term.Op != spirv.OpBranch || b.Merge != nil {
						continue
					}
					succ := b.Term.IDOperand(0)
					idx := g.Index(succ)
					if idx < 0 {
						continue
					}
					sb := fn.Blocks[idx]
					if sb == b || len(g.Preds(idx)) != 1 || len(sb.Phis) != 0 || reserved[succ] {
						continue
					}
					// Splice successor into b and drop it.
					b.Body = append(b.Body, sb.Body...)
					b.Merge = sb.Merge
					b.Term = sb.Term
					fn.Blocks = append(fn.Blocks[:idx], fn.Blocks[idx+1:]...)
					// ϕs in b's new successors referred to the dropped label.
					for _, s := range b.Successors() {
						if nb := fn.Block(s); nb != nil {
							for _, phi := range nb.Phis {
								for i := 1; i < len(phi.Operands); i += 2 {
									if spirv.ID(phi.Operands[i]) == succ {
										phi.Operands[i] = uint32(b.Label)
									}
								}
							}
						}
					}
					merged = true
					changed = true
					break
				}
				if !merged {
					break
				}
			}
		}
		return changed, nil
	}}
}

// EliminateRedundantPhis replaces ϕs whose incoming values are all identical
// (or the ϕ itself, for self-loops) with a copy of that value, as
// spirv-opt's ssa-rewriter cleanup does.
func EliminateRedundantPhis() Pass {
	return Pass{Name: "eliminate-redundant-phis", Run: func(m *spirv.Module) (bool, error) {
		changed := false
		for _, fn := range m.Functions {
			for _, b := range fn.Blocks {
				keptPhis := b.Phis[:0]
				for _, phi := range b.Phis {
					var unique spirv.ID
					redundant := true
					for i := 0; i+1 < len(phi.Operands); i += 2 {
						v := spirv.ID(phi.Operands[i])
						if v == phi.Result {
							continue // self-reference does not count
						}
						if unique == 0 {
							unique = v
						} else if unique != v {
							redundant = false
							break
						}
					}
					if !redundant || unique == 0 {
						keptPhis = append(keptPhis, phi)
						continue
					}
					// A value that flows in from every predecessor dominates
					// each predecessor's end; for it to be usable where the ϕ
					// was, it must dominate this block — true when it is not
					// defined in one of the predecessors on a back edge.
					// Conservatively require it to be available at position 0
					// of this block.
					if !cfa.AvailableAt(m, fn, unique, b.Label, 0) {
						keptPhis = append(keptPhis, phi)
						continue
					}
					b.Body = append([]*spirv.Instruction{
						spirv.NewInstr(spirv.OpCopyObject, phi.Type, phi.Result, uint32(unique)),
					}, b.Body...)
					changed = true
				}
				b.Phis = keptPhis
			}
		}
		return changed, nil
	}}
}
