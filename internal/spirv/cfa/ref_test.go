package cfa_test

import "spirvfuzz/internal/spirv"

// The map-keyed CFG and dominator analyses that the index-based ones in
// package cfa replaced. They are kept verbatim as references: for any
// function whose block labels are distinct, the index-based analyses must
// give the same successor and predecessor lists, reachability, reverse
// post-order and immediate dominators (TestGraphMatchesReference,
// FuzzGraphMatchesReference).

// refCFG is the reference control-flow graph, keyed by block label.
type refCFG struct {
	Fn    *spirv.Function
	Succs map[spirv.ID][]spirv.ID
	Preds map[spirv.ID][]spirv.ID
}

func referenceBuild(fn *spirv.Function) *refCFG {
	g := &refCFG{
		Fn:    fn,
		Succs: make(map[spirv.ID][]spirv.ID, len(fn.Blocks)),
		Preds: make(map[spirv.ID][]spirv.ID, len(fn.Blocks)),
	}
	for _, b := range fn.Blocks {
		succs := b.Successors()
		g.Succs[b.Label] = succs
		if _, ok := g.Preds[b.Label]; !ok {
			g.Preds[b.Label] = nil
		}
		for _, s := range succs {
			g.Preds[s] = append(g.Preds[s], b.Label)
		}
	}
	return g
}

// referenceReachable is the set of labels reachable from the entry. It also
// holds successor labels that name no block, which is what let
// EliminateDeadBlocks miscount reachable blocks.
func (g *refCFG) referenceReachable() map[spirv.ID]bool {
	seen := make(map[spirv.ID]bool, len(g.Fn.Blocks))
	if len(g.Fn.Blocks) == 0 {
		return seen
	}
	stack := []spirv.ID{g.Fn.Entry().Label}
	for len(stack) > 0 {
		b := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		if seen[b] {
			continue
		}
		seen[b] = true
		for _, s := range g.Succs[b] {
			if !seen[s] {
				stack = append(stack, s)
			}
		}
	}
	return seen
}

// referenceReversePostOrder visits successors in reverse declaration order.
func (g *refCFG) referenceReversePostOrder() []spirv.ID {
	var post []spirv.ID
	seen := make(map[spirv.ID]bool)
	var dfs func(b spirv.ID)
	dfs = func(b spirv.ID) {
		seen[b] = true
		succs := g.Succs[b]
		for i := len(succs) - 1; i >= 0; i-- {
			if s := succs[i]; !seen[s] && g.Fn.Block(s) != nil {
				dfs(s)
			}
		}
		post = append(post, b)
	}
	if len(g.Fn.Blocks) > 0 {
		dfs(g.Fn.Entry().Label)
	}
	for i, j := 0, len(post)-1; i < j; i, j = i+1, j-1 {
		post[i], post[j] = post[j], post[i]
	}
	return post
}

// referenceDominators is Cooper-Harvey-Kennedy over label maps: it maps
// each reachable block, the entry included (to itself), to its immediate
// dominator.
func referenceDominators(g *refCFG) map[spirv.ID]spirv.ID {
	rpo := g.referenceReversePostOrder()
	idx := make(map[spirv.ID]int, len(rpo))
	for i, b := range rpo {
		idx[b] = i
	}
	idom := make(map[spirv.ID]spirv.ID, len(rpo))
	if len(rpo) == 0 {
		return idom
	}
	entry := rpo[0]
	idom[entry] = entry
	intersect := func(a, b spirv.ID) spirv.ID {
		for a != b {
			for idx[a] > idx[b] {
				a = idom[a]
			}
			for idx[b] > idx[a] {
				b = idom[b]
			}
		}
		return a
	}
	for changed := true; changed; {
		changed = false
		for _, b := range rpo[1:] {
			var newIdom spirv.ID
			for _, p := range g.Preds[b] {
				if _, ok := idom[p]; !ok {
					continue // predecessor not yet processed or unreachable
				}
				if newIdom == 0 {
					newIdom = p
				} else {
					newIdom = intersect(p, newIdom)
				}
			}
			if newIdom != 0 && idom[b] != newIdom {
				idom[b] = newIdom
				changed = true
			}
		}
	}
	return idom
}

// referenceDominates is DomTree.Dominates over a referenceDominators map.
func referenceDominates(idom map[spirv.ID]spirv.ID, entry, a, b spirv.ID) bool {
	if a == b {
		return true
	}
	cur, ok := idom[b]
	if !ok {
		return false
	}
	for {
		if cur == a {
			return true
		}
		if cur == entry {
			return false
		}
		next, ok := idom[cur]
		if !ok || next == cur {
			return false
		}
		cur = next
	}
}

// referenceBlockOrderRespectsDominance requires each reachable block after
// the entry to appear after its immediate dominator.
func referenceBlockOrderRespectsDominance(fn *spirv.Function, idom map[spirv.ID]spirv.ID) bool {
	seen := make(map[spirv.ID]bool, len(fn.Blocks))
	for i, b := range fn.Blocks {
		if i == 0 && len(fn.Blocks) > 0 && b.Label != fn.Entry().Label {
			return false
		}
		d, reachable := idom[b.Label]
		if reachable && b.Label != fn.Entry().Label && !seen[d] {
			return false
		}
		seen[b.Label] = true
	}
	return true
}
