// Package cfa provides control-flow analyses over SPIR-V functions: the
// control-flow graph, reachability, dominator trees (Cooper-Harvey-Kennedy),
// and availability of ids at use sites. These are the analyses the
// validator, optimizer and transformations all share.
package cfa

import "spirvfuzz/internal/spirv"

// CFG is the control-flow graph of one function.
type CFG struct {
	Fn    *spirv.Function
	Succs map[spirv.ID][]spirv.ID
	Preds map[spirv.ID][]spirv.ID
}

// Build computes the CFG of fn.
func Build(fn *spirv.Function) *CFG {
	g := &CFG{
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

// Reachable returns the set of blocks reachable from the entry block.
func (g *CFG) Reachable() map[spirv.ID]bool {
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

// ReversePostOrder returns the reachable blocks in reverse post-order. The
// DFS visits successors in reverse declaration order, which yields the
// conventional layout order (then-arm before else-arm before merge) — the
// order builders and compilers naturally emit, so a module laid out
// naturally is already in RPO.
func (g *CFG) ReversePostOrder() []spirv.ID {
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

// DomTree is the dominator tree of a function's reachable blocks.
type DomTree struct {
	// Idom maps each reachable non-entry block to its immediate dominator.
	Idom map[spirv.ID]spirv.ID
	// Entry is the function's entry block label.
	Entry spirv.ID
	// rpoIndex orders blocks for the CHK intersection walk.
	rpoIndex map[spirv.ID]int
}

// Dominators computes the dominator tree with the Cooper-Harvey-Kennedy
// iterative algorithm over reverse post-order.
func Dominators(g *CFG) *DomTree {
	rpo := g.ReversePostOrder()
	idx := make(map[spirv.ID]int, len(rpo))
	for i, b := range rpo {
		idx[b] = i
	}
	d := &DomTree{Idom: make(map[spirv.ID]spirv.ID, len(rpo)), rpoIndex: idx}
	if len(rpo) == 0 {
		return d
	}
	entry := rpo[0]
	d.Entry = entry
	d.Idom[entry] = entry
	intersect := func(a, b spirv.ID) spirv.ID {
		for a != b {
			for idx[a] > idx[b] {
				a = d.Idom[a]
			}
			for idx[b] > idx[a] {
				b = d.Idom[b]
			}
		}
		return a
	}
	for changed := true; changed; {
		changed = false
		for _, b := range rpo[1:] {
			var newIdom spirv.ID
			for _, p := range g.Preds[b] {
				if _, ok := d.Idom[p]; !ok {
					continue // predecessor not yet processed or unreachable
				}
				if newIdom == 0 {
					newIdom = p
				} else {
					newIdom = intersect(p, newIdom)
				}
			}
			if newIdom != 0 && d.Idom[b] != newIdom {
				d.Idom[b] = newIdom
				changed = true
			}
		}
	}
	return d
}

// Dominates reports whether block a dominates block b (reflexively).
// Unreachable blocks dominate nothing and are dominated only by themselves.
func (d *DomTree) Dominates(a, b spirv.ID) bool {
	if a == b {
		return true
	}
	cur, ok := d.Idom[b]
	if !ok {
		return false
	}
	for {
		if cur == a {
			return true
		}
		if cur == d.Entry {
			return false
		}
		next, ok := d.Idom[cur]
		if !ok || next == cur {
			return false
		}
		cur = next
	}
}

// StrictlyDominates reports whether a strictly dominates b.
func (d *DomTree) StrictlyDominates(a, b spirv.ID) bool {
	return a != b && d.Dominates(a, b)
}

// Info bundles the per-function analyses needed to answer availability
// queries: where each id is defined and whether a definition reaches a use.
type Info struct {
	Mod *spirv.Module
	Fn  *spirv.Function
	G   *CFG
	Dom *DomTree
	// DefBlock maps a result id defined inside the function to its block.
	DefBlock map[spirv.ID]spirv.ID
	// DefPos maps a result id to its position within its block; ϕs come
	// first, then body instructions. Labels have position -1.
	DefPos map[spirv.ID]int
	// ModuleScope holds ids defined at module scope (types, constants,
	// globals, all functions' ids) plus this function's parameters, which
	// are available everywhere in the function.
	ModuleScope map[spirv.ID]bool
}

// Analyze computes Info for fn within m.
func Analyze(m *spirv.Module, fn *spirv.Function) *Info {
	// Presize the maps from the counts at hand: every precondition check
	// during replay pays for one Analyze, and rehashing growing maps was a
	// large share of its cost.
	defs := 0
	for _, b := range fn.Blocks {
		defs += 1 + len(b.Phis) + len(b.Body)
	}
	info := &Info{
		Mod:         m,
		Fn:          fn,
		DefBlock:    make(map[spirv.ID]spirv.ID, defs),
		DefPos:      make(map[spirv.ID]int, defs),
		ModuleScope: make(map[spirv.ID]bool, len(m.TypesGlobals)+len(m.Functions)+len(fn.Params)),
	}
	info.G = Build(fn)
	info.Dom = Dominators(info.G)
	for _, ins := range m.TypesGlobals {
		if ins.Result != 0 {
			info.ModuleScope[ins.Result] = true
		}
	}
	for _, f := range m.Functions {
		info.ModuleScope[f.ID()] = true
	}
	for _, p := range fn.Params {
		info.ModuleScope[p.Result] = true
	}
	for _, b := range fn.Blocks {
		info.DefBlock[b.Label] = b.Label
		info.DefPos[b.Label] = -1
		pos := 0
		for _, p := range b.Phis {
			info.DefBlock[p.Result] = b.Label
			info.DefPos[p.Result] = pos
			pos++
		}
		for _, ins := range b.Body {
			if ins.Result != 0 {
				info.DefBlock[ins.Result] = b.Label
				info.DefPos[ins.Result] = pos
			}
			pos++
		}
	}
	return info
}

// AvailableAt reports whether id may be used by the instruction at position
// pos of block blk: id is at module scope or a parameter, or defined earlier
// in the same block, or defined in a block that strictly dominates blk.
func (info *Info) AvailableAt(id spirv.ID, blk spirv.ID, pos int) bool {
	if info.ModuleScope[id] {
		return true
	}
	db, ok := info.DefBlock[id]
	if !ok {
		return false
	}
	if db == blk {
		if info.DefPos[id] == -1 { // the block's own label: never a value
			return false
		}
		return info.DefPos[id] < pos
	}
	return info.Dom.StrictlyDominates(db, blk)
}

// AvailableAt answers Info.AvailableAt for one query without building an
// Info: precondition checks ask one availability question per
// transformation, and the CFG, dominator tree and definition maps cost far
// more than the question. It scans for the definition (module scope first,
// then the function, where the last definition wins as in Analyze). A
// definition in another block db makes the answer "db strictly dominates
// blk", which depth-first search decides without building any map: blk must
// be reachable from the entry, and not once db is removed. The search with
// db removed runs first; if it misses blk, it resumes from db, so each block
// is walked at most once.
func AvailableAt(m *spirv.Module, fn *spirv.Function, id spirv.ID, blk spirv.ID, pos int) bool {
	for _, ins := range m.TypesGlobals {
		if ins.Result == id && id != 0 { // result-less instructions define nothing
			return true
		}
	}
	for _, f := range m.Functions {
		if f.ID() == id {
			return true
		}
	}
	for _, p := range fn.Params {
		if p.Result == id {
			return true
		}
	}
	db, dpos := defLocus(fn, id)
	if db < 0 {
		return false
	}
	if fn.Blocks[db].Label == blk {
		return dpos != -1 && dpos < pos // a block's own label is never a value
	}
	return strictlyDominates(fn, db, fn.BlockIndex(blk))
}

// defLocus returns the block index and block-wide position (ϕs first, -1 for
// the label) of id's last definition in fn, or -1 if fn defines no id.
func defLocus(fn *spirv.Function, id spirv.ID) (int, int) {
	for bi := len(fn.Blocks) - 1; bi >= 0; bi-- {
		b := fn.Blocks[bi]
		for j := len(b.Body) - 1; j >= 0; j-- {
			if b.Body[j].Result == id && id != 0 {
				return bi, len(b.Phis) + j
			}
		}
		for j := len(b.Phis) - 1; j >= 0; j-- {
			if b.Phis[j].Result == id {
				return bi, j
			}
		}
		if b.Label == id {
			return bi, -1
		}
	}
	return -1, 0
}

// strictlyDominates reports whether block index a strictly dominates block
// index b (a != b): b is reachable from the entry, and every path to it
// passes through a. Out-of-range b (no such block) is dominated by nothing.
// Each edge resolves its target with a linear BlockIndex, so the search is
// O(blocks × edges); that still beats building an Info at 1000 blocks, and
// fuzzed functions stay far smaller (DESIGN.md "Per-query analyses").
func strictlyDominates(fn *spirv.Function, a, b int) bool {
	if b < 0 {
		return false
	}
	seen := make([]bool, len(fn.Blocks))
	var stack []int
	hitA := false // a is a successor of a block reached without a
	// walk searches on from the blocks on the stack until b is found.
	walk := func() bool {
		found := false
		for len(stack) > 0 && !found {
			i := stack[len(stack)-1]
			stack = stack[:len(stack)-1]
			fn.Blocks[i].ForEachSuccessor(func(label spirv.ID) {
				s := fn.BlockIndex(label)
				hitA = hitA || s == a
				if s < 0 || seen[s] {
					return
				}
				seen[s] = true
				found = found || s == b
				stack = append(stack, s)
			})
		}
		return found
	}
	// Search from the entry with a removed: reaching b refutes dominance.
	// The entry starts out seen, so it is never found: nothing strictly
	// dominates it.
	seen[a] = true
	if a != 0 {
		seen[0] = true
		stack = append(stack, 0)
		if walk() || !hitA {
			return false // b is reachable without a, or a (so b) is unreachable
		}
	}
	// Resume from a: whatever is found now is reachable only through a.
	stack = append(stack, a)
	return walk()
}

// BlockOrderRespectsDominance reports whether the function's syntactic block
// order satisfies the SPIR-V rule: the entry block appears first, and every
// block appears before all blocks it dominates... i.e. each block appears
// after every block that strictly dominates it. Unreachable blocks may
// appear anywhere after the entry.
func BlockOrderRespectsDominance(fn *spirv.Function) bool {
	g := Build(fn)
	dom := Dominators(g)
	seen := make(map[spirv.ID]bool, len(fn.Blocks))
	for i, b := range fn.Blocks {
		if i == 0 && len(fn.Blocks) > 0 && b.Label != fn.Entry().Label {
			return false
		}
		idom, reachable := dom.Idom[b.Label]
		if reachable && b.Label != dom.Entry && !seen[idom] {
			return false
		}
		seen[b.Label] = true
	}
	return true
}
