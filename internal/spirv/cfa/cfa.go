// Package cfa provides control-flow analyses over SPIR-V functions: the
// control-flow graph, reachability, dominator trees (Cooper-Harvey-Kennedy),
// and availability of ids at use sites. These are the analyses the
// validator, optimizer and transformations all share.
package cfa

import (
	"slices"

	"spirvfuzz/internal/spirv"
)

// CFG is the control-flow graph of one function over block indices: block i
// is Fn.Blocks[i], and the entry is block 0. Each label is resolved to its
// index once, when the graph is built. Edges are stored as flat arrays
// (compressed sparse rows), so a graph costs a handful of allocations
// however many blocks it has.
type CFG struct {
	Fn *spirv.Function
	// The successors of block i are succ[succOff[i]:succOff[i+1]], in
	// terminator order, with -1 for a target that names no block.
	succOff, succ []int32
	// The predecessors of block i are pred[predOff[i]:predOff[i+1]], in
	// block order, once per edge: a block that branches to i from both arms
	// of a conditional is listed twice.
	predOff, pred []int32
	// byLabel holds label<<32 | index for every block, sorted, so Index is
	// a binary search. Of two blocks with one label, the first wins, as in
	// spirv.Function.Block.
	byLabel []uint64
}

// Build computes the CFG of fn.
func Build(fn *spirv.Function) *CFG {
	n := len(fn.Blocks)
	g := &CFG{Fn: fn, byLabel: make([]uint64, n)}
	edges := 0
	for i, b := range fn.Blocks {
		g.byLabel[i] = uint64(b.Label)<<32 | uint64(i)
		b.ForEachSuccessor(func(spirv.ID) { edges++ })
	}
	slices.Sort(g.byLabel)
	buf := make([]int32, 2*(n+1)+2*edges)
	g.succOff, g.succ = buf[:n+1], buf[n+1:n+1+edges]
	buf = buf[n+1+edges:]
	g.predOff, g.pred = buf[:n+1], buf[n+1:]
	e := 0
	for i, b := range fn.Blocks {
		g.succOff[i] = int32(e)
		b.ForEachSuccessor(func(label spirv.ID) {
			s := g.Index(label)
			g.succ[e] = int32(s)
			e++
			if s >= 0 {
				g.predOff[s+1]++
			}
		})
	}
	g.succOff[n] = int32(e)
	// Counting sort of the edges by target. predOff[i] serves as block i's
	// fill cursor, which leaves it at block i+1's start; shifting the
	// offsets up by one then restores the starts. Sources are visited in
	// block order, so each predecessor list comes out in block order.
	for i := 1; i <= n; i++ {
		g.predOff[i] += g.predOff[i-1]
	}
	g.pred = g.pred[:g.predOff[n]]
	for i := range n {
		for _, s := range g.Succs(i) {
			if s >= 0 {
				g.pred[g.predOff[s]] = int32(i)
				g.predOff[s]++
			}
		}
	}
	copy(g.predOff[1:], g.predOff[:n])
	g.predOff[0] = 0
	return g
}

// Len returns the number of blocks.
func (g *CFG) Len() int { return len(g.succOff) - 1 }

// Index returns the index of the block labelled label, or -1.
func (g *CFG) Index(label spirv.ID) int {
	i, _ := slices.BinarySearch(g.byLabel, uint64(label)<<32)
	if i < len(g.byLabel) && g.byLabel[i]>>32 == uint64(label) {
		return int(uint32(g.byLabel[i]))
	}
	return -1
}

// Succs returns the successor indices of block i, -1 for a target that
// names no block. The slice aliases the graph.
func (g *CFG) Succs(i int) []int32 { return g.succ[g.succOff[i]:g.succOff[i+1]] }

// Preds returns the predecessor indices of block i in block order, once
// per edge. The slice aliases the graph.
func (g *CFG) Preds(i int) []int32 { return g.pred[g.predOff[i]:g.predOff[i+1]] }

// Reachable reports, per block index, whether the block is reachable from
// the entry.
func (g *CFG) Reachable() []bool {
	n := g.Len()
	seen := make([]bool, n)
	if n == 0 {
		return seen
	}
	seen[0] = true
	stack := make([]int32, 1, n)
	for len(stack) > 0 {
		b := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		for _, s := range g.Succs(int(b)) {
			if s >= 0 && !seen[s] {
				seen[s] = true
				stack = append(stack, s)
			}
		}
	}
	return seen
}

// ReversePostOrder returns the indices of the reachable blocks in reverse
// post-order. The DFS visits successors in reverse declaration order, which
// yields the conventional layout order (then-arm before else-arm before
// merge) — the order builders and compilers naturally emit, so a module laid
// out naturally is already in RPO.
func (g *CFG) ReversePostOrder() []int32 {
	n := g.Len()
	if n == 0 {
		return nil
	}
	// An explicit DFS stack of (block, next edge), the edge cursor counting
	// down from the block's last successor; a block is marked when pushed,
	// so each is pushed at most once.
	type frame struct{ b, next int32 }
	stack := make([]frame, 1, n)
	stack[0] = frame{0, g.succOff[1]}
	seen := make([]bool, n)
	seen[0] = true
	post := make([]int32, 0, n)
	for len(stack) > 0 {
		top := &stack[len(stack)-1]
		if top.next == g.succOff[top.b] {
			post = append(post, top.b)
			stack = stack[:len(stack)-1]
			continue
		}
		top.next--
		if s := g.succ[top.next]; s >= 0 && !seen[s] {
			seen[s] = true
			stack = append(stack, frame{s, g.succOff[s+1]})
		}
	}
	slices.Reverse(post)
	return post
}

// DomTree is the dominator tree of a function's reachable blocks.
type DomTree struct {
	// Idom holds each block's immediate dominator by index: the entry's is
	// itself (0), an unreachable block's is -1.
	Idom []int32
}

// Dominators computes the dominator tree with the Cooper-Harvey-Kennedy
// iterative algorithm over reverse post-order.
func Dominators(g *CFG) *DomTree {
	n := g.Len()
	rpo := g.ReversePostOrder()
	buf := make([]int32, 2*n)
	d := &DomTree{Idom: buf[:n]}
	pos := buf[n:] // RPO position, ordering blocks for the intersection walk
	for i := range buf {
		buf[i] = -1
	}
	if len(rpo) == 0 {
		return d
	}
	for i, b := range rpo {
		pos[b] = int32(i)
	}
	d.Idom[0] = 0
	intersect := func(a, b int32) int32 {
		for a != b {
			for pos[a] > pos[b] {
				a = d.Idom[a]
			}
			for pos[b] > pos[a] {
				b = d.Idom[b]
			}
		}
		return a
	}
	for changed := true; changed; {
		changed = false
		for _, b := range rpo[1:] {
			newIdom := int32(-1)
			for _, p := range g.Preds(int(b)) {
				if d.Idom[p] < 0 {
					continue // predecessor not yet processed or unreachable
				}
				if newIdom < 0 {
					newIdom = p
				} else {
					newIdom = intersect(p, newIdom)
				}
			}
			if newIdom >= 0 && d.Idom[b] != newIdom {
				d.Idom[b] = newIdom
				changed = true
			}
		}
	}
	return d
}

// Dominates reports whether block index a dominates block index b
// (reflexively). Unreachable blocks dominate nothing and are dominated only
// by themselves; a negative index (no such block) is neither.
func (d *DomTree) Dominates(a, b int) bool {
	if a < 0 || b < 0 {
		return false
	}
	if a == b {
		return true
	}
	for cur := d.Idom[b]; cur >= 0; {
		if int(cur) == a {
			return true
		}
		next := d.Idom[cur]
		if next == cur { // the entry
			return false
		}
		cur = next
	}
	return false
}

// StrictlyDominates reports whether a strictly dominates b.
func (d *DomTree) StrictlyDominates(a, b int) bool {
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
	return info.Dom.StrictlyDominates(info.G.Index(db), info.G.Index(blk))
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
// order satisfies the SPIR-V rule: each block appears after every block that
// strictly dominates it. Unreachable blocks may appear anywhere after the
// entry.
func BlockOrderRespectsDominance(fn *spirv.Function) bool {
	return Dominators(Build(fn)).RespectsBlockOrder()
}

// RespectsBlockOrder is BlockOrderRespectsDominance for a dominator tree
// already built: every reachable block after the entry must come after its
// immediate dominator, and so, by induction, after all its dominators.
func (d *DomTree) RespectsBlockOrder() bool {
	for i := 1; i < len(d.Idom); i++ {
		if d.Idom[i] > int32(i) {
			return false
		}
	}
	return true
}
