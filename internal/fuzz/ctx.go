// Package fuzz implements spirv-fuzz: the transformation-based fuzzer of
// Section 3. It instantiates the generic engine of package core for the
// SPIR-V subset, providing 34 transformation types with explicit
// preconditions and effects over (module, inputs, facts) contexts, fuzzer
// passes that probabilistically apply them, and the recommendations strategy
// for chaining related passes. Beyond the paper's transformations it also
// implements the conclusion's first future-work item — a transformation
// (ScaleUniform) that modifies the module and its input in sync — and a
// deliberately flawed SplitBlockAtOffset used by design-principle ablations.
package fuzz

import (
	"spirvfuzz/internal/core"
	"spirvfuzz/internal/fact"
	"spirvfuzz/internal/interp"
	"spirvfuzz/internal/spirv"
	"spirvfuzz/internal/spirv/cfa"
)

// Context is the transformation context (Definition 2.3) for SPIR-V: the
// module, the inputs on which it executes, and the facts established so far.
type Context struct {
	Mod    *spirv.Module
	Inputs interp.Inputs
	Facts  *fact.Set
}

// Transformation is the SPIR-V instantiation of the engine's interface.
type Transformation = core.Transformation[*Context]

// NewContext returns a context with an empty fact set. The inputs are
// deep-copied: transformations may modify them in sync with the module.
func NewContext(m *spirv.Module, in interp.Inputs) *Context {
	return &Context{Mod: m, Inputs: in.Clone(), Facts: fact.NewSet()}
}

// Clone deep-copies the context, including the inputs: transformations like
// ScaleUniform modify the module and its input in sync (the paper's first
// item of future work), so replays must start from pristine inputs.
func (c *Context) Clone() *Context {
	return &Context{Mod: c.Mod.Clone(), Inputs: c.Inputs.Clone(), Facts: c.Facts.Clone()}
}

// Locus identifies where an instruction lives.
type Locus struct {
	Fn    *spirv.Function
	Block *spirv.Block
	// Index into Block.Body, or -1 if the instruction is a ϕ.
	Index int
	Instr *spirv.Instruction
}

// FindInstruction locates the body or ϕ instruction with result id, or nil.
func (c *Context) FindInstruction(id spirv.ID) *Locus {
	for _, fn := range c.Mod.Functions {
		for _, b := range fn.Blocks {
			for i, ins := range b.Body {
				if ins.Result == id {
					return &Locus{Fn: fn, Block: b, Index: i, Instr: ins}
				}
			}
			for _, p := range b.Phis {
				if p.Result == id {
					return &Locus{Fn: fn, Block: b, Index: -1, Instr: p}
				}
			}
		}
	}
	return nil
}

// FindBlock locates the block with the given label across all functions.
func (c *Context) FindBlock(label spirv.ID) (*spirv.Function, *spirv.Block) {
	for _, fn := range c.Mod.Functions {
		if b := fn.Block(label); b != nil {
			return fn, b
		}
	}
	return nil, nil
}

// IsFreshID reports whether id is unused in the module (and nonzero).
func (c *Context) IsFreshID(id spirv.ID) bool {
	if id == 0 {
		return false
	}
	if c.Mod.Def(id) != nil {
		return false
	}
	for _, fn := range c.Mod.Functions {
		for _, b := range fn.Blocks {
			if b.Label == id {
				return false
			}
		}
	}
	return true
}

// FreshAll reports whether all ids are fresh and pairwise distinct. Unlike a
// loop over IsFreshID — a full module scan per id — it walks the module once.
func (c *Context) FreshAll(ids ...spirv.ID) bool {
	seen := make(map[spirv.ID]bool, len(ids))
	for _, id := range ids {
		if id == 0 || seen[id] {
			return false
		}
		seen[id] = true
	}
	defined := c.DefinedIDs()
	for _, id := range ids {
		if defined[id] {
			return false
		}
	}
	return true
}

// DefinedIDs returns the set of every id the module currently defines:
// instruction results and block labels — exactly the ids IsFreshID rejects.
// Preconditions that validate many ids at once (AddFunction checks every id
// of an encoded function body) build this set in one module walk instead of
// paying a full scan per id.
func (c *Context) DefinedIDs() map[spirv.ID]bool {
	defined := make(map[spirv.ID]bool, c.Mod.InstructionCount()+16)
	c.Mod.ForEachInstruction(func(ins *spirv.Instruction) {
		if ins.Result != 0 {
			defined[ins.Result] = true
		}
	})
	for _, fn := range c.Mod.Functions {
		for _, b := range fn.Blocks {
			defined[b.Label] = true
		}
	}
	return defined
}

// ClaimID raises the module bound to cover id. Effects call this for every
// fresh id they introduce, since during replay the original module's bound
// is below the ids the fuzzer allocated later.
func (c *Context) ClaimID(id spirv.ID) {
	if id >= c.Mod.Bound {
		c.Mod.Bound = id + 1
	}
}

// AvailableAt reports whether id can be used by the instruction at body
// index bodyIndex of block blk in function fn (per SSA dominance rules).
// Preconditions ask one such question per transformation, so it uses the
// query-local cfa.AvailableAt rather than building a cfa.Info whose maps
// would answer only this one question.
func (c *Context) AvailableAt(id spirv.ID, fn *spirv.Function, blk *spirv.Block, bodyIndex int) bool {
	return cfa.AvailableAt(c.Mod, fn, id, blk.Label, len(blk.Phis)+bodyIndex)
}

// InsertBefore inserts ins into blk.Body at index i.
func InsertBefore(blk *spirv.Block, i int, ins *spirv.Instruction) {
	blk.Body = append(blk.Body[:i:i], append([]*spirv.Instruction{ins}, blk.Body[i:]...)...)
}

// RemoveBodyAt removes the body instruction at index i.
func RemoveBodyAt(blk *spirv.Block, i int) {
	blk.Body = append(blk.Body[:i], blk.Body[i+1:]...)
}

// InsertBlockAfter inserts nb into fn.Blocks immediately after block b.
func InsertBlockAfter(fn *spirv.Function, b *spirv.Block, nb *spirv.Block) {
	for i, blk := range fn.Blocks {
		if blk == b {
			rest := append([]*spirv.Block{nb}, fn.Blocks[i+1:]...)
			fn.Blocks = append(fn.Blocks[:i+1:i+1], rest...)
			return
		}
	}
	fn.Blocks = append(fn.Blocks, nb)
}

// EntryPointIDs returns the ids of functions named by entry points; these
// functions cannot gain parameters.
func (c *Context) EntryPointIDs() map[spirv.ID]bool {
	out := make(map[spirv.ID]bool)
	for _, ep := range c.Mod.EntryPoints {
		out[spirv.ID(ep.Operands[1])] = true
	}
	return out
}

// UniformValue returns the input value of the uniform variable with the
// given id, resolved through its OpName, with ok=false when the variable is
// not a uniform or has no provided value.
func (c *Context) UniformValue(varID spirv.ID) (interp.Value, bool) {
	def := c.Mod.Def(varID)
	if def == nil || def.Op != spirv.OpVariable {
		return interp.Value{}, false
	}
	if sc := def.Operands[0]; sc != spirv.StorageUniformConstant && sc != spirv.StorageUniform {
		return interp.Value{}, false
	}
	for _, n := range c.Mod.Names {
		if n.Op == spirv.OpName && spirv.ID(n.Operands[0]) == varID {
			name, _ := spirv.DecodeString(n.Operands[1:])
			v, ok := c.Inputs.Uniforms[name]
			return v, ok
		}
	}
	return interp.Value{}, false
}

// ConstantMatchesValue reports whether constant id c holds exactly the
// runtime value v.
func (c *Context) ConstantMatchesValue(constID spirv.ID, v interp.Value) bool {
	switch v.Kind {
	case interp.KindBool:
		b, ok := c.Mod.ConstantBoolValue(constID)
		return ok && b == v.B
	case interp.KindInt:
		def := c.Mod.Def(constID)
		return def != nil && def.Op == spirv.OpConstant && len(def.Operands) == 1 &&
			c.Mod.IsIntType(def.Type) && def.Operands[0] == v.Bits
	case interp.KindFloat:
		f, ok := c.Mod.ConstantFloatValue(constID)
		return ok && f == v.F && (f != 0 || v.F != 0 || signbit32(f) == signbit32(v.F))
	}
	return false
}

func signbit32(f float32) bool { return f < 0 || (f == 0 && 1/f < 0) }
