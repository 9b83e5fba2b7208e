package fuzz

import (
	"spirvfuzz/internal/spirv"
	"spirvfuzz/internal/spirv/cfa"
)

// Function-level transformations.

// Transformation type identifiers for function transformations.
const (
	TypeAddFunction            = "AddFunction"
	TypeFunctionCall           = "FunctionCall"
	TypeInlineFunction         = "InlineFunction"
	TypeSetFunctionControl     = "SetFunctionControl"
	TypeAddParameter           = "AddParameter"
	TypePropagateInstructionUp = "PropagateInstructionUp"
)

// EncodedInstr is a self-contained instruction encoding used by AddFunction,
// so that donor modules are not required during reduction (Section 3.2).
type EncodedInstr struct {
	Op       string   `json:"op"`
	TypeID   spirv.ID `json:"type,omitempty"`
	Result   spirv.ID `json:"result,omitempty"`
	Operands []uint32 `json:"operands,omitempty"`
}

// Decode converts the encoding back to an instruction.
func (e EncodedInstr) Decode() (*spirv.Instruction, bool) {
	op, ok := spirv.OpcodeByName(e.Op)
	if !ok {
		return nil, false
	}
	// Copy the operands: the instruction placed in the module must not alias
	// this (immutable, replayable) record, or later transformations that
	// mutate the instruction in place would silently rewrite the recording.
	return spirv.NewInstr(op, e.TypeID, e.Result, append([]uint32(nil), e.Operands...)...), true
}

// EncodeInstr encodes an instruction.
func EncodeInstr(ins *spirv.Instruction) EncodedInstr {
	return EncodedInstr{
		Op:       ins.Op.String(),
		TypeID:   ins.Type,
		Result:   ins.Result,
		Operands: append([]uint32(nil), ins.Operands...),
	}
}

// EncodedBlock encodes one basic block.
type EncodedBlock struct {
	Label spirv.ID       `json:"label"`
	Phis  []EncodedInstr `json:"phis,omitempty"`
	Body  []EncodedInstr `json:"body,omitempty"`
	Merge *EncodedInstr  `json:"merge,omitempty"`
	Term  EncodedInstr   `json:"term"`
}

// AddFunction adds a complete function to the module, typically harvested
// from a donor module with its ids remapped to fresh ids at construction
// time. When LiveSafe is set, the function was made live-safe during
// donation — loops truncated by an iteration limit, no OpKill, stores only
// through locals or pointer parameters — and the LiveSafe fact is recorded.
type AddFunction struct {
	Def      EncodedInstr   `json:"def"` // OpFunction
	Params   []EncodedInstr `json:"params,omitempty"`
	Blocks   []EncodedBlock `json:"blocks"`
	LiveSafe bool           `json:"liveSafe,omitempty"`
}

// Type implements Transformation.
func (t *AddFunction) Type() string { return TypeAddFunction }

// internalIDs returns every id the encoded function defines.
func (t *AddFunction) internalIDs() []spirv.ID {
	ids := []spirv.ID{t.Def.Result}
	for _, p := range t.Params {
		ids = append(ids, p.Result)
	}
	for _, b := range t.Blocks {
		ids = append(ids, b.Label)
		for _, p := range b.Phis {
			ids = append(ids, p.Result)
		}
		for _, ins := range b.Body {
			if ins.Result != 0 {
				ids = append(ids, ins.Result)
			}
		}
	}
	return ids
}

// Precondition: every id the function defines is fresh and distinct, every
// external id it references is module-level (a type, constant, global
// variable or function: ids local to another function are not available
// in this one), the opcodes decode, and the definition's parameters and
// return type match the function type it names.
func (t *AddFunction) Precondition(c *Context) bool {
	if len(t.Blocks) == 0 || !t.signatureMatches(c.Mod) {
		return false
	}
	// One defined-id set for the whole check: an encoded function carries
	// hundreds of ids, and probing each via IsFreshID/Def would re-walk the
	// module per id.
	defined := c.DefinedIDs()
	internal := make(map[spirv.ID]bool)
	for _, id := range t.internalIDs() {
		if id == 0 || internal[id] || defined[id] {
			return false
		}
		internal[id] = true
	}
	global := make(map[spirv.ID]bool, len(c.Mod.TypesGlobals)+len(c.Mod.Functions))
	for _, ins := range c.Mod.TypesGlobals {
		global[ins.Result] = true
	}
	for _, fn := range c.Mod.Functions {
		global[fn.ID()] = true
	}
	ok := true
	check := func(e EncodedInstr) {
		ins, decoded := e.Decode()
		if !decoded {
			ok = false
			return
		}
		ins.Uses(func(id spirv.ID) {
			if !internal[id] && !global[id] {
				ok = false
			}
		})
	}
	check(t.Def)
	for _, p := range t.Params {
		check(p)
	}
	for _, b := range t.Blocks {
		for _, p := range b.Phis {
			check(p)
		}
		for _, ins := range b.Body {
			check(ins)
		}
		if b.Merge != nil {
			check(*b.Merge)
		}
		check(b.Term)
	}
	return ok
}

// signatureMatches reports whether Def is an OpFunction whose function
// type returns Def's result type and takes exactly the Params' types.
func (t *AddFunction) signatureMatches(m *spirv.Module) bool {
	if t.Def.Op != spirv.OpFunction.String() || len(t.Def.Operands) != 2 {
		return false
	}
	ret, params, ok := m.FunctionTypeInfo(spirv.ID(t.Def.Operands[1]))
	if !ok || ret != t.Def.TypeID || len(params) != len(t.Params) {
		return false
	}
	for i, p := range t.Params {
		if p.Op != spirv.OpFunctionParameter.String() || p.TypeID != params[i] {
			return false
		}
	}
	return true
}

// Apply appends the function and records the LiveSafe fact if claimed.
func (t *AddFunction) Apply(c *Context) {
	for _, id := range t.internalIDs() {
		c.ClaimID(id)
	}
	def, _ := t.Def.Decode()
	fn := &spirv.Function{Def: def}
	for _, p := range t.Params {
		ins, _ := p.Decode()
		fn.Params = append(fn.Params, ins)
	}
	for _, eb := range t.Blocks {
		b := &spirv.Block{Label: eb.Label}
		for _, p := range eb.Phis {
			ins, _ := p.Decode()
			b.Phis = append(b.Phis, ins)
		}
		for _, e := range eb.Body {
			ins, _ := e.Decode()
			b.Body = append(b.Body, ins)
		}
		if eb.Merge != nil {
			ins, _ := eb.Merge.Decode()
			b.Merge = ins
		}
		term, _ := eb.Term.Decode()
		b.Term = term
		fn.Blocks = append(fn.Blocks, b)
	}
	c.Mod.Functions = append(c.Mod.Functions, fn)
	if t.LiveSafe {
		c.Facts.MarkLiveSafe(fn.ID())
	}
}

// callees returns the set of functions transitively called from fn.
func callees(m *spirv.Module, fn *spirv.Function) map[spirv.ID]bool {
	out := make(map[spirv.ID]bool)
	var visit func(f *spirv.Function)
	visit = func(f *spirv.Function) {
		for _, b := range f.Blocks {
			for _, ins := range b.Body {
				if ins.Op != spirv.OpFunctionCall {
					continue
				}
				callee := ins.IDOperand(0)
				if out[callee] {
					continue
				}
				out[callee] = true
				if cf := m.Function(callee); cf != nil {
					visit(cf)
				}
			}
		}
	}
	visit(fn)
	return out
}

// hasLoopTransitively reports whether fn or anything it calls contains a
// loop construct.
func hasLoopTransitively(m *spirv.Module, fn *spirv.Function) bool {
	check := func(f *spirv.Function) bool {
		for _, b := range f.Blocks {
			if b.Merge != nil && b.Merge.Op == spirv.OpLoopMerge {
				return true
			}
		}
		return false
	}
	if check(fn) {
		return true
	}
	for id := range callees(m, fn) {
		if cf := m.Function(id); cf != nil && check(cf) {
			return true
		}
	}
	return false
}

// insideLoop reports whether block lies inside some loop construct of fn:
// a loop header dominates it and the loop's merge block does not.
func insideLoop(fn *spirv.Function, block *spirv.Block) bool {
	g := cfa.Build(fn)
	dom := cfa.Dominators(g)
	bi := g.Index(block.Label)
	for hi, b := range fn.Blocks {
		if b.Merge == nil || b.Merge.Op != spirv.OpLoopMerge {
			continue
		}
		mergeBlk := g.Index(spirv.ID(b.Merge.Operands[0]))
		if dom.Dominates(hi, bi) && !dom.Dominates(mergeBlk, bi) {
			return true
		}
	}
	return false
}

// FunctionCall inserts a call. A LiveSafe function can be called from
// anywhere, as long as IrrelevantPointee pointers are passed for pointer
// parameters; a non-LiveSafe function can only be called from a dead block
// (Section 3.2). Recursion is never introduced.
type FunctionCall struct {
	Fresh  spirv.ID   `json:"fresh"`
	Callee spirv.ID   `json:"callee"`
	Args   []spirv.ID `json:"args,omitempty"`
	Block  spirv.ID   `json:"block"`
	Before spirv.ID   `json:"before,omitempty"`
}

// Type implements Transformation.
func (t *FunctionCall) Type() string { return TypeFunctionCall }

// Precondition as documented on the type.
func (t *FunctionCall) Precondition(c *Context) bool {
	if !c.IsFreshID(t.Fresh) {
		return false
	}
	callee := c.Mod.Function(t.Callee)
	if callee == nil {
		return false
	}
	pt := c.insertion(t.Block, t.Before)
	if pt == nil {
		return false
	}
	if !c.Facts.IsLiveSafe(t.Callee) && !c.Facts.IsDeadBlock(t.Block) {
		return false
	}
	// No recursion: the callee must not (transitively) call the caller, nor
	// be the caller itself.
	if t.Callee == pt.fn.ID() || callees(c.Mod, callee)[pt.fn.ID()] {
		return false
	}
	// Bound dynamic cost: a callee that (transitively) contains a loop may
	// not be called from inside a loop of the caller. Without this rule,
	// repeated call insertion nests bounded loops multiplicatively and the
	// variant's runtime explodes even though it terminates.
	if hasLoopTransitively(c.Mod, callee) && insideLoop(pt.fn, pt.block) {
		return false
	}
	_, params, ok := c.Mod.FunctionTypeInfo(callee.TypeID())
	if !ok || len(params) != len(t.Args) {
		return false
	}
	for i, arg := range t.Args {
		argType, ok := c.valueType(arg)
		if !ok || argType != params[i] {
			return false
		}
		if !c.AvailableAt(arg, pt.fn, pt.block, pt.index) {
			return false
		}
		if _, _, isPtr := c.Mod.PointerInfo(params[i]); isPtr {
			// Pointer arguments must be irrelevant-pointee (live-safe call)
			// or the call must sit in a dead block.
			if !c.Facts.IsIrrelevantPointee(arg) && !c.Facts.IsDeadBlock(t.Block) {
				return false
			}
		}
	}
	return true
}

// Apply inserts the call; a non-void result is marked Irrelevant because
// nothing meaningful consumes it.
func (t *FunctionCall) Apply(c *Context) {
	c.ClaimID(t.Fresh)
	pt := c.insertion(t.Block, t.Before)
	callee := c.Mod.Function(t.Callee)
	ops := []uint32{uint32(t.Callee)}
	for _, a := range t.Args {
		ops = append(ops, uint32(a))
	}
	InsertBefore(pt.block, pt.index, spirv.NewInstr(spirv.OpFunctionCall, callee.ReturnType(), t.Fresh, ops...))
	if c.Mod.TypeOp(callee.ReturnType()) != spirv.OpTypeVoid {
		c.Facts.MarkIrrelevant(t.Fresh)
	}
}

// InlineFunction replaces a call to a single-block function with the
// callee's body. The instance carries an explicit mapping from callee-
// internal ids to fresh ids, following the independence principle of
// Section 3.3: the mapping stays valid during reduction even when earlier
// transformations that changed the callee are removed.
type InlineFunction struct {
	Call  spirv.ID              `json:"call"`
	IDMap map[spirv.ID]spirv.ID `json:"idMap,omitempty"`
}

// Type implements Transformation.
func (t *InlineFunction) Type() string { return TypeInlineFunction }

// Precondition: the call exists, the callee has exactly one block ending in
// OpReturn/OpReturnValue, and the id map covers the callee's result ids with
// fresh, distinct targets.
func (t *InlineFunction) Precondition(c *Context) bool {
	loc := c.FindInstruction(t.Call)
	if loc == nil || loc.Index < 0 || loc.Instr.Op != spirv.OpFunctionCall {
		return false
	}
	callee := c.Mod.Function(loc.Instr.IDOperand(0))
	if callee == nil || len(callee.Blocks) != 1 {
		return false
	}
	body := callee.Blocks[0]
	if len(body.Phis) != 0 {
		return false
	}
	if body.Term.Op != spirv.OpReturn && body.Term.Op != spirv.OpReturnValue {
		return false
	}
	seen := make(map[spirv.ID]bool)
	for _, ins := range body.Body {
		if ins.Result == 0 {
			continue
		}
		fresh, ok := t.IDMap[ins.Result]
		if !ok || seen[fresh] || !c.IsFreshID(fresh) {
			return false
		}
		seen[fresh] = true
	}
	return true
}

// Apply splices the callee's instructions in place of the call.
func (t *InlineFunction) Apply(c *Context) {
	loc := c.FindInstruction(t.Call)
	callee := c.Mod.Function(loc.Instr.IDOperand(0))
	body := callee.Blocks[0]

	// Parameter ids map to the call's arguments; internal ids map through
	// IDMap; everything else is untouched.
	remap := make(map[spirv.ID]spirv.ID, len(callee.Params)+len(t.IDMap))
	for i, p := range callee.Params {
		remap[p.Result] = loc.Instr.IDOperand(i + 1)
	}
	for oldID, fresh := range t.IDMap {
		remap[oldID] = fresh
		c.ClaimID(fresh)
	}
	apply := func(id spirv.ID) spirv.ID {
		if n, ok := remap[id]; ok {
			return n
		}
		return id
	}

	spliced := make([]*spirv.Instruction, 0, len(body.Body)+1)
	for _, ins := range body.Body {
		cl := ins.Clone()
		cl.MapAllIDs(apply)
		spliced = append(spliced, cl)
	}
	if body.Term.Op == spirv.OpReturnValue {
		retVal := apply(body.Term.IDOperand(0))
		spliced = append(spliced,
			spirv.NewInstr(spirv.OpCopyObject, loc.Instr.Type, loc.Instr.Result, uint32(retVal)))
	}
	blk := loc.Block
	blk.Body = append(blk.Body[:loc.Index:loc.Index], append(spliced, blk.Body[loc.Index+1:]...)...)
}

// SetFunctionControl changes a function's control mask (None, Inline,
// DontInline). Semantically inert, but it steers real compilers' inlining
// decisions — the transformation behind the one-instruction SwiftShader
// delta of Figure 3.
type SetFunctionControl struct {
	Function spirv.ID `json:"function"`
	Control  uint32   `json:"control"`
}

// Type implements Transformation.
func (t *SetFunctionControl) Type() string { return TypeSetFunctionControl }

// Precondition: the function exists, the mask is a supported value and
// differs from the current one.
func (t *SetFunctionControl) Precondition(c *Context) bool {
	fn := c.Mod.Function(t.Function)
	if fn == nil || fn.Control() == t.Control {
		return false
	}
	switch t.Control {
	case spirv.FunctionControlNone, spirv.FunctionControlInline, spirv.FunctionControlDontInline:
		return true
	}
	return false
}

// Apply sets the mask.
func (t *SetFunctionControl) Apply(c *Context) {
	c.Mod.Function(t.Function).SetControl(t.Control)
}

// AddParameter appends a parameter to a non-entry function and supplies a
// value at every call site. The values provided do not matter — the callee
// never reads the fresh parameter — so the parameter id gets an Irrelevant
// fact, enabling later ReplaceIrrelevantId enrichment (Section 3.3).
type AddParameter struct {
	Function   spirv.ID              `json:"function"`
	FreshParam spirv.ID              `json:"freshParam"`
	ParamType  spirv.ID              `json:"paramType"`
	NewFnType  spirv.ID              `json:"newFnType"`
	CallArgs   map[spirv.ID]spirv.ID `json:"callArgs,omitempty"` // call result id → argument id
}

// Type implements Transformation.
func (t *AddParameter) Type() string { return TypeAddParameter }

// Precondition: non-entry function; fresh param id; NewFnType is an existing
// function type equal to the old signature plus ParamType; every call site
// has a matching available argument.
func (t *AddParameter) Precondition(c *Context) bool {
	fn := c.Mod.Function(t.Function)
	if fn == nil || c.EntryPointIDs()[t.Function] || !c.IsFreshID(t.FreshParam) {
		return false
	}
	if _, _, isPtr := c.Mod.PointerInfo(t.ParamType); isPtr {
		return false // pointer parameters would need IrrelevantPointee plumbing
	}
	oldRet, oldParams, ok := c.Mod.FunctionTypeInfo(fn.TypeID())
	if !ok {
		return false
	}
	newRet, newParams, ok := c.Mod.FunctionTypeInfo(t.NewFnType)
	if !ok || newRet != oldRet || len(newParams) != len(oldParams)+1 {
		return false
	}
	for i, p := range oldParams {
		if newParams[i] != p {
			return false
		}
	}
	if newParams[len(oldParams)] != t.ParamType {
		return false
	}
	// Every call site must be covered with an available argument.
	for _, cf := range c.Mod.Functions {
		for _, b := range cf.Blocks {
			for i, ins := range b.Body {
				if ins.Op != spirv.OpFunctionCall || ins.IDOperand(0) != t.Function {
					continue
				}
				arg, ok := t.CallArgs[ins.Result]
				if !ok {
					return false
				}
				argType, ok := c.valueType(arg)
				if !ok || argType != t.ParamType {
					return false
				}
				if !c.AvailableAt(arg, cf, b, i) {
					return false
				}
			}
		}
	}
	return true
}

// Apply appends the parameter, retypes the function, extends the calls and
// records the Irrelevant fact.
func (t *AddParameter) Apply(c *Context) {
	c.ClaimID(t.FreshParam)
	fn := c.Mod.Function(t.Function)
	fn.Params = append(fn.Params, spirv.NewInstr(spirv.OpFunctionParameter, t.ParamType, t.FreshParam))
	fn.Def.Operands[1] = uint32(t.NewFnType)
	for _, cf := range c.Mod.Functions {
		for _, b := range cf.Blocks {
			for _, ins := range b.Body {
				if ins.Op == spirv.OpFunctionCall && ins.IDOperand(0) == t.Function {
					ins.Operands = append(ins.Operands, uint32(t.CallArgs[ins.Result]))
				}
			}
		}
	}
	c.Facts.MarkIrrelevant(t.FreshParam)
}

// PropagateInstructionUp moves the first body instruction of a block into
// each of its predecessors, selecting between the copies with a fresh ϕ that
// reuses the original result id. Operands that are ϕs of the same block are
// rewritten to the per-predecessor incoming value — exactly the Figure 8a
// rewrite that exposed the Mesa last-loop-iteration bug.
type PropagateInstructionUp struct {
	Instr    spirv.ID              `json:"instr"`
	FreshIDs map[spirv.ID]spirv.ID `json:"freshIds"` // predecessor label → fresh id
}

// Type implements Transformation.
func (t *PropagateInstructionUp) Type() string { return TypePropagateInstructionUp }

// movable reports whether the opcode may be recomputed at the end of each
// predecessor: pure value instructions plus OpLoad (nothing executes between
// a predecessor's terminator and the block's first body instruction).
func movable(op spirv.Opcode) bool {
	switch op {
	case spirv.OpStore, spirv.OpFunctionCall, spirv.OpVariable, spirv.OpAccessChain, spirv.OpPhi:
		return false
	}
	sig, ok := spirv.Sig(op)
	return ok && sig.HasResult && sig.HasType && !op.IsConstant() && op != spirv.OpUndef && op != spirv.OpFunctionParameter && op != spirv.OpFunction
}

// Precondition as documented on the type; every operand must be available at
// the end of every predecessor (after per-predecessor ϕ substitution).
func (t *PropagateInstructionUp) Precondition(c *Context) bool {
	loc := c.FindInstruction(t.Instr)
	if loc == nil || loc.Index != 0 || !movable(loc.Instr.Op) {
		return false
	}
	preds := predLabels(loc.Fn, loc.Block)
	if len(preds) == 0 {
		return false
	}
	seen := make(map[spirv.ID]bool)
	for _, p := range preds {
		fresh, ok := t.FreshIDs[p]
		if !ok || seen[fresh] || !c.IsFreshID(fresh) {
			return false
		}
		seen[fresh] = true
	}
	phiValueFor := func(id spirv.ID, pred spirv.ID) (spirv.ID, bool) {
		for _, phi := range loc.Block.Phis {
			if phi.Result != id {
				continue
			}
			for i := 0; i+1 < len(phi.Operands); i += 2 {
				if spirv.ID(phi.Operands[i+1]) == pred {
					return spirv.ID(phi.Operands[i]), true
				}
			}
			return 0, false
		}
		return id, true // not a ϕ of this block: used as-is
	}
	info := cfa.Analyze(c.Mod, loc.Fn)
	for _, p := range preds {
		pb := loc.Fn.Block(p)
		if pb == nil {
			return false
		}
		endPos := len(pb.Phis) + len(pb.Body)
		ok := true
		loc.Instr.Uses(func(id spirv.ID) {
			if !ok || id == loc.Instr.Type {
				return
			}
			v, found := phiValueFor(id, p)
			if !found {
				ok = false
				return
			}
			if !info.AvailableAt(v, p, endPos) {
				ok = false
			}
		})
		if !ok {
			return false
		}
	}
	return true
}

// Apply performs the propagation.
func (t *PropagateInstructionUp) Apply(c *Context) {
	loc := c.FindInstruction(t.Instr)
	preds := predLabels(loc.Fn, loc.Block)
	phiValueFor := func(id spirv.ID, pred spirv.ID) spirv.ID {
		for _, phi := range loc.Block.Phis {
			if phi.Result != id {
				continue
			}
			for i := 0; i+1 < len(phi.Operands); i += 2 {
				if spirv.ID(phi.Operands[i+1]) == pred {
					return spirv.ID(phi.Operands[i])
				}
			}
		}
		return id
	}
	var phiOps []uint32
	for _, p := range preds {
		fresh := t.FreshIDs[p]
		c.ClaimID(fresh)
		pb := loc.Fn.Block(p)
		cl := loc.Instr.Clone()
		cl.Result = fresh
		cl.MapUses(func(id spirv.ID) spirv.ID {
			if id == cl.Type {
				return id
			}
			return phiValueFor(id, p)
		})
		pb.Body = append(pb.Body, cl)
		phiOps = append(phiOps, uint32(fresh), uint32(p))
	}
	RemoveBodyAt(loc.Block, 0)
	loc.Block.Phis = append(loc.Block.Phis,
		spirv.NewInstr(spirv.OpPhi, loc.Instr.Type, loc.Instr.Result, phiOps...))
}

// predLabels returns the labels of b's predecessors in block order, each
// once. Predecessor lists are in block order, so the duplicates a block
// branching twice to b leaves are adjacent.
func predLabels(fn *spirv.Function, b *spirv.Block) []spirv.ID {
	g := cfa.Build(fn)
	var labels []spirv.ID
	prev := int32(-1)
	for _, p := range g.Preds(g.Index(b.Label)) {
		if p != prev {
			labels = append(labels, fn.Blocks[p].Label)
			prev = p
		}
	}
	return labels
}

func init() {
	register(TypeAddFunction, func() Transformation { return &AddFunction{} })
	register(TypeFunctionCall, func() Transformation { return &FunctionCall{} })
	register(TypeInlineFunction, func() Transformation { return &InlineFunction{} })
	register(TypeSetFunctionControl, func() Transformation { return &SetFunctionControl{} })
	register(TypeAddParameter, func() Transformation { return &AddParameter{} })
	register(TypePropagateInstructionUp, func() Transformation { return &PropagateInstructionUp{} })
}
