package interp

import (
	"math"

	"spirvfuzz/internal/spirv"
)

// This file is the plan compiler: it lowers a module once into a flat
// register-based Program so that executing a pixel costs zero map
// operations. Lowering performs, ahead of time, all the work the
// tree-walker repeats per instruction per pixel:
//
//   - every function gets a dense slot numbering for its SSA results, so a
//     frame is a []Value slice instead of a map[spirv.ID]Value;
//   - every operand is pre-resolved to a slot ref (>= 0) or a fixed-pool
//     ref (< 0) covering module-level constants and global pointers;
//   - every instruction is dispatched on a compact internal opcode (pop),
//     with the scalar semantics taken from the same binOps/unOps tables the
//     tree-walker uses, so the engines cannot drift;
//   - ϕ nodes become per-CFG-edge parallel-move lists, OpSwitch becomes a
//     prebuilt jump table, and statically-detectable errors (unsupported
//     ops, missing callees, missing blocks, missing ϕ inputs) become
//     instructions that fault only when executed — dead broken code stays
//     dead, exactly as in the tree-walker.
//
// Compile itself fails only for errors the tree-walker reports before
// executing any pixel (module-level constant/global errors, no entry point,
// no output variable), in the same order, with the same messages.

// refNone marks an absent operand ref (e.g. an OpVariable without an
// initializer, or the dst of an instruction that writes no result).
const refNone int32 = math.MinInt32

// pop is the VM's compact internal opcode.
type pop uint8

const (
	popFault       pop = iota // always faults with a precomputed error
	popBin                    // dst = mapLanes2(a, b, bin)
	popUn                     // dst = mapLanes1(a, un)
	popSelect                 // dst = selectValue(a, b, c)
	popVecScalar              // dst = vectorTimesScalar(a, b)
	popMatVec                 // dst = matrixTimesVector(a, b)
	popDot                    // dst = dot(a, b)
	popConstruct              // dst = Composite(args...)
	popExtract                // dst = compositeExtract(a, lits)
	popInsert                 // dst = compositeInsert(a, b, lits)
	popShuffle                // dst = vectorShuffle(a, b, lits)
	popCopy                   // dst = a
	popZero                   // dst = zero.Clone() (OpUndef)
	popVariable               // dst = pointer to frame cell `cell`, or a fresh one if < 0 (init a or zero)
	popLoad                   // dst = *a
	popStore                  // *a = b
	popAccessChain            // dst = a narrowed by args indices
	popCall                   // dst = funcs[callee](args...)
	popNop                    // costs a step, does nothing
)

// pinstr is one lowered instruction: pre-resolved operand refs, shared
// semantic function values, and precomputed faults. A ref >= 0 indexes the
// frame's slot slice; a negative ref r (other than refNone) indexes the
// machine's fixed pool at -r-1.
type pinstr struct {
	op      pop
	fclass  fastClass // popBin: operand class for the closure-free fast path
	dst     int32
	a, b, c int32
	cell    int32    // popVariable: index into the frame's cells, or -1 for a fresh cell
	args    []int32  // construct elements / call arguments / chain indices
	lits    []uint32 // extract/insert paths, shuffle selectors
	bin     func(Value, Value) (Value, error)
	un      func(Value) (Value, error)
	binF    func(float32, float32) float32 // fcFloat primitive
	binI    func(uint32, uint32) uint32    // fcInt primitive
	cmpF    func(float32, float32) bool    // fcFloatCmp primitive
	cmpI    func(uint32, uint32) bool      // fcIntCmp primitive
	zero    Value                          // prototype for popZero and uninitialised popVariable
	callee  int32                          // popCall: index into Program.funcs
	fault   error                          // popFault
	msgID   spirv.ID                       // operand id quoted by pointer-op fault messages
}

// fastClass selects a VM fast path for popBin when the runtime operand kinds
// match the primitive's class; any other shape falls back to the boxed
// semantic function, which produces the canonical faults.
type fastClass uint8

const (
	fcNone fastClass = iota
	fcInt
	fcFloat
	fcIntCmp
	fcFloatCmp
)

// pmove is one ϕ parallel move staged on block entry; a non-nil fault
// reproduces the tree-walker's missing-incoming-value fault at the same
// stage position.
type pmove struct {
	dst   int32
	src   int32
	fault error
}

// pedge is one CFG edge: the target block plus the ϕ moves the transition
// performs. A non-nil fault is a branch to a missing block.
type pedge struct {
	target int32
	fault  error
	moves  []pmove
}

type ptermKind uint8

const (
	tkFault ptermKind = iota // terminator faults (OpUnreachable, invalid)
	tkBranch
	tkCondBr
	tkSwitch
	tkReturn
	tkReturnValue
	tkKill
)

// pterm is a lowered block terminator.
type pterm struct {
	kind  ptermKind
	sel   int32            // condition / switch selector ref
	ret   int32            // OpReturnValue ref
	edges []pedge          // branch: [then]; cond: [then, else]; switch: [default, cases...]
	jump  map[uint32]int32 // switch literal -> edge index
	label spirv.ID         // for fault messages
	fault error            // tkFault
}

// pblock is one lowered basic block: a contiguous instruction array plus
// the terminator.
type pblock struct {
	label spirv.ID
	code  []pinstr
	term  pterm
}

// pfunc is one lowered function. Its slots are numbered parameters first,
// then every result in block order, then ids defined nowhere, which are
// never written; a recycled frame clears [clearFrom, ndefs), the slots an
// activation may read before writing them (parameters are written by the
// call; results of the entry block, which runs whole before any other
// block, are written before any later read unless a read precedes its def
// within the entry block itself).
type pfunc struct {
	id            spirv.ID
	nparams       int
	paramSlots    []int32
	nslots        int
	ndefs         int
	clearFrom     int
	ncells        int        // frame cells: the entry block's OpVariables, or 0
	slotIDs       []spirv.ID // slot -> SSA id, for fault messages
	fallback      []int32    // slot -> fixed ref if the id is also module-level
	blocks        []pblock
	entryPhiFault error // ϕ in the entry block faults on first entry
	noBlocks      error // function body is empty
}

// globalSlot is one module-level variable; init is the prototype each
// machine clones into its own cell.
type globalSlot struct {
	id   spirv.ID
	init Value
}

// uniformSlot binds a uniform-storage global to its OpName debug name, the
// key Inputs.Uniforms uses.
type uniformSlot struct {
	global int32
	name   string
}

// Program is a module lowered for the register VM: flat functions over slot
// frames, a fixed pool of pre-decoded constants and global pointers, and
// the render plumbing (coordinate input, color output, output zero)
// resolved once. A Program is immutable and safe for concurrent use; each
// rendering goroutine instantiates its own machine over it.
type Program struct {
	fixedProto  []Value // constants verbatim; global entries are placeholders
	fixedGlobal []int32 // fixedGlobal[i] >= 0: pool entry i is that global's pointer
	globals     []globalSlot
	uniforms    []uniformSlot
	funcs       []pfunc
	entry       int32
	coord       int32 // globals index of the coordinate Input, or -1
	color       int32 // globals index of the color Output
	colorZero   Value
}

type planner struct {
	m       *spirv.Module
	prog    *Program
	refs    map[spirv.ID]int32 // module-level id -> fixed ref (negative)
	fnIndex map[spirv.ID]int32
	consts  map[spirv.ID]Value
	globals map[spirv.ID]int32
}

// Compile lowers a module into a Program. It fails exactly when (and how)
// RenderTree would fail before executing the first pixel; all other errors
// are lowered into the instruction stream and surface only if executed.
func Compile(m *spirv.Module) (*Program, error) {
	entry := m.EntryPointFunction()
	if entry == nil {
		return nil, faultf("module has no entry point")
	}
	// Size the module-level tables from the module's counts: growing them
	// by appends was most of what Compile allocated.
	var nconsts, nvars int
	for _, ins := range m.TypesGlobals {
		switch ins.Op {
		case spirv.OpConstantTrue, spirv.OpConstantFalse, spirv.OpConstant,
			spirv.OpConstantComposite, spirv.OpConstantNull, spirv.OpUndef:
			nconsts++
		case spirv.OpVariable:
			nvars++
		}
	}
	p := &planner{
		m: m,
		prog: &Program{
			coord: -1, color: -1,
			fixedProto:  make([]Value, 0, nconsts+nvars),
			fixedGlobal: make([]int32, 0, nconsts+nvars),
			globals:     make([]globalSlot, 0, nvars),
		},
		refs:    make(map[spirv.ID]int32, nconsts+nvars),
		fnIndex: make(map[spirv.ID]int32, len(m.Functions)),
		consts:  make(map[spirv.ID]Value, nconsts),
		globals: make(map[spirv.ID]int32, nvars),
	}
	names := make(map[spirv.ID]string, len(m.Names))
	for _, n := range m.Names {
		if n.Op == spirv.OpName {
			s, _ := spirv.DecodeString(n.Operands[1:])
			names[spirv.ID(n.Operands[0])] = s
		}
	}

	// Module-level pass: pre-decode constants and globals into the fixed
	// pool, mirroring newMachine's errors and their order.
	for _, ins := range m.TypesGlobals {
		switch ins.Op {
		case spirv.OpConstantTrue:
			p.addConst(ins.Result, BoolVal(true))
		case spirv.OpConstantFalse:
			p.addConst(ins.Result, BoolVal(false))
		case spirv.OpConstant:
			if m.IsFloatType(ins.Type) {
				p.addConst(ins.Result, FloatVal(math.Float32frombits(ins.Operands[0])))
			} else {
				p.addConst(ins.Result, UintVal(ins.Operands[0]))
			}
		case spirv.OpConstantComposite:
			elems := make([]Value, len(ins.Operands))
			for i, w := range ins.Operands {
				v, ok := p.consts[spirv.ID(w)]
				if !ok {
					return nil, faultf("constant composite %%%d uses non-constant %%%d", ins.Result, w)
				}
				elems[i] = v
			}
			p.addConst(ins.Result, Composite(elems...))
		case spirv.OpConstantNull, spirv.OpUndef:
			z, err := ZeroValue(m, ins.Type)
			if err != nil {
				return nil, err
			}
			p.addConst(ins.Result, z)
		case spirv.OpVariable:
			_, pointee, ok := m.PointerInfo(ins.Type)
			if !ok {
				return nil, faultf("global %%%d has non-pointer type", ins.Result)
			}
			var init Value
			if len(ins.Operands) > 1 {
				iv, ok := p.consts[spirv.ID(ins.Operands[1])]
				if !ok {
					return nil, faultf("global %%%d initializer is not a constant", ins.Result)
				}
				init = iv.Clone()
			} else {
				z, err := ZeroValue(m, pointee)
				if err != nil {
					return nil, err
				}
				init = z
			}
			g := int32(len(p.prog.globals))
			p.prog.globals = append(p.prog.globals, globalSlot{id: ins.Result, init: init})
			p.globals[ins.Result] = g
			p.addFixed(ins.Result, Value{}, g)
		}
	}

	// Locate the coordinate input and color output, as RenderTree does.
	var coordVar, colorVar spirv.ID
	for _, ins := range m.TypesGlobals {
		if ins.Op != spirv.OpVariable {
			continue
		}
		switch ins.Operands[0] {
		case spirv.StorageInput:
			if coordVar == 0 {
				coordVar = ins.Result
			}
		case spirv.StorageOutput:
			if colorVar == 0 {
				colorVar = ins.Result
			}
		}
	}
	if colorVar == 0 {
		return nil, faultf("module has no Output variable")
	}
	colorZero, err := ZeroValue(m, mustPointee(m, colorVar))
	if err != nil {
		return nil, err
	}
	p.prog.colorZero = colorZero
	p.prog.color = p.globals[colorVar]
	if coordVar != 0 {
		p.prog.coord = p.globals[coordVar]
	}

	// Uniform bindings, in TypesGlobals order like setUniforms.
	for _, ins := range m.TypesGlobals {
		if ins.Op != spirv.OpVariable {
			continue
		}
		if sc := ins.Operands[0]; sc != spirv.StorageUniformConstant && sc != spirv.StorageUniform {
			continue
		}
		p.prog.uniforms = append(p.prog.uniforms, uniformSlot{global: p.globals[ins.Result], name: names[ins.Result]})
	}

	// Functions: first-wins index (the Module.Function lookup rule), then
	// lower each body.
	for i := range m.Functions {
		if _, ok := p.fnIndex[m.Functions[i].ID()]; !ok {
			p.fnIndex[m.Functions[i].ID()] = int32(i)
		}
	}
	p.prog.funcs = make([]pfunc, len(m.Functions))
	for i, fn := range m.Functions {
		p.prog.funcs[i] = p.compileFunc(fn)
	}
	p.prog.entry = p.fnIndex[entry.ID()]
	for i, fn := range m.Functions {
		if fn == entry {
			p.prog.entry = int32(i)
			break
		}
	}
	return p.prog, nil
}

func (p *planner) addConst(id spirv.ID, v Value) {
	p.consts[id] = v
	p.addFixed(id, v, -1)
}

func (p *planner) addFixed(id spirv.ID, v Value, global int32) {
	p.refs[id] = -int32(len(p.prog.fixedProto)) - 1
	p.prog.fixedProto = append(p.prog.fixedProto, v)
	p.prog.fixedGlobal = append(p.prog.fixedGlobal, global)
}

// fctx is the per-function slot-numbering state. While the entry block's
// body is lowered (inEntry), its results below written are known written;
// a read of one at or past it, below entryEnd, lowers pf.clearFrom.
type fctx struct {
	p        *planner
	pf       *pfunc
	slots    map[spirv.ID]int32
	inEntry  bool
	written  int32
	entryEnd int32
}

func (fx *fctx) addSlot(id spirv.ID) int32 {
	if s, ok := fx.slots[id]; ok {
		return s
	}
	s := int32(len(fx.pf.slotIDs))
	fx.slots[id] = s
	fx.pf.slotIDs = append(fx.pf.slotIDs, id)
	return s
}

// ref resolves an operand id. Frame slots shadow the module environment,
// like the tree-walker's frame-then-consts-then-globals lookup; a slot that
// is unset at runtime falls back through pfunc.fallback. Ids known nowhere
// get a fresh never-written slot, so reading them faults with the
// tree-walker's message at the tree-walker's point in evaluation order.
func (fx *fctx) ref(id spirv.ID) int32 {
	if s, ok := fx.slots[id]; ok {
		if fx.inEntry && s >= fx.written && s < fx.entryEnd {
			fx.pf.clearFrom = min(fx.pf.clearFrom, int(s))
		}
		return s
	}
	if r, ok := fx.p.refs[id]; ok {
		return r
	}
	return fx.addSlot(id)
}

func (fx *fctx) operand(ins *spirv.Instruction, i int) int32 {
	return fx.ref(ins.IDOperand(i))
}

// writesResult reports whether the tree-walker's evalInstr would store a
// frame value for this instruction (so its Result needs a slot).
func (p *planner) writesResult(ins *spirv.Instruction) bool {
	if _, ok := binOps[ins.Op]; ok {
		return true
	}
	if _, ok := unOps[ins.Op]; ok {
		return true
	}
	switch ins.Op {
	case spirv.OpSelect, spirv.OpBitcast, spirv.OpVectorTimesScalar,
		spirv.OpMatrixTimesVector, spirv.OpDot, spirv.OpCompositeConstruct,
		spirv.OpCompositeExtract, spirv.OpCompositeInsert, spirv.OpVectorShuffle,
		spirv.OpCopyObject, spirv.OpUndef, spirv.OpVariable, spirv.OpLoad,
		spirv.OpAccessChain:
		return true
	case spirv.OpFunctionCall:
		return p.m.TypeOp(ins.Type) != spirv.OpTypeVoid
	}
	return false
}

func (p *planner) compileFunc(fn *spirv.Function) pfunc {
	ndefs := len(fn.Params)
	for _, b := range fn.Blocks {
		ndefs += len(b.Phis) + len(b.Body)
	}
	pf := pfunc{id: fn.ID(), nparams: len(fn.Params), slotIDs: make([]spirv.ID, 0, ndefs)}
	fx := &fctx{p: p, pf: &pf, slots: make(map[spirv.ID]int32, ndefs)}
	pf.paramSlots = make([]int32, len(fn.Params))
	for i, prm := range fn.Params {
		pf.paramSlots[i] = fx.addSlot(prm.Result)
	}
	fx.written = int32(len(pf.slotIDs))
	for i, b := range fn.Blocks {
		for _, phi := range b.Phis {
			fx.addSlot(phi.Result)
		}
		for _, ins := range b.Body {
			if p.writesResult(ins) {
				fx.addSlot(ins.Result)
			}
		}
		if i == 0 {
			fx.entryEnd = int32(len(pf.slotIDs))
		}
	}
	pf.ndefs = len(pf.slotIDs)
	pf.clearFrom = int(fx.entryEnd)
	if len(fn.Blocks) == 0 {
		pf.noBlocks = faultf("function %%%d has no blocks", fn.ID())
	} else {
		blockIdx := make(map[spirv.ID]int32, len(fn.Blocks))
		for i, b := range fn.Blocks {
			if _, ok := blockIdx[b.Label]; !ok {
				blockIdx[b.Label] = int32(i)
			}
		}
		pf.blocks = make([]pblock, len(fn.Blocks))
		for i, b := range fn.Blocks {
			pf.blocks[i] = pblock{label: b.Label}
			pf.blocks[i].code = make([]pinstr, len(b.Body))
			fx.inEntry = i == 0
			for j, ins := range b.Body {
				pf.blocks[i].code[j] = p.lowerInstr(fx, ins)
			}
			fx.inEntry = false
			pf.blocks[i].term = p.lowerTerm(fx, fn, blockIdx, b)
		}
		if len(fn.Blocks[0].Phis) > 0 {
			pf.entryPhiFault = faultf("ϕ in entry block %%%d", fn.Blocks[0].Label)
		}
		if pf.ncells > 0 && reentersEntry(pf.blocks) {
			// The entry block's OpVariables can run twice in one
			// activation, and each run needs a fresh cell: the first
			// one's pointer may still be live.
			for i := range pf.blocks[0].code {
				pf.blocks[0].code[i].cell = -1
			}
			pf.ncells = 0
		}
	}
	pf.nslots = len(pf.slotIDs)
	pf.fallback = make([]int32, pf.nslots)
	for s, id := range pf.slotIDs {
		if r, ok := p.refs[id]; ok {
			pf.fallback[s] = r
		} else {
			pf.fallback[s] = refNone
		}
	}
	return pf
}

// reentersEntry reports whether any edge branches back to the entry block.
func reentersEntry(blocks []pblock) bool {
	for i := range blocks {
		for _, e := range blocks[i].term.edges {
			if e.fault == nil && e.target == 0 {
				return true
			}
		}
	}
	return false
}

// lowerInstr lowers one body instruction 1:1 (every source instruction
// costs exactly one VM instruction and one step, keeping step budgets
// identical to the tree-walker's).
func (p *planner) lowerInstr(fx *fctx, ins *spirv.Instruction) pinstr {
	dst := refNone
	if p.writesResult(ins) {
		dst = fx.slots[ins.Result]
	}
	pi := p.lowerOp(fx, ins, dst)
	if fx.inEntry && dst == fx.written {
		fx.written++
	}
	return pi
}

// lowerOp lowers ins, whose result (if it writes one) goes to slot dst.
func (p *planner) lowerOp(fx *fctx, ins *spirv.Instruction, dst int32) pinstr {
	if f, ok := binOps[ins.Op]; ok {
		pi := pinstr{op: popBin, dst: dst, a: fx.operand(ins, 0), b: fx.operand(ins, 1), bin: f}
		switch {
		case binFloatPrims[ins.Op] != nil:
			pi.fclass, pi.binF = fcFloat, binFloatPrims[ins.Op]
		case binIntPrims[ins.Op] != nil:
			pi.fclass, pi.binI = fcInt, binIntPrims[ins.Op]
		case binFloatCmpPrims[ins.Op] != nil:
			pi.fclass, pi.cmpF = fcFloatCmp, binFloatCmpPrims[ins.Op]
		case binIntCmpPrims[ins.Op] != nil:
			pi.fclass, pi.cmpI = fcIntCmp, binIntCmpPrims[ins.Op]
		}
		return pi
	}
	if f, ok := unOps[ins.Op]; ok {
		return pinstr{op: popUn, dst: dst, a: fx.operand(ins, 0), un: f}
	}
	switch ins.Op {
	case spirv.OpSelect:
		return pinstr{op: popSelect, dst: dst, a: fx.operand(ins, 0), b: fx.operand(ins, 1), c: fx.operand(ins, 2)}
	case spirv.OpBitcast:
		return pinstr{op: popUn, dst: dst, a: fx.operand(ins, 0), un: bitcastFn(p.m, ins.Type)}
	case spirv.OpVectorTimesScalar:
		return pinstr{op: popVecScalar, dst: dst, a: fx.operand(ins, 0), b: fx.operand(ins, 1)}
	case spirv.OpMatrixTimesVector:
		return pinstr{op: popMatVec, dst: dst, a: fx.operand(ins, 0), b: fx.operand(ins, 1)}
	case spirv.OpDot:
		return pinstr{op: popDot, dst: dst, a: fx.operand(ins, 0), b: fx.operand(ins, 1)}
	case spirv.OpCompositeConstruct:
		args := make([]int32, len(ins.Operands))
		for i := range ins.Operands {
			args[i] = fx.operand(ins, i)
		}
		return pinstr{op: popConstruct, dst: dst, args: args}
	case spirv.OpCompositeExtract:
		return pinstr{op: popExtract, dst: dst, a: fx.operand(ins, 0), lits: ins.Operands[1:]}
	case spirv.OpCompositeInsert:
		return pinstr{op: popInsert, dst: dst, a: fx.operand(ins, 0), b: fx.operand(ins, 1), lits: ins.Operands[2:]}
	case spirv.OpVectorShuffle:
		return pinstr{op: popShuffle, dst: dst, a: fx.operand(ins, 0), b: fx.operand(ins, 1), lits: ins.Operands[2:]}
	case spirv.OpCopyObject:
		return pinstr{op: popCopy, dst: dst, a: fx.operand(ins, 0)}
	case spirv.OpUndef:
		z, err := ZeroValue(p.m, ins.Type)
		if err != nil {
			return pinstr{op: popFault, fault: err}
		}
		return pinstr{op: popZero, dst: dst, zero: z}
	case spirv.OpVariable:
		_, pointee, ok := p.m.PointerInfo(ins.Type)
		if !ok {
			return pinstr{op: popFault, fault: faultf("OpVariable %%%d with non-pointer type", ins.Result)}
		}
		pi := pinstr{op: popVariable, dst: dst, a: refNone, cell: -1}
		if len(ins.Operands) > 1 {
			pi.a = fx.operand(ins, 1)
		} else {
			z, err := ZeroValue(p.m, pointee)
			if err != nil {
				return pinstr{op: popFault, fault: err}
			}
			pi.zero = z
		}
		if fx.inEntry {
			// It runs once per activation (unless the entry block is
			// branched back to, see compileFunc): a frame cell will do.
			pi.cell = int32(fx.pf.ncells)
			fx.pf.ncells++
		}
		return pi
	case spirv.OpLoad:
		return pinstr{op: popLoad, dst: dst, a: fx.operand(ins, 0), msgID: ins.IDOperand(0)}
	case spirv.OpStore:
		return pinstr{op: popStore, a: fx.operand(ins, 0), b: fx.operand(ins, 1), msgID: ins.IDOperand(0)}
	case spirv.OpAccessChain:
		args := make([]int32, len(ins.Operands)-1)
		base := fx.operand(ins, 0)
		for i := 1; i < len(ins.Operands); i++ {
			args[i-1] = fx.operand(ins, i)
		}
		return pinstr{op: popAccessChain, dst: dst, a: base, args: args, msgID: ins.IDOperand(0)}
	case spirv.OpFunctionCall:
		calleeID := ins.IDOperand(0)
		fi, ok := p.fnIndex[calleeID]
		if !ok {
			return pinstr{op: popFault, fault: faultf("call to missing function %%%d", calleeID)}
		}
		args := make([]int32, len(ins.Operands)-1)
		for i := 1; i < len(ins.Operands); i++ {
			args[i-1] = fx.operand(ins, i)
		}
		return pinstr{op: popCall, dst: dst, callee: fi, args: args}
	case spirv.OpNop:
		return pinstr{op: popNop}
	}
	return pinstr{op: popFault, fault: faultf("unsupported instruction %s", ins.Op)}
}

func (p *planner) lowerTerm(fx *fctx, fn *spirv.Function, blockIdx map[spirv.ID]int32, b *spirv.Block) pterm {
	term := b.Term
	if term == nil {
		return pterm{kind: tkFault, fault: faultf("block %%%d has no valid terminator", b.Label)}
	}
	switch term.Op {
	case spirv.OpBranch:
		return pterm{kind: tkBranch, edges: []pedge{p.lowerEdge(fx, fn, blockIdx, b, term.IDOperand(0))}}
	case spirv.OpBranchConditional:
		return pterm{kind: tkCondBr, sel: fx.ref(term.IDOperand(0)), label: b.Label, edges: []pedge{
			p.lowerEdge(fx, fn, blockIdx, b, term.IDOperand(1)),
			p.lowerEdge(fx, fn, blockIdx, b, term.IDOperand(2)),
		}}
	case spirv.OpSwitch:
		t := pterm{kind: tkSwitch, sel: fx.ref(term.IDOperand(0)), label: b.Label, jump: make(map[uint32]int32)}
		t.edges = append(t.edges, p.lowerEdge(fx, fn, blockIdx, b, term.IDOperand(1)))
		for i := 2; i+1 < len(term.Operands); i += 2 {
			lit := term.Operands[i]
			if _, ok := t.jump[lit]; ok {
				continue // first matching literal wins, like the linear scan
			}
			t.jump[lit] = int32(len(t.edges))
			t.edges = append(t.edges, p.lowerEdge(fx, fn, blockIdx, b, spirv.ID(term.Operands[i+1])))
		}
		return t
	case spirv.OpReturn:
		return pterm{kind: tkReturn}
	case spirv.OpReturnValue:
		return pterm{kind: tkReturnValue, ret: fx.ref(term.IDOperand(0))}
	case spirv.OpKill:
		return pterm{kind: tkKill}
	case spirv.OpUnreachable:
		return pterm{kind: tkFault, fault: faultf("reached OpUnreachable in block %%%d", b.Label)}
	}
	return pterm{kind: tkFault, fault: faultf("block %%%d has no valid terminator", b.Label)}
}

// lowerEdge precomputes the ϕ parallel-move list for the from→to CFG edge.
func (p *planner) lowerEdge(fx *fctx, fn *spirv.Function, blockIdx map[spirv.ID]int32, from *spirv.Block, to spirv.ID) pedge {
	ti, ok := blockIdx[to]
	if !ok {
		return pedge{fault: faultf("branch to missing block %%%d", to)}
	}
	e := pedge{target: ti}
	for _, phi := range fn.Blocks[ti].Phis {
		found := false
		for j := 0; j+1 < len(phi.Operands); j += 2 {
			if spirv.ID(phi.Operands[j+1]) == from.Label {
				e.moves = append(e.moves, pmove{dst: fx.slots[phi.Result], src: fx.ref(spirv.ID(phi.Operands[j]))})
				found = true
				break
			}
		}
		if !found {
			// Stage faults stop the ϕ read loop, so no later move runs.
			e.moves = append(e.moves, pmove{fault: faultf("ϕ %%%d has no incoming value for predecessor %%%d", phi.Result, from.Label)})
			break
		}
	}
	return e
}
