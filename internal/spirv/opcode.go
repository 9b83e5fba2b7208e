// Package spirv implements a faithful subset of the SPIR-V intermediate
// representation (Khronos SPIR-V specification, unified 1.x): modules of
// types, constants and global variables followed by functions made of basic
// blocks in SSA form, together with the binary word encoding, ID management
// and structural helpers that the fuzzer, reducer, optimizer and interpreter
// build on.
//
// The subset covers the instructions exercised by the transformations of the
// paper: scalar/vector/matrix/struct/array/pointer types, constants,
// arithmetic, logical and comparison instructions, composites, memory access
// through pointers, structured control flow (selection and loop merges, ϕ
// instructions, OpKill) and function definition/call/inlining machinery.
package spirv

import "fmt"

// Opcode is a SPIR-V instruction opcode. Values match the SPIR-V
// specification so that encoded binaries use real opcode numbers.
type Opcode uint16

// The supported opcodes.
const (
	OpNop                  Opcode = 0
	OpUndef                Opcode = 1
	OpName                 Opcode = 5
	OpMemberName           Opcode = 6
	OpMemoryModel          Opcode = 14
	OpEntryPoint           Opcode = 15
	OpExecutionMode        Opcode = 16
	OpCapability           Opcode = 17
	OpTypeVoid             Opcode = 19
	OpTypeBool             Opcode = 20
	OpTypeInt              Opcode = 21
	OpTypeFloat            Opcode = 22
	OpTypeVector           Opcode = 23
	OpTypeMatrix           Opcode = 24
	OpTypeArray            Opcode = 28
	OpTypeStruct           Opcode = 30
	OpTypePointer          Opcode = 32
	OpTypeFunction         Opcode = 33
	OpConstantTrue         Opcode = 41
	OpConstantFalse        Opcode = 42
	OpConstant             Opcode = 43
	OpConstantComposite    Opcode = 44
	OpConstantNull         Opcode = 46
	OpFunction             Opcode = 54
	OpFunctionParameter    Opcode = 55
	OpFunctionEnd          Opcode = 56
	OpFunctionCall         Opcode = 57
	OpVariable             Opcode = 59
	OpLoad                 Opcode = 61
	OpStore                Opcode = 62
	OpAccessChain          Opcode = 65
	OpDecorate             Opcode = 71
	OpMemberDecorate       Opcode = 72
	OpVectorShuffle        Opcode = 79
	OpCompositeConstruct   Opcode = 80
	OpCompositeExtract     Opcode = 81
	OpCompositeInsert      Opcode = 82
	OpCopyObject           Opcode = 83
	OpConvertFToS          Opcode = 110
	OpConvertSToF          Opcode = 111
	OpBitcast              Opcode = 124
	OpSNegate              Opcode = 126
	OpFNegate              Opcode = 127
	OpIAdd                 Opcode = 128
	OpFAdd                 Opcode = 129
	OpISub                 Opcode = 130
	OpFSub                 Opcode = 131
	OpIMul                 Opcode = 132
	OpFMul                 Opcode = 133
	OpUDiv                 Opcode = 134
	OpSDiv                 Opcode = 135
	OpFDiv                 Opcode = 136
	OpUMod                 Opcode = 137
	OpSRem                 Opcode = 138
	OpSMod                 Opcode = 139
	OpFMod                 Opcode = 141
	OpVectorTimesScalar    Opcode = 142
	OpMatrixTimesVector    Opcode = 145
	OpDot                  Opcode = 148
	OpLogicalOr            Opcode = 166
	OpLogicalAnd           Opcode = 167
	OpLogicalNot           Opcode = 168
	OpSelect               Opcode = 169
	OpIEqual               Opcode = 170
	OpINotEqual            Opcode = 171
	OpSGreaterThan         Opcode = 173
	OpSGreaterThanEqual    Opcode = 175
	OpSLessThan            Opcode = 177
	OpSLessThanEqual       Opcode = 179
	OpFOrdEqual            Opcode = 180
	OpFOrdNotEqual         Opcode = 182
	OpFOrdLessThan         Opcode = 184
	OpFOrdGreaterThan      Opcode = 186
	OpFOrdLessThanEqual    Opcode = 188
	OpFOrdGreaterThanEqual Opcode = 190
	OpBitwiseOr            Opcode = 197
	OpBitwiseXor           Opcode = 198
	OpBitwiseAnd           Opcode = 199
	OpNot                  Opcode = 200
	OpPhi                  Opcode = 245
	OpLoopMerge            Opcode = 246
	OpSelectionMerge       Opcode = 247
	OpLabel                Opcode = 248
	OpBranch               Opcode = 249
	OpBranchConditional    Opcode = 250
	OpSwitch               Opcode = 251
	OpKill                 Opcode = 252
	OpReturn               Opcode = 253
	OpReturnValue          Opcode = 254
	OpUnreachable          Opcode = 255
)

// OperandKind describes one operand slot in an instruction's word layout
// (after the optional result-type and result-id words).
type OperandKind int

// Operand kinds.
const (
	KindID      OperandKind = iota // a single <id> reference word
	KindLiteral                    // a single literal word (number or enum)
	KindString                     // a nul-terminated UTF-8 string packed into words
)

// Signature describes the word layout of an opcode.
type Signature struct {
	Name      string
	HasType   bool // instruction has a result-type <id> word
	HasResult bool // instruction has a result <id> word
	Fixed     []OperandKind
	// Variadic describes the layout of trailing operands, repeated zero or
	// more times (nil if the instruction takes no trailing operands).
	Variadic []OperandKind
}

// signatures is indexed by opcode; a supported opcode has a non-empty Name.
// Every supported opcode is below 256 (OpUnreachable is the largest), so a
// lookup is one bounds check instead of a map probe, and an opcode added
// past 255 fails to compile here.
var signatures = [256]Signature{
	OpNop:                  {Name: "OpNop"},
	OpUndef:                {Name: "OpUndef", HasType: true, HasResult: true},
	OpName:                 {Name: "OpName", Fixed: []OperandKind{KindID, KindString}},
	OpMemberName:           {Name: "OpMemberName", Fixed: []OperandKind{KindID, KindLiteral, KindString}},
	OpMemoryModel:          {Name: "OpMemoryModel", Fixed: []OperandKind{KindLiteral, KindLiteral}},
	OpEntryPoint:           {Name: "OpEntryPoint", Fixed: []OperandKind{KindLiteral, KindID, KindString}, Variadic: []OperandKind{KindID}},
	OpExecutionMode:        {Name: "OpExecutionMode", Fixed: []OperandKind{KindID, KindLiteral}, Variadic: []OperandKind{KindLiteral}},
	OpCapability:           {Name: "OpCapability", Fixed: []OperandKind{KindLiteral}},
	OpTypeVoid:             {Name: "OpTypeVoid", HasResult: true},
	OpTypeBool:             {Name: "OpTypeBool", HasResult: true},
	OpTypeInt:              {Name: "OpTypeInt", HasResult: true, Fixed: []OperandKind{KindLiteral, KindLiteral}},
	OpTypeFloat:            {Name: "OpTypeFloat", HasResult: true, Fixed: []OperandKind{KindLiteral}},
	OpTypeVector:           {Name: "OpTypeVector", HasResult: true, Fixed: []OperandKind{KindID, KindLiteral}},
	OpTypeMatrix:           {Name: "OpTypeMatrix", HasResult: true, Fixed: []OperandKind{KindID, KindLiteral}},
	OpTypeArray:            {Name: "OpTypeArray", HasResult: true, Fixed: []OperandKind{KindID, KindID}},
	OpTypeStruct:           {Name: "OpTypeStruct", HasResult: true, Variadic: []OperandKind{KindID}},
	OpTypePointer:          {Name: "OpTypePointer", HasResult: true, Fixed: []OperandKind{KindLiteral, KindID}},
	OpTypeFunction:         {Name: "OpTypeFunction", HasResult: true, Fixed: []OperandKind{KindID}, Variadic: []OperandKind{KindID}},
	OpConstantTrue:         {Name: "OpConstantTrue", HasType: true, HasResult: true},
	OpConstantFalse:        {Name: "OpConstantFalse", HasType: true, HasResult: true},
	OpConstant:             {Name: "OpConstant", HasType: true, HasResult: true, Variadic: []OperandKind{KindLiteral}},
	OpConstantComposite:    {Name: "OpConstantComposite", HasType: true, HasResult: true, Variadic: []OperandKind{KindID}},
	OpConstantNull:         {Name: "OpConstantNull", HasType: true, HasResult: true},
	OpFunction:             {Name: "OpFunction", HasType: true, HasResult: true, Fixed: []OperandKind{KindLiteral, KindID}},
	OpFunctionParameter:    {Name: "OpFunctionParameter", HasType: true, HasResult: true},
	OpFunctionEnd:          {Name: "OpFunctionEnd"},
	OpFunctionCall:         {Name: "OpFunctionCall", HasType: true, HasResult: true, Fixed: []OperandKind{KindID}, Variadic: []OperandKind{KindID}},
	OpVariable:             {Name: "OpVariable", HasType: true, HasResult: true, Fixed: []OperandKind{KindLiteral}, Variadic: []OperandKind{KindID}},
	OpLoad:                 {Name: "OpLoad", HasType: true, HasResult: true, Fixed: []OperandKind{KindID}},
	OpStore:                {Name: "OpStore", Fixed: []OperandKind{KindID, KindID}},
	OpAccessChain:          {Name: "OpAccessChain", HasType: true, HasResult: true, Fixed: []OperandKind{KindID}, Variadic: []OperandKind{KindID}},
	OpDecorate:             {Name: "OpDecorate", Fixed: []OperandKind{KindID, KindLiteral}, Variadic: []OperandKind{KindLiteral}},
	OpMemberDecorate:       {Name: "OpMemberDecorate", Fixed: []OperandKind{KindID, KindLiteral, KindLiteral}, Variadic: []OperandKind{KindLiteral}},
	OpVectorShuffle:        {Name: "OpVectorShuffle", HasType: true, HasResult: true, Fixed: []OperandKind{KindID, KindID}, Variadic: []OperandKind{KindLiteral}},
	OpCompositeConstruct:   {Name: "OpCompositeConstruct", HasType: true, HasResult: true, Variadic: []OperandKind{KindID}},
	OpCompositeExtract:     {Name: "OpCompositeExtract", HasType: true, HasResult: true, Fixed: []OperandKind{KindID}, Variadic: []OperandKind{KindLiteral}},
	OpCompositeInsert:      {Name: "OpCompositeInsert", HasType: true, HasResult: true, Fixed: []OperandKind{KindID, KindID}, Variadic: []OperandKind{KindLiteral}},
	OpCopyObject:           {Name: "OpCopyObject", HasType: true, HasResult: true, Fixed: []OperandKind{KindID}},
	OpConvertFToS:          {Name: "OpConvertFToS", HasType: true, HasResult: true, Fixed: []OperandKind{KindID}},
	OpConvertSToF:          {Name: "OpConvertSToF", HasType: true, HasResult: true, Fixed: []OperandKind{KindID}},
	OpBitcast:              {Name: "OpBitcast", HasType: true, HasResult: true, Fixed: []OperandKind{KindID}},
	OpSNegate:              unarySig("OpSNegate"),
	OpFNegate:              unarySig("OpFNegate"),
	OpIAdd:                 binarySig("OpIAdd"),
	OpFAdd:                 binarySig("OpFAdd"),
	OpISub:                 binarySig("OpISub"),
	OpFSub:                 binarySig("OpFSub"),
	OpIMul:                 binarySig("OpIMul"),
	OpFMul:                 binarySig("OpFMul"),
	OpUDiv:                 binarySig("OpUDiv"),
	OpSDiv:                 binarySig("OpSDiv"),
	OpFDiv:                 binarySig("OpFDiv"),
	OpUMod:                 binarySig("OpUMod"),
	OpSRem:                 binarySig("OpSRem"),
	OpSMod:                 binarySig("OpSMod"),
	OpFMod:                 binarySig("OpFMod"),
	OpVectorTimesScalar:    binarySig("OpVectorTimesScalar"),
	OpMatrixTimesVector:    binarySig("OpMatrixTimesVector"),
	OpDot:                  binarySig("OpDot"),
	OpLogicalOr:            binarySig("OpLogicalOr"),
	OpLogicalAnd:           binarySig("OpLogicalAnd"),
	OpLogicalNot:           unarySig("OpLogicalNot"),
	OpSelect:               {Name: "OpSelect", HasType: true, HasResult: true, Fixed: []OperandKind{KindID, KindID, KindID}},
	OpIEqual:               binarySig("OpIEqual"),
	OpINotEqual:            binarySig("OpINotEqual"),
	OpSGreaterThan:         binarySig("OpSGreaterThan"),
	OpSGreaterThanEqual:    binarySig("OpSGreaterThanEqual"),
	OpSLessThan:            binarySig("OpSLessThan"),
	OpSLessThanEqual:       binarySig("OpSLessThanEqual"),
	OpFOrdEqual:            binarySig("OpFOrdEqual"),
	OpFOrdNotEqual:         binarySig("OpFOrdNotEqual"),
	OpFOrdLessThan:         binarySig("OpFOrdLessThan"),
	OpFOrdGreaterThan:      binarySig("OpFOrdGreaterThan"),
	OpFOrdLessThanEqual:    binarySig("OpFOrdLessThanEqual"),
	OpFOrdGreaterThanEqual: binarySig("OpFOrdGreaterThanEqual"),
	OpBitwiseOr:            binarySig("OpBitwiseOr"),
	OpBitwiseXor:           binarySig("OpBitwiseXor"),
	OpBitwiseAnd:           binarySig("OpBitwiseAnd"),
	OpNot:                  unarySig("OpNot"),
	OpPhi:                  {Name: "OpPhi", HasType: true, HasResult: true, Variadic: []OperandKind{KindID, KindID}},
	OpLoopMerge:            {Name: "OpLoopMerge", Fixed: []OperandKind{KindID, KindID, KindLiteral}},
	OpSelectionMerge:       {Name: "OpSelectionMerge", Fixed: []OperandKind{KindID, KindLiteral}},
	OpLabel:                {Name: "OpLabel", HasResult: true},
	OpBranch:               {Name: "OpBranch", Fixed: []OperandKind{KindID}},
	OpBranchConditional:    {Name: "OpBranchConditional", Fixed: []OperandKind{KindID, KindID, KindID}},
	OpSwitch:               {Name: "OpSwitch", Fixed: []OperandKind{KindID, KindID}, Variadic: []OperandKind{KindLiteral, KindID}},
	OpKill:                 {Name: "OpKill"},
	OpReturn:               {Name: "OpReturn"},
	OpReturnValue:          {Name: "OpReturnValue", Fixed: []OperandKind{KindID}},
	OpUnreachable:          {Name: "OpUnreachable"},
}

func unarySig(name string) Signature {
	return Signature{Name: name, HasType: true, HasResult: true, Fixed: []OperandKind{KindID}}
}

func binarySig(name string) Signature {
	return Signature{Name: name, HasType: true, HasResult: true, Fixed: []OperandKind{KindID, KindID}}
}

var opcodeByName = func() map[string]Opcode {
	m := make(map[string]Opcode)
	for op, sig := range signatures {
		if sig.Name != "" {
			m[sig.Name] = Opcode(op)
		}
	}
	return m
}()

// Sig returns the signature of op; ok is false for unsupported opcodes.
func Sig(op Opcode) (Signature, bool) {
	if int(op) >= len(signatures) || signatures[op].Name == "" {
		return Signature{}, false
	}
	return signatures[op], true
}

// OpcodeByName returns the opcode with the given "OpXxx" name.
func OpcodeByName(name string) (Opcode, bool) {
	op, ok := opcodeByName[name]
	return op, ok
}

// String returns the "OpXxx" name of the opcode.
func (op Opcode) String() string {
	if s, ok := Sig(op); ok {
		return s.Name
	}
	return fmt.Sprintf("Op?%d", uint16(op))
}

// IsType reports whether op declares a type.
func (op Opcode) IsType() bool { return op >= OpTypeVoid && op <= OpTypeFunction }

// IsConstant reports whether op declares a constant.
func (op Opcode) IsConstant() bool { return op >= OpConstantTrue && op <= OpConstantNull }

// IsTerminator reports whether op terminates a block.
func (op Opcode) IsTerminator() bool {
	switch op {
	case OpBranch, OpBranchConditional, OpSwitch, OpKill, OpReturn, OpReturnValue, OpUnreachable:
		return true
	}
	return false
}

// HasSideEffects reports whether an instruction with this opcode may not be
// freely removed when its result is unused.
func (op Opcode) HasSideEffects() bool {
	switch op {
	case OpStore, OpFunctionCall, OpVariable:
		return true
	}
	return op.IsTerminator()
}

// Enumerant values used by the subset (matching the SPIR-V specification).
const (
	// Addressing / memory models.
	AddressingLogical  uint32 = 0
	MemoryModelGLSL450 uint32 = 1
	// Execution models.
	ExecutionModelFragment uint32 = 4
	// Execution modes.
	ExecutionModeOriginUpperLeft uint32 = 7
	// Capabilities.
	CapabilityShader uint32 = 1
	// Storage classes.
	StorageUniformConstant uint32 = 0
	StorageInput           uint32 = 1
	StorageUniform         uint32 = 2
	StorageOutput          uint32 = 3
	StoragePrivate         uint32 = 6
	StorageFunction        uint32 = 7
	// Function control masks.
	FunctionControlNone       uint32 = 0
	FunctionControlInline     uint32 = 1
	FunctionControlDontInline uint32 = 2
	// Selection control.
	SelectionControlNone uint32 = 0
	// Loop control.
	LoopControlNone uint32 = 0
	// Decorations.
	DecorationBlock         uint32 = 2
	DecorationBuiltIn       uint32 = 11
	DecorationLocation      uint32 = 30
	DecorationBinding       uint32 = 33
	DecorationDescriptorSet uint32 = 34
)
