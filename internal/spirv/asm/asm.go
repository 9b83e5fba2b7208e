// Package asm provides the textual SPIR-V assembly format: Disassemble
// renders a module as a spirv-dis-style listing (one instruction per line,
// "%id = OpXxx operands..."), and Parse reads such a listing back. The two
// functions round-trip: Parse(Disassemble(m)) reproduces m.
package asm

import (
	"fmt"
	"strconv"
	"strings"

	"spirvfuzz/internal/spirv"
)

// Disassemble renders the module as a textual listing.
func Disassemble(m *spirv.Module) string { return m.String() }

// Parse reads a textual listing produced by Disassemble and reconstructs
// the module. The module bound is set to one past the largest id.
func Parse(text string) (*spirv.Module, error) {
	m := &spirv.Module{Version: spirv.Version15}
	var curFn *spirv.Function
	var curBlk *spirv.Block
	maxID := spirv.ID(0)
	note := func(id spirv.ID) {
		if id > maxID {
			maxID = id
		}
	}

	for lineNo, raw := range strings.Split(text, "\n") {
		line := strings.TrimSpace(raw)
		if line == "" || strings.HasPrefix(line, ";") {
			continue
		}
		ins, err := parseInstruction(line)
		if err != nil {
			return nil, fmt.Errorf("asm: line %d: %w", lineNo+1, err)
		}
		note(ins.Result)
		note(ins.Type)
		ins.Uses(note)

		switch {
		case ins.Op == spirv.OpCapability:
			m.Capabilities = append(m.Capabilities, ins)
		case ins.Op == spirv.OpMemoryModel:
			m.MemoryModel = ins
		case ins.Op == spirv.OpEntryPoint:
			m.EntryPoints = append(m.EntryPoints, ins)
		case ins.Op == spirv.OpExecutionMode:
			m.ExecModes = append(m.ExecModes, ins)
		case ins.Op == spirv.OpName || ins.Op == spirv.OpMemberName:
			m.Names = append(m.Names, ins)
		case ins.Op == spirv.OpDecorate || ins.Op == spirv.OpMemberDecorate:
			m.Decorations = append(m.Decorations, ins)
		case ins.Op == spirv.OpFunction:
			if curFn != nil {
				return nil, fmt.Errorf("asm: line %d: nested OpFunction", lineNo+1)
			}
			curFn = &spirv.Function{Def: ins}
		case ins.Op == spirv.OpFunctionParameter:
			if curFn == nil || len(curFn.Blocks) > 0 {
				return nil, fmt.Errorf("asm: line %d: OpFunctionParameter outside function preamble", lineNo+1)
			}
			curFn.Params = append(curFn.Params, ins)
		case ins.Op == spirv.OpLabel:
			if curFn == nil {
				return nil, fmt.Errorf("asm: line %d: OpLabel outside function", lineNo+1)
			}
			curBlk = &spirv.Block{Label: ins.Result}
			curFn.Blocks = append(curFn.Blocks, curBlk)
		case ins.Op == spirv.OpFunctionEnd:
			if curFn == nil {
				return nil, fmt.Errorf("asm: line %d: OpFunctionEnd outside function", lineNo+1)
			}
			m.Functions = append(m.Functions, curFn)
			curFn, curBlk = nil, nil
		case curBlk != nil:
			switch {
			case ins.Op == spirv.OpPhi:
				curBlk.Phis = append(curBlk.Phis, ins)
			case ins.Op == spirv.OpSelectionMerge || ins.Op == spirv.OpLoopMerge:
				curBlk.Merge = ins
			case ins.Op.IsTerminator():
				curBlk.Term = ins
				curBlk = nil
			default:
				curBlk.Body = append(curBlk.Body, ins)
			}
		case curFn != nil:
			return nil, fmt.Errorf("asm: line %d: %s inside function but outside block", lineNo+1, ins.Op)
		default:
			m.TypesGlobals = append(m.TypesGlobals, ins)
		}
	}
	if curFn != nil {
		return nil, fmt.Errorf("asm: missing OpFunctionEnd")
	}
	m.Bound = maxID + 1
	return m, nil
}

// parseInstruction parses a single listing line.
func parseInstruction(line string) (*spirv.Instruction, error) {
	var result spirv.ID
	if strings.HasPrefix(line, "%") {
		eq := strings.Index(line, "=")
		if eq < 0 {
			return nil, fmt.Errorf("%q: missing '=' after result id", line)
		}
		id, err := parseID(strings.TrimSpace(line[:eq]))
		if err != nil {
			return nil, err
		}
		result = id
		line = strings.TrimSpace(line[eq+1:])
	}
	toks, err := tokenize(line)
	if err != nil {
		return nil, err
	}
	if len(toks) == 0 {
		return nil, fmt.Errorf("empty instruction")
	}
	op, ok := spirv.OpcodeByName(toks[0])
	if !ok {
		return nil, fmt.Errorf("unknown opcode %q", toks[0])
	}
	sig, _ := spirv.Sig(op)
	toks = toks[1:]
	ins := &spirv.Instruction{Op: op, Result: result}
	if sig.HasType {
		if len(toks) == 0 {
			return nil, fmt.Errorf("%s: missing result type", op)
		}
		t, err := parseID(toks[0])
		if err != nil {
			return nil, err
		}
		ins.Type = t
		toks = toks[1:]
	}
	if sig.HasResult && result == 0 {
		return nil, fmt.Errorf("%s requires a result id", op)
	}
	if !sig.HasResult && result != 0 {
		return nil, fmt.Errorf("%s takes no result id", op)
	}

	i := 0
	consume := func(kind spirv.OperandKind) error {
		if i >= len(toks) {
			return fmt.Errorf("%s: missing operand %d", op, i)
		}
		tok := toks[i]
		i++
		switch kind {
		case spirv.KindID:
			id, err := parseID(tok)
			if err != nil {
				return err
			}
			ins.Operands = append(ins.Operands, uint32(id))
		case spirv.KindLiteral:
			v, err := strconv.ParseUint(tok, 10, 32)
			if err != nil {
				return fmt.Errorf("%s: bad literal %q", op, tok)
			}
			ins.Operands = append(ins.Operands, uint32(v))
		case spirv.KindString:
			s, err := strconv.Unquote(tok)
			if err != nil {
				return fmt.Errorf("%s: bad string %q", op, tok)
			}
			// A literal string ends at its first NUL, so one inside it
			// would turn the rest of the string into operands.
			if strings.IndexByte(s, 0) >= 0 {
				return fmt.Errorf("%s: string %q contains a NUL", op, tok)
			}
			ins.Operands = append(ins.Operands, spirv.EncodeString(s)...)
		}
		return nil
	}
	for _, kind := range sig.Fixed {
		if err := consume(kind); err != nil {
			return nil, err
		}
	}
	if len(sig.Variadic) > 0 {
		for i < len(toks) {
			for _, kind := range sig.Variadic {
				if err := consume(kind); err != nil {
					return nil, err
				}
			}
		}
	}
	if i != len(toks) {
		return nil, fmt.Errorf("%s: %d trailing operands", op, len(toks)-i)
	}
	return ins, nil
}

func parseID(tok string) (spirv.ID, error) {
	if !strings.HasPrefix(tok, "%") {
		return 0, fmt.Errorf("expected id, got %q", tok)
	}
	v, err := strconv.ParseUint(tok[1:], 10, 32)
	if err != nil || v == 0 {
		return 0, fmt.Errorf("bad id %q", tok)
	}
	return spirv.ID(v), nil
}

// tokenize splits a line into tokens, keeping quoted strings intact.
func tokenize(line string) ([]string, error) {
	var toks []string
	for i := 0; i < len(line); {
		for i < len(line) && line[i] == ' ' {
			i++
		}
		if i >= len(line) {
			break
		}
		if line[i] == '"' {
			j := i + 1
			for j < len(line) {
				if line[j] == '\\' {
					j += 2
					continue
				}
				if line[j] == '"' {
					break
				}
				j++
			}
			if j >= len(line) {
				return nil, fmt.Errorf("unterminated string in %q", line)
			}
			toks = append(toks, line[i:j+1])
			i = j + 1
			continue
		}
		j := i
		for j < len(line) && line[j] != ' ' {
			j++
		}
		toks = append(toks, line[i:j])
		i = j
	}
	return toks, nil
}
