package fuzz

import (
	"math"

	"spirvfuzz/internal/interp"
	"spirvfuzz/internal/spirv"
)

// TypeScaleUniform identifies the input-modifying transformation.
const TypeScaleUniform = "ScaleUniform"

// ScaleUniform modifies the module and its input *in sync* — the first item
// of future work in the paper's conclusion ("transformations that modify
// both a SPIR-V module and its input in sync"). The transformation doubles
// the value of a float uniform in the input and compensates in the module by
// multiplying every load of that uniform by an existing 0.5 constant,
// rewriting all uses of each load to the compensated value. Doubling and
// halving by powers of two are exact in IEEE arithmetic, so semantics are
// preserved bit-for-bit.
type ScaleUniform struct {
	UniformVar spirv.ID `json:"uniformVar"`
	HalfConst  spirv.ID `json:"halfConst"`
	// FreshIDs maps each existing OpLoad (by result id) of the uniform to
	// the fresh id of its compensation multiply. The map must cover exactly
	// the loads present when the transformation applies, which makes the
	// transformation self-invalidating during reduction when an earlier
	// load-creating transformation is removed.
	FreshIDs map[spirv.ID]spirv.ID `json:"freshIds,omitempty"`
}

// Type implements Transformation.
func (t *ScaleUniform) Type() string { return TypeScaleUniform }

// loadsOf returns the result ids of every OpLoad of the uniform variable,
// and false if a function uses the variable in any other way. Such a use
// (an OpCopyObject of the pointer, say) makes a pointer synonym, and a load
// through a synonym reads the doubled input without the compensation Apply
// gives direct loads.
func (t *ScaleUniform) loadsOf(c *Context) ([]spirv.ID, bool) {
	var out []spirv.ID
	ok := true
	for _, fn := range c.Mod.Functions {
		for _, b := range fn.Blocks {
			b.Instructions(func(ins *spirv.Instruction) {
				if ins.Op == spirv.OpLoad && ins.IDOperand(0) == t.UniformVar {
					out = append(out, ins.Result)
				} else if ins.UsesID(t.UniformVar) {
					ok = false
				}
			})
		}
	}
	return out, ok
}

// Precondition: the variable is a float-scalar uniform with a known, finite,
// doublable input value; HalfConst is the 0.5 constant of the same type;
// FreshIDs covers exactly the current loads with fresh distinct targets; no
// load participates in a Synonymous fact (its raw value is about to change,
// which would falsify such facts); and the variable has no pointer synonym,
// neither an instruction that copies it nor a Synonymous fact naming it.
func (t *ScaleUniform) Precondition(c *Context) bool {
	def := c.Mod.Def(t.UniformVar)
	if def == nil || def.Op != spirv.OpVariable {
		return false
	}
	if sc := def.Operands[0]; sc != spirv.StorageUniformConstant && sc != spirv.StorageUniform {
		return false
	}
	_, pointee, ok := c.Mod.PointerInfo(def.Type)
	if !ok || !c.Mod.IsFloatType(pointee) {
		return false
	}
	val, ok := c.UniformValue(t.UniformVar)
	if !ok || val.Kind != interp.KindFloat {
		return false
	}
	doubled := val.F * 2
	if math.IsInf(float64(doubled), 0) || math.IsNaN(float64(doubled)) {
		return false
	}
	if hv, ok := c.Mod.ConstantFloatValue(t.HalfConst); !ok || hv != 0.5 || c.Mod.TypeOf(t.HalfConst) != pointee {
		return false
	}
	loads, ok := t.loadsOf(c)
	if !ok || len(loads) != len(t.FreshIDs) || len(c.Facts.WholeSynonymsOf(t.UniformVar)) != 0 {
		return false
	}
	seen := make(map[spirv.ID]bool, len(loads))
	for _, l := range loads {
		fresh, ok := t.FreshIDs[l]
		if !ok || seen[fresh] || !c.IsFreshID(fresh) {
			return false
		}
		seen[fresh] = true
		if len(c.Facts.WholeSynonymsOf(l)) != 0 {
			return false
		}
	}
	return true
}

// Apply doubles the input value and compensates every load.
func (t *ScaleUniform) Apply(c *Context) {
	def := c.Mod.Def(t.UniformVar)
	_, pointee, _ := c.Mod.PointerInfo(def.Type)
	name := uniformName(c.Mod, t.UniformVar)
	val := c.Inputs.Uniforms[name]
	c.Inputs.Uniforms[name] = interp.FloatVal(val.F * 2)

	for _, fn := range c.Mod.Functions {
		for _, b := range fn.Blocks {
			for i := 0; i < len(b.Body); i++ {
				ins := b.Body[i]
				if ins.Op != spirv.OpLoad || ins.IDOperand(0) != t.UniformVar {
					continue
				}
				fresh := t.FreshIDs[ins.Result]
				c.ClaimID(fresh)
				mul := spirv.NewInstr(spirv.OpFMul, pointee, fresh, uint32(ins.Result), uint32(t.HalfConst))
				InsertBefore(b, i+1, mul)
				replaceUsesInFunction(fn, ins.Result, fresh, map[*spirv.Instruction]bool{ins: true, mul: true})
				i++ // skip the inserted multiply
			}
		}
	}
}

// uniformName returns the OpName of a variable, or "".
func uniformName(m *spirv.Module, id spirv.ID) string {
	for _, n := range m.Names {
		if n.Op == spirv.OpName && spirv.ID(n.Operands[0]) == id {
			s, _ := spirv.DecodeString(n.Operands[1:])
			return s
		}
	}
	return ""
}

// replaceUsesInFunction rewrites uses of old to new across fn, skipping the
// instructions in skip.
func replaceUsesInFunction(fn *spirv.Function, old, new spirv.ID, skip map[*spirv.Instruction]bool) {
	for _, b := range fn.Blocks {
		b.Instructions(func(ins *spirv.Instruction) {
			if skip[ins] {
				return
			}
			ins.MapUses(func(id spirv.ID) spirv.ID {
				if id == old {
					return new
				}
				return id
			})
		})
	}
}

func init() {
	register(TypeScaleUniform, func() Transformation { return &ScaleUniform{} })
}
