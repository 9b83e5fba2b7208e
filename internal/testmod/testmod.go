// Package testmod builds small canonical SPIR-V subset modules shared by the
// test suites of the validator, interpreter, optimizer, fuzzer and targets.
// Each builder returns a fresh module; callers may mutate freely.
package testmod

import "spirvfuzz/internal/spirv"

// Diamond returns a fragment shader with an if/else diamond and a ϕ at the
// merge block:
//
//	entry:  c = Load coord; x = c.x; cond = x < 0.5
//	        SelectionMerge merge; BranchConditional cond, left, right
//	left:   v1 = 1.0;  Branch merge
//	right:  v2 = 0.25; Branch merge
//	merge:  r = ϕ(v1←left, v2←right); Store color (r,r,r,1); Return
func Diamond() *spirv.Module {
	b := spirv.NewBuilder()
	s := b.BeginFragmentShell()
	m := b.Mod
	half := m.EnsureConstantFloat(0.5)
	one := m.EnsureConstantFloat(1)
	quarter := m.EnsureConstantFloat(0.25)

	c := b.Emit(spirv.OpLoad, s.Vec2, s.Coord)
	x := b.EmitWords(spirv.OpCompositeExtract, s.Float, uint32(c), 0)
	cond := b.Emit(spirv.OpFOrdLessThan, s.Bool, x, half)
	left, right, merge := b.NewLabel(), b.NewLabel(), b.NewLabel()
	b.SelectionMerge(merge)
	b.BranchCond(cond, left, right)

	b.Begin(left)
	v1 := b.Emit(spirv.OpCopyObject, s.Float, one)
	b.Branch(merge)

	b.Begin(right)
	v2 := b.Emit(spirv.OpCopyObject, s.Float, quarter)
	b.Branch(merge)

	b.Begin(merge)
	r := b.Phi(s.Float, v1, left, v2, right)
	col := b.Emit(spirv.OpCompositeConstruct, s.Vec4, r, r, r, one)
	b.Store(s.Color, col)
	b.FinishFragmentShell(s)
	return m
}

// Loop returns a fragment shader that sums the integers 0..9 in a
// structured loop and writes sum/45 to every channel (i.e. a uniform gray
// image of value 1.0 since 45/45 = 1):
//
//	entry:   Branch header
//	header:  i = ϕ(0←entry, i'←cont); s = ϕ(0←entry, s'←cont)
//	         LoopMerge merge cont; Branch check
//	check:   c = i < 10; BranchConditional c, body, merge
//	body:    s' = s + i; Branch cont
//	cont:    i' = i + 1; Branch header
//	merge:   f = ConvertSToF s; g = f / 45.0; Store color (g,g,g,1); Return
func Loop() *spirv.Module {
	return LoopN(10)
}

// LoopN is Loop with a configurable iteration count; the output gray level
// is sum(0..n-1) / (n*(n-1)/2), i.e. always 1.0.
func LoopN(n int32) *spirv.Module {
	b := spirv.NewBuilder()
	s := b.BeginFragmentShell()
	m := b.Mod
	zero := m.EnsureConstantInt(0)
	oneI := m.EnsureConstantInt(1)
	limit := m.EnsureConstantInt(n)
	denom := m.EnsureConstantFloat(float32(n * (n - 1) / 2))
	oneF := m.EnsureConstantFloat(1)

	header, check, body, cont, merge := b.NewLabel(), b.NewLabel(), b.NewLabel(), b.NewLabel(), b.NewLabel()
	entry := b.Fn.Blocks[0].Label
	b.Branch(header)

	b.Begin(header)
	iPhiID := m.FreshID()
	sPhiID := m.FreshID()
	iNext := m.FreshID()
	sNext := m.FreshID()
	b.Blk.Phis = append(b.Blk.Phis,
		spirv.NewInstr(spirv.OpPhi, s.Int, iPhiID, uint32(zero), uint32(entry), uint32(iNext), uint32(cont)),
		spirv.NewInstr(spirv.OpPhi, s.Int, sPhiID, uint32(zero), uint32(entry), uint32(sNext), uint32(cont)),
	)
	b.LoopMerge(merge, cont)
	b.Branch(check)

	b.Begin(check)
	c := b.Emit(spirv.OpSLessThan, s.Bool, iPhiID, limit)
	b.BranchCond(c, body, merge)

	b.Begin(body)
	b.Blk.Body = append(b.Blk.Body, spirv.NewInstr(spirv.OpIAdd, s.Int, sNext, uint32(sPhiID), uint32(iPhiID)))
	b.Branch(cont)

	b.Begin(cont)
	b.Blk.Body = append(b.Blk.Body, spirv.NewInstr(spirv.OpIAdd, s.Int, iNext, uint32(iPhiID), uint32(oneI)))
	b.Branch(header)

	b.Begin(merge)
	f := b.Emit(spirv.OpConvertSToF, s.Float, sPhiID)
	g := b.Emit(spirv.OpFDiv, s.Float, f, denom)
	col := b.Emit(spirv.OpCompositeConstruct, s.Vec4, g, g, g, oneF)
	b.Store(s.Color, col)
	b.FinishFragmentShell(s)
	return m
}

// Caller returns a shader whose main calls a helper function
// brighten(x) = x + 0.25 on the coordinate's x component.
func Caller() *spirv.Module {
	b := spirv.NewBuilder()
	m := b.Mod
	void := m.EnsureTypeVoid()
	f32 := m.EnsureTypeFloat(32)
	vec2 := m.EnsureTypeVector(f32, 2)
	vec4 := m.EnsureTypeVector(f32, 4)
	_ = void

	// Helper first so main can reference it.
	quarter := m.EnsureConstantFloat(0.25)
	helper, params := b.BeginFunction("brighten", f32, spirv.FunctionControlNone, f32)
	b.BeginNew()
	sum := b.Emit(spirv.OpFAdd, f32, params[0], quarter)
	b.ReturnValue(sum)
	b.EndFunction()

	s := b.BeginFragmentShell()
	one := m.EnsureConstantFloat(1)
	c := b.Emit(spirv.OpLoad, vec2, s.Coord)
	x := b.EmitWords(spirv.OpCompositeExtract, f32, uint32(c), 0)
	r := b.Emit(spirv.OpFunctionCall, f32, helper, x)
	col := b.Emit(spirv.OpCompositeConstruct, vec4, r, r, r, one)
	b.Store(s.Color, col)
	b.FinishFragmentShell(s)
	return m
}

// Matrix returns a shader exercising matrix-vector math, struct and array
// access chains and a uniform input named "scale":
//
//	color.rgb = (M × coord.xyxy.xy) scaled by uniform, alpha 1.
func Matrix() *spirv.Module {
	b := spirv.NewBuilder()
	s := b.BeginFragmentShell()
	m := b.Mod
	one := m.EnsureConstantFloat(1)
	half := m.EnsureConstantFloat(0.5)
	colType := s.Vec2
	mat2 := m.EnsureTypeMatrix(colType, 2)
	col0 := m.EnsureConstantComposite(colType, one, half)
	col1 := m.EnsureConstantComposite(colType, half, one)
	matC := m.EnsureConstantComposite(mat2, col0, col1)
	scale := b.Uniform("scale", s.Float, 1)

	c := b.Emit(spirv.OpLoad, s.Vec2, s.Coord)
	mv := b.Emit(spirv.OpMatrixTimesVector, s.Vec2, matC, c)
	sc := b.Emit(spirv.OpLoad, s.Float, scale)
	scaled := b.Emit(spirv.OpVectorTimesScalar, s.Vec2, mv, sc)
	r := b.EmitWords(spirv.OpCompositeExtract, s.Float, uint32(scaled), 0)
	g := b.EmitWords(spirv.OpCompositeExtract, s.Float, uint32(scaled), 1)
	col := b.Emit(spirv.OpCompositeConstruct, s.Vec4, r, g, half, one)
	b.Store(s.Color, col)
	b.FinishFragmentShell(s)
	return m
}

// KillHalf returns a shader that discards fragments on the left half of the
// image (coord.x < 0.5 → OpKill) and colors the rest white.
func KillHalf() *spirv.Module {
	b := spirv.NewBuilder()
	s := b.BeginFragmentShell()
	m := b.Mod
	half := m.EnsureConstantFloat(0.5)
	one := m.EnsureConstantFloat(1)

	c := b.Emit(spirv.OpLoad, s.Vec2, s.Coord)
	x := b.EmitWords(spirv.OpCompositeExtract, s.Float, uint32(c), 0)
	cond := b.Emit(spirv.OpFOrdLessThan, s.Bool, x, half)
	killBlk, rest := b.NewLabel(), b.NewLabel()
	b.SelectionMerge(rest)
	b.BranchCond(cond, killBlk, rest)

	b.Begin(killBlk)
	b.Kill()

	b.Begin(rest)
	col := m.EnsureConstantComposite(s.Vec4, one, one, one, one)
	colv := b.Emit(spirv.OpCopyObject, s.Vec4, col)
	b.Store(s.Color, colv)
	b.FinishFragmentShell(s)
	return m
}

// LocalVars returns a shader exercising Function-storage variables and
// access chains: it stores the coordinate into a local struct { vec2; float }
// and reads components back through OpAccessChain.
func LocalVars() *spirv.Module {
	b := spirv.NewBuilder()
	s := b.BeginFragmentShell()
	m := b.Mod
	one := m.EnsureConstantFloat(1)
	idx0 := m.EnsureConstantInt(0)
	idx1 := m.EnsureConstantInt(1)
	st := m.EnsureTypeStruct(s.Vec2, s.Float)
	ptrVec2 := m.EnsureTypePointer(spirv.StorageFunction, s.Vec2)
	ptrF := m.EnsureTypePointer(spirv.StorageFunction, s.Float)

	local := b.LocalVariable(st)
	c := b.Emit(spirv.OpLoad, s.Vec2, s.Coord)
	pv := b.AccessChain(ptrVec2, local, idx0)
	b.Store(pv, c)
	pf := b.AccessChain(ptrF, local, idx1)
	b.Store(pf, one)
	px := b.AccessChain(ptrF, local, idx0, idx0)
	x := b.Emit(spirv.OpLoad, s.Float, px)
	a := b.Emit(spirv.OpLoad, s.Float, pf)
	col := b.Emit(spirv.OpCompositeConstruct, s.Vec4, x, x, x, a)
	b.Store(s.Color, col)
	b.FinishFragmentShell(s)
	return m
}

// ParityStripes returns a shader that branches on the parity of the pixel
// column: even columns go white, odd columns dark. Rendered on a w-wide
// grid, adjacent pixels always take opposite branch edges — maximally
// divergent control flow for the differential tests.
//
// coord.x for column x is (x+0.5)/w, so coord.x*w = x+0.5 and ConvertFToS
// truncates it to exactly x.
func ParityStripes(w int32) *spirv.Module {
	b := spirv.NewBuilder()
	s := b.BeginFragmentShell()
	m := b.Mod
	wf := m.EnsureConstantFloat(float32(w))
	oneI := m.EnsureConstantInt(1)
	zeroI := m.EnsureConstantInt(0)
	one := m.EnsureConstantFloat(1)
	dark := m.EnsureConstantFloat(0.2)

	c := b.Emit(spirv.OpLoad, s.Vec2, s.Coord)
	x := b.EmitWords(spirv.OpCompositeExtract, s.Float, uint32(c), 0)
	xs := b.Emit(spirv.OpFMul, s.Float, x, wf)
	xi := b.Emit(spirv.OpConvertFToS, s.Int, xs)
	parity := b.Emit(spirv.OpBitwiseAnd, s.Int, xi, oneI)
	cond := b.Emit(spirv.OpIEqual, s.Bool, parity, zeroI)
	even, odd, merge := b.NewLabel(), b.NewLabel(), b.NewLabel()
	b.SelectionMerge(merge)
	b.BranchCond(cond, even, odd)

	b.Begin(even)
	v1 := b.Emit(spirv.OpCopyObject, s.Float, one)
	b.Branch(merge)

	b.Begin(odd)
	v2 := b.Emit(spirv.OpCopyObject, s.Float, dark)
	b.Branch(merge)

	b.Begin(merge)
	r := b.Phi(s.Float, v1, even, v2, odd)
	col := b.Emit(spirv.OpCompositeConstruct, s.Vec4, r, r, r, one)
	b.Store(s.Color, col)
	b.FinishFragmentShell(s)
	return m
}

// LoopAccum returns a shader that runs a counted loop of n iterations
// accumulating coordinate-dependent float arithmetic:
//
//	a₀ = x;  aᵢ₊₁ = aᵢ·0.9 + x·y
//
// and writes the accumulator to the red/green channels. The iteration count
// is the same for every pixel, so control flow is perfectly uniform across
// the grid while the per-pixel float values differ — a dispatch-heavy loop
// that keeps the VM's ϕ moves and arithmetic fast paths under the
// differential tests.
func LoopAccum(n int32) *spirv.Module {
	b := spirv.NewBuilder()
	s := b.BeginFragmentShell()
	m := b.Mod
	zero := m.EnsureConstantInt(0)
	oneI := m.EnsureConstantInt(1)
	limit := m.EnsureConstantInt(n)
	decay := m.EnsureConstantFloat(0.9)
	hund := m.EnsureConstantFloat(0.01)
	oneF := m.EnsureConstantFloat(1)

	c := b.Emit(spirv.OpLoad, s.Vec2, s.Coord)
	x := b.EmitWords(spirv.OpCompositeExtract, s.Float, uint32(c), 0)
	y := b.EmitWords(spirv.OpCompositeExtract, s.Float, uint32(c), 1)
	xy := b.Emit(spirv.OpFMul, s.Float, x, y)

	header, check, body, cont, merge := b.NewLabel(), b.NewLabel(), b.NewLabel(), b.NewLabel(), b.NewLabel()
	entry := b.Fn.Blocks[0].Label
	b.Branch(header)

	b.Begin(header)
	iPhi := m.FreshID()
	aPhi := m.FreshID()
	iNext := m.FreshID()
	aNext := m.FreshID()
	b.Blk.Phis = append(b.Blk.Phis,
		spirv.NewInstr(spirv.OpPhi, s.Int, iPhi, uint32(zero), uint32(entry), uint32(iNext), uint32(cont)),
		spirv.NewInstr(spirv.OpPhi, s.Float, aPhi, uint32(x), uint32(entry), uint32(aNext), uint32(cont)),
	)
	b.LoopMerge(merge, cont)
	b.Branch(check)

	b.Begin(check)
	cd := b.Emit(spirv.OpSLessThan, s.Bool, iPhi, limit)
	b.BranchCond(cd, body, merge)

	b.Begin(body)
	// f(a) = 0.9a - 0.0081a^2 + xy: a contraction on the coord domain, so
	// the accumulator stays bounded for any n — no Inf/NaN to mask float
	// non-associativity in differential runs. Five float ops per iteration
	// keep the loop arithmetic-dominated, like real shader inner loops.
	scaled := m.FreshID()
	sq := m.FreshID()
	damp := m.FreshID()
	mix := m.FreshID()
	b.Blk.Body = append(b.Blk.Body,
		spirv.NewInstr(spirv.OpFMul, s.Float, scaled, uint32(aPhi), uint32(decay)),
		spirv.NewInstr(spirv.OpFMul, s.Float, sq, uint32(scaled), uint32(scaled)),
		spirv.NewInstr(spirv.OpFMul, s.Float, damp, uint32(sq), uint32(hund)),
		spirv.NewInstr(spirv.OpFAdd, s.Float, mix, uint32(scaled), uint32(xy)),
		spirv.NewInstr(spirv.OpFSub, s.Float, aNext, uint32(mix), uint32(damp)),
	)
	b.Branch(cont)

	b.Begin(cont)
	b.Blk.Body = append(b.Blk.Body, spirv.NewInstr(spirv.OpIAdd, s.Int, iNext, uint32(iPhi), uint32(oneI)))
	b.Branch(header)

	b.Begin(merge)
	col := b.Emit(spirv.OpCompositeConstruct, s.Vec4, aPhi, aPhi, y, oneF)
	b.Store(s.Color, col)
	b.FinishFragmentShell(s)
	return m
}

// All returns every canonical module with a name, for table-driven tests.
func All() map[string]*spirv.Module {
	return map[string]*spirv.Module{
		"diamond":   Diamond(),
		"loop":      Loop(),
		"caller":    Caller(),
		"matrix":    Matrix(),
		"killhalf":  KillHalf(),
		"localvars": LocalVars(),
		"stripes":   ParityStripes(8),
		"loopaccum": LoopAccum(16),
	}
}
