package interp

// vmachine executes a compiled Program. A machine owns its mutable state —
// global cells, the fixed value pool (constants plus this machine's global
// pointers) and a per-function frame arena — so concurrent renders use one
// machine per goroutine over the same shared Program.
type vmachine struct {
	p     *Program
	fixed []Value
	cells []Cell
	arena [][][]Value // per function: stack of reusable frames
	valArena
	scratch   []Value // ϕ parallel-move staging
	argbuf    []Value // call-argument staging
	steps     int
	callDepth int
}

// valArena is the bump arena for frame-bound composite elements, together
// with the arena-backed evaluation helpers that allocate from it.
type valArena struct {
	earena []Value // bump arena for frame-bound composite elements
	eoff   int
}

// allocElems bump-allocates n element slots from the per-pixel arena. Values
// backed by the arena may only be stored in frame slots: frames die when the
// invocation returns, and everything that outlives the pixel (memory cells)
// is copied out of it (popStore writes into the cell's own storage, variable
// init clones to the heap). Chunks start small and double: a pixel of a
// typical 8×8-grid shader needs a few dozen elements, so a render's arena is
// a few KiB where a fixed 4096-element first chunk zeroed ~224 KiB of
// pointer-bearing memory per render. renderPixel resets the offset and keeps
// the last (largest) chunk, so once a chunk covers a whole pixel the render
// allocates nothing more.
func (ar *valArena) allocElems(n int) []Value {
	if ar.eoff+n > len(ar.earena) {
		// A new chunk; the old one stays alive while frame values reference
		// it and is collected afterwards.
		ar.earena = make([]Value, max(2*len(ar.earena), n, 64))
		ar.eoff = 0
	}
	s := ar.earena[ar.eoff : ar.eoff+n : ar.eoff+n]
	ar.eoff += n
	return s
}

// arenaClone is Value.Clone with element storage from the arena; the result
// is frame-bound only.
func (ar *valArena) arenaClone(v Value) Value {
	if v.Kind != KindComposite {
		return v
	}
	c := v
	c.Elems = ar.allocElems(len(v.Elems))
	for i, e := range v.Elems {
		c.Elems[i] = ar.arenaClone(e)
	}
	return c
}

// lanes2 is mapLanes2 with arena-backed element storage.
func (ar *valArena) lanes2(a, b Value, f func(x, y Value) (Value, error)) (Value, error) {
	if a.Kind == KindComposite && b.Kind == KindComposite {
		if len(a.Elems) != len(b.Elems) {
			return Value{}, faultf("lane count mismatch")
		}
		elems := ar.allocElems(len(a.Elems))
		for i := range a.Elems {
			v, err := f(a.Elems[i], b.Elems[i])
			if err != nil {
				return Value{}, err
			}
			elems[i] = v
		}
		return Value{Kind: KindComposite, Elems: elems}, nil
	}
	return f(a, b)
}

// evalBin executes one lanewise binary op. When the runtime operand kinds
// match the instruction's primitive class it computes directly from the
// unboxed primitive — no closure calls, element storage from the arena. Any
// shape the fast path does not cover (kind mismatches, lane count mismatch,
// scalar/vector mixes) falls back to the boxed semantic function, which is
// where the canonical fault messages live. The primitives are pure, so a
// partially-computed fast path can safely be recomputed by the fallback.
func (ar *valArena) evalBin(ins *pinstr, a, b Value) (Value, error) {
	switch ins.fclass {
	case fcFloat:
		if a.Kind == KindFloat && b.Kind == KindFloat {
			return FloatVal(ins.binF(a.F, b.F)), nil
		}
		if a.Kind == KindComposite && b.Kind == KindComposite && len(a.Elems) == len(b.Elems) {
			elems := ar.allocElems(len(a.Elems))
			for i := range a.Elems {
				x, y := &a.Elems[i], &b.Elems[i]
				if x.Kind != KindFloat || y.Kind != KindFloat {
					return ar.lanes2(a, b, ins.bin)
				}
				elems[i] = Value{Kind: KindFloat, F: ins.binF(x.F, y.F)}
			}
			return Value{Kind: KindComposite, Elems: elems}, nil
		}
	case fcInt:
		if a.Kind == KindInt && b.Kind == KindInt {
			return UintVal(ins.binI(a.Bits, b.Bits)), nil
		}
		if a.Kind == KindComposite && b.Kind == KindComposite && len(a.Elems) == len(b.Elems) {
			elems := ar.allocElems(len(a.Elems))
			for i := range a.Elems {
				x, y := &a.Elems[i], &b.Elems[i]
				if x.Kind != KindInt || y.Kind != KindInt {
					return ar.lanes2(a, b, ins.bin)
				}
				elems[i] = Value{Kind: KindInt, Bits: ins.binI(x.Bits, y.Bits)}
			}
			return Value{Kind: KindComposite, Elems: elems}, nil
		}
	case fcFloatCmp:
		if a.Kind == KindFloat && b.Kind == KindFloat {
			return BoolVal(ins.cmpF(a.F, b.F)), nil
		}
	case fcIntCmp:
		if a.Kind == KindInt && b.Kind == KindInt {
			return BoolVal(ins.cmpI(a.Bits, b.Bits)), nil
		}
	}
	return ar.lanes2(a, b, ins.bin)
}

// lanes1 is mapLanes1 with arena-backed element storage.
func (ar *valArena) lanes1(a Value, f func(x Value) (Value, error)) (Value, error) {
	if a.Kind == KindComposite {
		elems := ar.allocElems(len(a.Elems))
		for i := range a.Elems {
			v, err := f(a.Elems[i])
			if err != nil {
				return Value{}, err
			}
			elems[i] = v
		}
		return Value{Kind: KindComposite, Elems: elems}, nil
	}
	return f(a)
}

// newVM builds a machine with its own mutable module state: global cells
// cloned from their initializers (with uniforms applied) and a fixed pool
// whose global entries point at those cells.
func (p *Program) newVM(in Inputs) *vmachine {
	cells := make([]Cell, len(p.globals))
	for i, g := range p.globals {
		cells[i].V = g.init.Clone()
	}
	fixed := make([]Value, len(p.fixedProto))
	copy(fixed, p.fixedProto)
	for i, g := range p.fixedGlobal {
		if g >= 0 {
			fixed[i] = Value{Kind: KindPointer, Ptr: &Pointer{Cell: &cells[g]}}
		}
	}
	for _, u := range p.uniforms {
		if v, ok := in.Uniforms[u.name]; ok {
			cells[u.global].V = v.Clone()
		}
	}
	return &vmachine{p: p, cells: cells, fixed: fixed, arena: make([][][]Value, len(p.funcs))}
}

// acquire returns a cleared frame for function f from the arena.
func (vm *vmachine) acquire(f int32) []Value {
	pool := vm.arena[f]
	if n := len(pool); n > 0 {
		fr := pool[n-1]
		vm.arena[f] = pool[:n-1]
		clear(fr)
		return fr
	}
	return make([]Value, vm.p.funcs[f].nslots)
}

func (vm *vmachine) release(f int32, fr []Value) {
	vm.arena[f] = append(vm.arena[f], fr)
}

// read resolves an operand ref. The two hot cases — a written frame slot and
// a fixed-pool constant — stay small enough to inline; unset slots take the
// readSlow path.
func (vm *vmachine) read(pf *pfunc, fr []Value, ref int32) (Value, error) {
	if ref >= 0 {
		if v := fr[ref]; v.Kind != KindUnset {
			return v, nil
		}
		return vm.readSlow(pf, ref)
	}
	return vm.fixed[-ref-1], nil
}

// readSlow handles an unset frame slot: fall back to the module-level
// binding of the same id, mirroring the tree-walker's
// frame-then-consts-then-globals lookup, and fault with its message.
func (vm *vmachine) readSlow(pf *pfunc, ref int32) (Value, error) {
	if fb := pf.fallback[ref]; fb != refNone {
		return vm.fixed[-fb-1], nil
	}
	return Value{}, faultf("read of id %%%d with no value", pf.slotIDs[ref])
}

// call runs funcs[fidx] to completion, mirroring callFunction's fault order
// (depth, then arity) and step accounting exactly.
func (vm *vmachine) call(fidx int32, args []Value) (Value, error) {
	pf := &vm.p.funcs[fidx]
	vm.callDepth++
	defer func() { vm.callDepth-- }()
	if vm.callDepth > maxCallDepth {
		return Value{}, faultf("call depth limit exceeded in function %%%d", pf.id)
	}
	if len(args) != pf.nparams {
		return Value{}, faultf("function %%%d called with %d args, wants %d", pf.id, len(args), pf.nparams)
	}
	if pf.noBlocks != nil {
		return Value{}, pf.noBlocks
	}
	fr := vm.acquire(fidx)
	for i, s := range pf.paramSlots {
		fr[s] = args[i]
	}
	ret, err := vm.exec(pf, fr)
	vm.release(fidx, fr)
	return ret, err
}

// exec interprets one activation of pf over frame fr.
func (vm *vmachine) exec(pf *pfunc, fr []Value) (Value, error) {
	bi := int32(0)
	first := true
	var moves []pmove
	for {
		b := &pf.blocks[bi]
		vm.steps++
		if vm.steps > MaxSteps {
			return Value{}, faultf("step limit exceeded")
		}
		if first {
			first = false
			if pf.entryPhiFault != nil {
				return Value{}, pf.entryPhiFault
			}
		} else if len(moves) > 0 {
			// ϕ moves read simultaneously: stage every source, then write.
			vm.scratch = vm.scratch[:0]
			for i := range moves {
				mv := &moves[i]
				if mv.fault != nil {
					return Value{}, mv.fault
				}
				var v Value
				if r := mv.src; r < 0 {
					v = vm.fixed[-r-1]
				} else if v = fr[r]; v.Kind == KindUnset {
					w, err := vm.readSlow(pf, r)
					if err != nil {
						return Value{}, err
					}
					v = w
				}
				vm.scratch = append(vm.scratch, v)
			}
			for i := range moves {
				fr[moves[i].dst] = vm.scratch[i]
			}
		}

		for ii := range b.code {
			vm.steps++
			if vm.steps > MaxSteps {
				return Value{}, faultf("step limit exceeded")
			}
			ins := &b.code[ii]
			switch ins.op {
			case popFault:
				return Value{}, ins.fault

			case popBin:
				// Operand reads and the scalar fast paths are inlined by
				// hand: binary arithmetic dominates every real shader, and
				// read/evalBin exceed the compiler's inlining budget.
				var a, bv Value
				if r := ins.a; r < 0 {
					a = vm.fixed[-r-1]
				} else if a = fr[r]; a.Kind == KindUnset {
					v, err := vm.readSlow(pf, r)
					if err != nil {
						return Value{}, err
					}
					a = v
				}
				if r := ins.b; r < 0 {
					bv = vm.fixed[-r-1]
				} else if bv = fr[r]; bv.Kind == KindUnset {
					v, err := vm.readSlow(pf, r)
					if err != nil {
						return Value{}, err
					}
					bv = v
				}
				switch {
				case ins.fclass == fcFloat && a.Kind == KindFloat && bv.Kind == KindFloat:
					fr[ins.dst] = Value{Kind: KindFloat, F: ins.binF(a.F, bv.F)}
				case ins.fclass == fcFloatCmp && a.Kind == KindFloat && bv.Kind == KindFloat:
					fr[ins.dst] = Value{Kind: KindBool, B: ins.cmpF(a.F, bv.F)}
				case ins.fclass == fcInt && a.Kind == KindInt && bv.Kind == KindInt:
					fr[ins.dst] = Value{Kind: KindInt, Bits: ins.binI(a.Bits, bv.Bits)}
				case ins.fclass == fcIntCmp && a.Kind == KindInt && bv.Kind == KindInt:
					fr[ins.dst] = Value{Kind: KindBool, B: ins.cmpI(a.Bits, bv.Bits)}
				default:
					v, err := vm.evalBin(ins, a, bv)
					if err != nil {
						return Value{}, err
					}
					fr[ins.dst] = v
				}

			case popUn:
				a, err := vm.read(pf, fr, ins.a)
				if err != nil {
					return Value{}, err
				}
				v, err := vm.lanes1(a, ins.un)
				if err != nil {
					return Value{}, err
				}
				fr[ins.dst] = v

			case popSelect:
				c, err := vm.read(pf, fr, ins.a)
				if err != nil {
					return Value{}, err
				}
				a, err := vm.read(pf, fr, ins.b)
				if err != nil {
					return Value{}, err
				}
				bv, err := vm.read(pf, fr, ins.c)
				if err != nil {
					return Value{}, err
				}
				v, err := selectValue(c, a, bv)
				if err != nil {
					return Value{}, err
				}
				fr[ins.dst] = v

			case popVecScalar:
				vec, err := vm.read(pf, fr, ins.a)
				if err != nil {
					return Value{}, err
				}
				s, err := vm.read(pf, fr, ins.b)
				if err != nil {
					return Value{}, err
				}
				fr[ins.dst] = vectorTimesScalar(vec, s)

			case popMatVec:
				mat, err := vm.read(pf, fr, ins.a)
				if err != nil {
					return Value{}, err
				}
				vec, err := vm.read(pf, fr, ins.b)
				if err != nil {
					return Value{}, err
				}
				v, err := matrixTimesVector(mat, vec)
				if err != nil {
					return Value{}, err
				}
				fr[ins.dst] = v

			case popDot:
				a, err := vm.read(pf, fr, ins.a)
				if err != nil {
					return Value{}, err
				}
				bv, err := vm.read(pf, fr, ins.b)
				if err != nil {
					return Value{}, err
				}
				fr[ins.dst] = dot(a, bv)

			case popConstruct:
				elems := vm.allocElems(len(ins.args))
				for i, r := range ins.args {
					var v Value
					if r < 0 {
						v = vm.fixed[-r-1]
					} else if v = fr[r]; v.Kind == KindUnset {
						w, err := vm.readSlow(pf, r)
						if err != nil {
							return Value{}, err
						}
						v = w
					}
					elems[i] = v
				}
				fr[ins.dst] = Value{Kind: KindComposite, Elems: elems}

			case popExtract:
				var v Value
				if r := ins.a; r < 0 {
					v = vm.fixed[-r-1]
				} else if v = fr[r]; v.Kind == KindUnset {
					w, err := vm.readSlow(pf, r)
					if err != nil {
						return Value{}, err
					}
					v = w
				}
				if len(ins.lits) == 1 && v.Kind == KindComposite && int(ins.lits[0]) < len(v.Elems) {
					fr[ins.dst] = v.Elems[ins.lits[0]]
					continue
				}
				v, err := compositeExtract(v, ins.lits)
				if err != nil {
					return Value{}, err
				}
				fr[ins.dst] = v

			case popInsert:
				obj, err := vm.read(pf, fr, ins.a)
				if err != nil {
					return Value{}, err
				}
				base, err := vm.read(pf, fr, ins.b)
				if err != nil {
					return Value{}, err
				}
				v, err := compositeInsert(obj, base, ins.lits)
				if err != nil {
					return Value{}, err
				}
				fr[ins.dst] = v

			case popShuffle:
				a, err := vm.read(pf, fr, ins.a)
				if err != nil {
					return Value{}, err
				}
				bv, err := vm.read(pf, fr, ins.b)
				if err != nil {
					return Value{}, err
				}
				v, err := vectorShuffle(a, bv, ins.lits)
				if err != nil {
					return Value{}, err
				}
				fr[ins.dst] = v

			case popCopy:
				var v Value
				if r := ins.a; r < 0 {
					v = vm.fixed[-r-1]
				} else if v = fr[r]; v.Kind == KindUnset {
					w, err := vm.readSlow(pf, r)
					if err != nil {
						return Value{}, err
					}
					v = w
				}
				fr[ins.dst] = v

			case popZero:
				fr[ins.dst] = vm.arenaClone(ins.zero)

			case popVariable:
				var init Value
				if ins.a != refNone {
					v, err := vm.read(pf, fr, ins.a)
					if err != nil {
						return Value{}, err
					}
					init = v.Clone()
				} else {
					init = ins.zero.Clone()
				}
				// A fresh cell per execution: escaped pointers from earlier
				// activations stay valid, as with the tree-walker.
				cell := &Cell{V: init}
				fr[ins.dst] = Value{Kind: KindPointer, Ptr: &Pointer{Cell: cell}}

			case popLoad:
				var pv Value
				if r := ins.a; r < 0 {
					pv = vm.fixed[-r-1]
				} else if pv = fr[r]; pv.Kind == KindUnset {
					w, err := vm.readSlow(pf, r)
					if err != nil {
						return Value{}, err
					}
					pv = w
				}
				if pv.Kind != KindPointer {
					return Value{}, faultf("OpLoad of non-pointer %%%d", ins.msgID)
				}
				fr[ins.dst] = vm.loadPtr(pv.Ptr)

			case popStore:
				var pv, v Value
				if r := ins.a; r < 0 {
					pv = vm.fixed[-r-1]
				} else if pv = fr[r]; pv.Kind == KindUnset {
					w, err := vm.readSlow(pf, r)
					if err != nil {
						return Value{}, err
					}
					pv = w
				}
				if r := ins.b; r < 0 {
					v = vm.fixed[-r-1]
				} else if v = fr[r]; v.Kind == KindUnset {
					w, err := vm.readSlow(pf, r)
					if err != nil {
						return Value{}, err
					}
					v = w
				}
				if pv.Kind != KindPointer {
					return Value{}, faultf("OpStore to non-pointer %%%d", ins.msgID)
				}
				storePtr(pv.Ptr, v)

			case popAccessChain:
				base, err := vm.read(pf, fr, ins.a)
				if err != nil {
					return Value{}, err
				}
				if base.Kind != KindPointer {
					return Value{}, faultf("OpAccessChain on non-pointer %%%d", ins.msgID)
				}
				ptr := base.Ptr
				for _, r := range ins.args {
					idx, err := vm.read(pf, fr, r)
					if err != nil {
						return Value{}, err
					}
					ptr = ptr.Elem(int(int32(idx.Bits)))
				}
				fr[ins.dst] = Value{Kind: KindPointer, Ptr: ptr}

			case popCall:
				args := vm.argbuf[:0]
				for _, r := range ins.args {
					v, err := vm.read(pf, fr, r)
					if err != nil {
						return Value{}, err
					}
					args = append(args, v)
				}
				vm.argbuf = args // keep grown capacity for reuse
				ret, err := vm.call(ins.callee, args)
				if err != nil {
					return Value{}, err
				}
				if ins.dst != refNone {
					fr[ins.dst] = ret
				}

			case popNop:
				// costs a step, like the tree-walker's OpNop
			}
		}

		t := &b.term
		var e *pedge
		switch t.kind {
		case tkBranch:
			e = &t.edges[0]
		case tkCondBr:
			var c Value
			if r := t.sel; r < 0 {
				c = vm.fixed[-r-1]
			} else if c = fr[r]; c.Kind == KindUnset {
				w, err := vm.readSlow(pf, r)
				if err != nil {
					return Value{}, err
				}
				c = w
			}
			if c.Kind != KindBool {
				return Value{}, faultf("conditional branch on non-boolean in %%%d", t.label)
			}
			if c.B {
				e = &t.edges[0]
			} else {
				e = &t.edges[1]
			}
		case tkSwitch:
			sel, err := vm.read(pf, fr, t.sel)
			if err != nil {
				return Value{}, err
			}
			if sel.Kind != KindInt {
				return Value{}, faultf("switch on non-integer selector in block %%%d", t.label)
			}
			if ei, ok := t.jump[sel.Bits]; ok {
				e = &t.edges[ei]
			} else {
				e = &t.edges[0]
			}
		case tkReturn:
			return Value{}, nil
		case tkReturnValue:
			return vm.read(pf, fr, t.ret)
		case tkKill:
			return Value{}, errKill
		default: // tkFault
			return Value{}, t.fault
		}
		if e.fault != nil {
			return Value{}, e.fault
		}
		moves = e.moves
		bi = e.target
	}
}

// loadPtr is Pointer.Load with the copy taken from the arena: loaded values
// land in frame slots, and anything stored back into a cell is copied into
// the cell's own storage by storePtr.
func (vm *vmachine) loadPtr(p *Pointer) Value {
	v := &p.Cell.V
	for _, i := range p.Path {
		v = &v.Elems[i]
	}
	return vm.arenaClone(*v)
}

// storePtr is Pointer.Store reusing the target's element storage: resetValue
// copies v into the cell's existing elements wherever the shapes match and
// heap-clones the rest, so v's arena-backed elements never reach the cell.
// Writing in place is sound because a cell owns its element storage
// exclusively: loads arena-clone (loadPtr), and global, uniform and variable
// cells start from heap clones, so no frame value, constant or other cell
// aliases it. The tree-walker's Pointer.Store stays the reference.
func storePtr(p *Pointer, v Value) {
	dst := &p.Cell.V
	for _, i := range p.Path {
		dst = &dst.Elems[i]
	}
	resetValue(dst, v)
}

// resetColor writes the program's output zero into the color cell, reusing
// the cell's existing element storage when the shape still matches (the
// common case: storePtr keeps the cell's shape, so after the first pixel no
// allocation is needed).
func (vm *vmachine) resetColor() {
	resetValue(&vm.cells[vm.p.color].V, vm.p.colorZero)
}

// resetValue sets *dst to a deep copy of proto, writing into dst's existing
// element storage wherever the composite shapes match and heap-cloning the
// rest. proto's own storage is only read, never retained.
func resetValue(dst *Value, proto Value) {
	if proto.Kind == KindComposite && dst.Kind == KindComposite && len(dst.Elems) == len(proto.Elems) {
		elems := dst.Elems
		for i := range elems {
			resetValue(&elems[i], proto.Elems[i])
		}
		*dst = proto
		dst.Elems = elems
		return
	}
	*dst = proto.Clone()
}

// setCoord updates the coordinate input cell, in place when the cell still
// holds a two-float vector (the common case after the first pixel).
func (vm *vmachine) setCoord(cx, cy float32) {
	v := &vm.cells[vm.p.coord].V
	if v.Kind == KindComposite && len(v.Elems) == 2 &&
		v.Elems[0].Kind == KindFloat && v.Elems[1].Kind == KindFloat {
		v.Elems[0].F = cx
		v.Elems[1].F = cy
		return
	}
	*v = Vec2(cx, cy)
}

// Render executes the compiled program for every pixel of the grid in scan
// order on one machine. A fault aborts the render with the first faulting
// pixel's error, as the tree-walker's does.
func (p *Program) Render(in Inputs) (*Image, error) {
	w, h := in.W, in.H
	if w == 0 {
		w = DefaultGrid
	}
	if h == 0 {
		h = DefaultGrid
	}
	img := &Image{W: w, H: h, Pix: make([]uint8, 4*w*h)}
	vm := p.newVM(in)
	for y := 0; y < h; y++ {
		for x := 0; x < w; x++ {
			if err := p.renderPixel(vm, img, x, y); err != nil {
				return nil, err
			}
		}
	}
	return img, nil
}

// renderPixel runs one full pixel on the machine and writes its quantized
// color (or transparent black for a discarded fragment) into img.
func (p *Program) renderPixel(vm *vmachine, img *Image, x, y int) error {
	w, h := img.W, img.H
	if p.coord >= 0 {
		cx := (float32(x) + 0.5) / float32(w)
		cy := (float32(y) + 0.5) / float32(h)
		vm.setCoord(cx, cy)
	}
	vm.resetColor()
	vm.steps = 0
	vm.eoff = 0 // recycle the element arena: frame values are dead
	_, err := vm.call(p.entry, nil)
	pi := 4 * (y*w + x)
	if err == errKill {
		// Discarded fragment: transparent black.
		img.Pix[pi], img.Pix[pi+1], img.Pix[pi+2], img.Pix[pi+3] = 0, 0, 0, 0
		return nil
	}
	if err != nil {
		return err
	}
	writePixel(img.Pix[pi:pi+4:pi+4], vm.cells[p.color].V)
	return nil
}

// writePixel quantizes an output color value into four Pix bytes.
func writePixel(dst []uint8, out Value) {
	var rgba [4]float32
	switch out.Kind {
	case KindComposite:
		for i := 0; i < 4 && i < len(out.Elems); i++ {
			rgba[i] = out.Elems[i].F
		}
	case KindFloat:
		rgba[0] = out.F
	}
	for i := 0; i < 4; i++ {
		dst[i] = quantize(rgba[i])
	}
}
