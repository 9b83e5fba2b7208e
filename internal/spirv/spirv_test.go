package spirv_test

import (
	"reflect"
	"strings"
	"testing"
	"testing/quick"

	"spirvfuzz/internal/spirv"
)

// buildDiamond constructs a small fragment shader with an if/else diamond
// and a ϕ at the merge, used across the spirv package tests:
//
//	entry:  c = Load coord; x = c.x; cond = x < 0.5
//	        SelectionMerge merge; BranchConditional cond, left, right
//	left:   v1 = 1.0; Branch merge
//	right:  v2 = 0.25; Branch merge
//	merge:  r = ϕ(v1←left, v2←right); Store color vec4(r,r,r,1); Return
func buildDiamond(t testing.TB) *spirv.Module {
	t.Helper()
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

func TestStringRoundTrip(t *testing.T) {
	cases := []string{"", "a", "main", "coordinates", "exactly8", "ninechars"}
	for _, s := range cases {
		words := spirv.EncodeString(s)
		got, n := spirv.DecodeString(words)
		if got != s || n != len(words) {
			t.Errorf("round trip %q: got %q, consumed %d of %d words", s, got, n, len(words))
		}
	}
}

func TestStringRoundTripProperty(t *testing.T) {
	prop := func(s string) bool {
		s = strings.ReplaceAll(s, "\x00", "") // SPIR-V strings are nul-terminated
		got, _ := spirv.DecodeString(spirv.EncodeString(s))
		return got == s
	}
	if err := quick.Check(prop, nil); err != nil {
		t.Fatal(err)
	}
}

func TestInstructionUses(t *testing.T) {
	// OpEntryPoint Fragment %4 "main" %2 %3 — ids are %4 (fixed), %2 %3
	// (variadic), and the string must not be misread as ids.
	ops := []uint32{spirv.ExecutionModelFragment, 4}
	ops = append(ops, spirv.EncodeString("main")...)
	ops = append(ops, 2, 3)
	ins := spirv.NewInstr(spirv.OpEntryPoint, 0, 0, ops...)
	var uses []spirv.ID
	ins.Uses(func(id spirv.ID) { uses = append(uses, id) })
	if !reflect.DeepEqual(uses, []spirv.ID{4, 2, 3}) {
		t.Fatalf("uses = %v, want [4 2 3]", uses)
	}
}

// Uses and MapUses run over every instruction in DCE's use count and in
// every id remap, so they must not allocate, string operands included.
func TestUsesAllocatesNothing(t *testing.T) {
	entry := spirv.NewInstr(spirv.OpEntryPoint, 0, 0, append(append([]uint32{spirv.ExecutionModelFragment, 4}, spirv.EncodeString("main")...), 2, 3)...)
	phi := spirv.NewInstr(spirv.OpPhi, 6, 10, 7, 2, 8, 3)
	var sum spirv.ID
	allocs := testing.AllocsPerRun(100, func() {
		for _, ins := range []*spirv.Instruction{entry, phi} {
			ins.Uses(func(id spirv.ID) { sum += id })
			ins.MapUses(func(id spirv.ID) spirv.ID { return id })
		}
	})
	if allocs != 0 {
		t.Fatalf("Uses/MapUses allocated %.0f times per run, want 0", allocs)
	}
}

func TestMapUsesPreservesLiterals(t *testing.T) {
	// OpCompositeExtract %f %c 0 2 — the literals 0 and 2 must survive an id
	// remap even when they collide with id numbers.
	ins := spirv.NewInstr(spirv.OpCompositeExtract, 7, 9, 5, 0, 2)
	ins.MapUses(func(id spirv.ID) spirv.ID { return id + 100 })
	if ins.Type != 107 || ins.Operands[0] != 105 {
		t.Fatalf("ids not remapped: %v", ins)
	}
	if ins.Operands[1] != 0 || ins.Operands[2] != 2 {
		t.Fatalf("literals corrupted: %v", ins.Operands)
	}
	if ins.Result != 9 {
		t.Fatalf("MapUses must not touch the result id")
	}
}

func TestPhiUses(t *testing.T) {
	phi := spirv.NewInstr(spirv.OpPhi, 6, 10, 7, 2, 8, 3)
	var uses []spirv.ID
	phi.Uses(func(id spirv.ID) { uses = append(uses, id) })
	if !reflect.DeepEqual(uses, []spirv.ID{6, 7, 2, 8, 3}) {
		t.Fatalf("phi uses = %v", uses)
	}
}

func TestBlockSuccessors(t *testing.T) {
	b := &spirv.Block{Label: 1, Term: spirv.NewInstr(spirv.OpBranchConditional, 0, 0, 9, 2, 3)}
	if got := b.Successors(); !reflect.DeepEqual(got, []spirv.ID{2, 3}) {
		t.Fatalf("successors = %v", got)
	}
	b.Term = spirv.NewInstr(spirv.OpSwitch, 0, 0, 9, 4, 0, 5, 1, 6)
	if got := b.Successors(); !reflect.DeepEqual(got, []spirv.ID{4, 5, 6}) {
		t.Fatalf("switch successors = %v", got)
	}
	b.Term = spirv.NewInstr(spirv.OpKill, 0, 0)
	if got := b.Successors(); got != nil {
		t.Fatalf("kill successors = %v", got)
	}
}

func TestBinaryRoundTrip(t *testing.T) {
	m := buildDiamond(t)
	data := m.EncodeBytes()
	if len(data)%4 != 0 || len(data) < 20 {
		t.Fatalf("bad binary size %d", len(data))
	}
	back, err := spirv.DecodeBytes(data)
	if err != nil {
		t.Fatalf("DecodeBytes: %v", err)
	}
	// The decoded module must re-encode to identical bytes.
	data2 := back.EncodeBytes()
	if !reflect.DeepEqual(data, data2) {
		t.Fatal("binary round trip is not stable")
	}
	if back.String() != m.String() {
		t.Fatalf("listing mismatch:\n%s\nvs\n%s", back.String(), m.String())
	}
	if back.InstructionCount() != m.InstructionCount() {
		t.Fatalf("instruction count %d != %d", back.InstructionCount(), m.InstructionCount())
	}
}

func TestDecodeRejectsGarbage(t *testing.T) {
	if _, err := spirv.DecodeBytes([]byte{1, 2, 3}); err == nil {
		t.Error("misaligned input accepted")
	}
	if _, err := spirv.DecodeBytes(make([]byte, 8)); err == nil {
		t.Error("short input accepted")
	}
	bad := buildDiamond(t).EncodeBytes()
	bad[0] = 0x42 // corrupt magic
	if _, err := spirv.DecodeBytes(bad); err == nil {
		t.Error("bad magic accepted")
	}
}

func TestDecodeRejectsTruncatedInstruction(t *testing.T) {
	words := []uint32{spirv.Magic, spirv.Version15, 0, 10, 0, uint32(99) << 16}
	if _, err := spirv.DecodeWords(words); err == nil {
		t.Error("truncated instruction accepted")
	}
}

func TestEnsureTypesDeduplicate(t *testing.T) {
	m := spirv.NewModule()
	a := m.EnsureTypeInt(32, true)
	b := m.EnsureTypeInt(32, true)
	if a != b {
		t.Error("EnsureTypeInt must deduplicate")
	}
	if u := m.EnsureTypeInt(32, false); u == a {
		t.Error("signedness must distinguish types")
	}
	v1 := m.EnsureTypeVector(m.EnsureTypeFloat(32), 4)
	v2 := m.EnsureTypeVector(m.EnsureTypeFloat(32), 4)
	if v1 != v2 {
		t.Error("EnsureTypeVector must deduplicate")
	}
	c1 := m.EnsureConstantInt(42)
	c2 := m.EnsureConstantInt(42)
	if c1 != c2 {
		t.Error("EnsureConstantInt must deduplicate")
	}
	if n, ok := m.ConstantIntValue(c1); !ok || n != 42 {
		t.Errorf("ConstantIntValue = %d, %t", n, ok)
	}
	if c3 := m.EnsureConstantInt(-1); c3 == c1 {
		t.Error("distinct constants must differ")
	} else if n, ok := m.ConstantIntValue(c3); !ok || n != -1 {
		t.Errorf("ConstantIntValue(-1) = %d, %t", n, ok)
	}
	f := m.EnsureConstantFloat(1.5)
	if v, ok := m.ConstantFloatValue(f); !ok || v != 1.5 {
		t.Errorf("ConstantFloatValue = %v, %t", v, ok)
	}
	bt := m.EnsureConstantBool(true)
	if v, ok := m.ConstantBoolValue(bt); !ok || !v {
		t.Errorf("ConstantBoolValue = %v, %t", v, ok)
	}
}

func TestTypeIntrospection(t *testing.T) {
	m := spirv.NewModule()
	f32 := m.EnsureTypeFloat(32)
	vec3 := m.EnsureTypeVector(f32, 3)
	mat2 := m.EnsureTypeMatrix(m.EnsureTypeVector(f32, 2), 2)
	n4 := m.EnsureConstantInt(4)
	arr := m.EnsureTypeArray(vec3, n4)
	st := m.EnsureTypeStruct(f32, vec3)
	ptr := m.EnsureTypePointer(spirv.StorageFunction, st)

	if elem, n, ok := m.VectorInfo(vec3); !ok || elem != f32 || n != 3 {
		t.Errorf("VectorInfo = %v %v %v", elem, n, ok)
	}
	if _, cols, ok := m.MatrixInfo(mat2); !ok || cols != 2 {
		t.Errorf("MatrixInfo cols = %d, %t", cols, ok)
	}
	if elem, lc, ok := m.ArrayInfo(arr); !ok || elem != vec3 || lc != n4 {
		t.Errorf("ArrayInfo = %v %v %v", elem, lc, ok)
	}
	if members := m.StructMembers(st); len(members) != 2 || members[1] != vec3 {
		t.Errorf("StructMembers = %v", members)
	}
	if storage, pointee, ok := m.PointerInfo(ptr); !ok || storage != spirv.StorageFunction || pointee != st {
		t.Errorf("PointerInfo = %v %v %v", storage, pointee, ok)
	}
	if n, ok := m.CompositeMemberCount(arr); !ok || n != 4 {
		t.Errorf("CompositeMemberCount(arr) = %d, %t", n, ok)
	}
	if mt, ok := m.CompositeMemberType(st, 1); !ok || mt != vec3 {
		t.Errorf("CompositeMemberType(st, 1) = %v, %t", mt, ok)
	}
	key := m.TypeKey(st)
	if key != "struct{float32,vec3<float32>}" {
		t.Errorf("TypeKey = %q", key)
	}
}

func TestModuleCloneIsDeep(t *testing.T) {
	m := buildDiamond(t)
	c := m.Clone()
	// Mutate the clone heavily and check the original is untouched.
	before := m.String()
	c.Functions[0].Blocks[0].Body[0].Operands[0] = 999
	c.TypesGlobals[0].Result = 998
	c.Functions[0].Blocks = c.Functions[0].Blocks[:1]
	c.Bound += 50
	if m.String() != before {
		t.Fatal("Clone is not deep")
	}
}

func TestOpcodeByName(t *testing.T) {
	op, ok := spirv.OpcodeByName("OpIAdd")
	if !ok || op != spirv.OpIAdd {
		t.Fatalf("OpcodeByName(OpIAdd) = %v, %t", op, ok)
	}
	if _, ok := spirv.OpcodeByName("OpBogus"); ok {
		t.Fatal("unknown name accepted")
	}
	if spirv.OpIAdd.String() != "OpIAdd" {
		t.Fatalf("String = %q", spirv.OpIAdd.String())
	}
}

func TestDefAndTypeOf(t *testing.T) {
	m := buildDiamond(t)
	fn := m.EntryPointFunction()
	if fn == nil {
		t.Fatal("no entry point")
	}
	// The ϕ lives in the merge block and has float type.
	merge := fn.Blocks[len(fn.Blocks)-1]
	if len(merge.Phis) != 1 {
		t.Fatalf("merge block has %d phis", len(merge.Phis))
	}
	phi := merge.Phis[0]
	if def := m.Def(phi.Result); def != phi {
		t.Error("Def should find the ϕ instruction")
	}
	if m.TypeOf(phi.Result) != phi.Type {
		t.Error("TypeOf mismatch for ϕ")
	}
	if m.Def(9999) != nil {
		t.Error("Def of unknown id should be nil")
	}
}

func TestInstructionCountMatchesListing(t *testing.T) {
	m := buildDiamond(t)
	lines := strings.Count(strings.TrimRight(m.String(), "\n"), "\n") + 1
	if got := m.InstructionCount(); got != lines {
		t.Fatalf("InstructionCount = %d, listing has %d lines", got, lines)
	}
}

func TestFunctionAndBlockHelpers(t *testing.T) {
	m := buildDiamond(t)
	fn := m.EntryPointFunction()
	if fn.BlockIndex(fn.Blocks[2].Label) != 2 {
		t.Fatal("BlockIndex wrong")
	}
	if fn.BlockIndex(9999) != -1 {
		t.Fatal("BlockIndex should be -1 for missing label")
	}
	entry := fn.Entry()
	if got := entry.FindBody(entry.Body[1].Result); got != 1 {
		t.Fatalf("FindBody = %d", got)
	}
	if entry.FindBody(9999) != -1 {
		t.Fatal("FindBody should be -1 for missing id")
	}
	first := m.ReserveIDs(3)
	if m.Bound != first+3 {
		t.Fatalf("ReserveIDs: bound %d, first %d", m.Bound, first)
	}
	if fn.ReturnType() != fn.Def.Type || fn.Control() != spirv.FunctionControlNone {
		t.Fatal("function accessors broken")
	}
	fn.SetControl(spirv.FunctionControlInline)
	if fn.Control() != spirv.FunctionControlInline {
		t.Fatal("SetControl broken")
	}
	// Module without entry points.
	empty := spirv.NewModule()
	if empty.EntryPointFunction() != nil {
		t.Fatal("EntryPointFunction on empty module should be nil")
	}
	if empty.Function(4) != nil {
		t.Fatal("Function lookup on empty module should be nil")
	}
}

func TestNewBlockHasReturnTerminator(t *testing.T) {
	b := spirv.NewBlock(7)
	if b.Label != 7 || b.Term == nil || b.Term.Op != spirv.OpReturn {
		t.Fatalf("NewBlock = %+v", b)
	}
}

func TestBuilderPanicsOnMisuse(t *testing.T) {
	expectPanic := func(name string, f func()) {
		t.Helper()
		defer func() {
			if recover() == nil {
				t.Errorf("%s: expected panic", name)
			}
		}()
		f()
	}
	expectPanic("Begin outside function", func() {
		b := spirv.NewBuilder()
		b.Begin(b.NewLabel())
	})
	expectPanic("Emit outside block", func() {
		b := spirv.NewBuilder()
		b.EmitWords(spirv.OpNop, 0)
	})
	expectPanic("EndFunction with open block", func() {
		b := spirv.NewBuilder()
		void := b.Mod.EnsureTypeVoid()
		b.BeginFunction("f", void, spirv.FunctionControlNone)
		b.BeginNew()
		b.EndFunction()
	})
	expectPanic("nested BeginFunction", func() {
		b := spirv.NewBuilder()
		void := b.Mod.EnsureTypeVoid()
		b.BeginFunction("f", void, spirv.FunctionControlNone)
		b.BeginFunction("g", void, spirv.FunctionControlNone)
	})
	expectPanic("terminator outside block", func() {
		b := spirv.NewBuilder()
		b.Return()
	})
	expectPanic("odd phi pairs", func() {
		b := spirv.NewBuilder()
		void := b.Mod.EnsureTypeVoid()
		b.BeginFunction("f", void, spirv.FunctionControlNone)
		b.BeginNew()
		b.Phi(void, 1)
	})
}
