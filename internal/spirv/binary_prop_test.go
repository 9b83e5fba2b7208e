package spirv_test

import (
	"bytes"
	"crypto/sha256"
	"fmt"
	"testing"
	"testing/quick"

	"spirvfuzz/internal/corpus"
	"spirvfuzz/internal/fuzz"
	"spirvfuzz/internal/spirv"
	"spirvfuzz/internal/testmod"
)

// TestBinaryRoundTripProperty: random valid modules (corpus shapes with
// random fuzzing happens elsewhere; here, structurally random-but-wellformed
// instruction streams) encode and decode to identical words.
func TestBinaryRoundTripProperty(t *testing.T) {
	prop := func(seed uint32) bool {
		m := spirv.NewModule()
		// Build a random straight-line function from a small op menu with
		// correct shapes, driven by the seed.
		s := seed
		next := func(mod uint32) uint32 { s = s*1664525 + 1013904223; return s % mod }
		void := m.EnsureTypeVoid()
		f32 := m.EnsureTypeFloat(32)
		i32 := m.EnsureTypeInt(32, true)
		fnType := m.EnsureTypeFunction(void)
		consts := []spirv.ID{
			m.EnsureConstantFloat(1), m.EnsureConstantFloat(0.25),
		}
		ints := []spirv.ID{m.EnsureConstantInt(3), m.EnsureConstantInt(-9)}
		fn := &spirv.Function{Def: spirv.NewInstr(spirv.OpFunction, void, m.FreshID(), spirv.FunctionControlNone, uint32(fnType))}
		b := &spirv.Block{Label: m.FreshID()}
		floats := append([]spirv.ID{}, consts...)
		intsV := append([]spirv.ID{}, ints...)
		n := int(next(12)) + 1
		for i := 0; i < n; i++ {
			switch next(3) {
			case 0:
				id := m.FreshID()
				b.Body = append(b.Body, spirv.NewInstr(spirv.OpFAdd, f32, id,
					uint32(floats[next(uint32(len(floats)))]), uint32(floats[next(uint32(len(floats)))])))
				floats = append(floats, id)
			case 1:
				id := m.FreshID()
				b.Body = append(b.Body, spirv.NewInstr(spirv.OpIMul, i32, id,
					uint32(intsV[next(uint32(len(intsV)))]), uint32(intsV[next(uint32(len(intsV)))])))
				intsV = append(intsV, id)
			default:
				id := m.FreshID()
				b.Body = append(b.Body, spirv.NewInstr(spirv.OpCopyObject, f32, id,
					uint32(floats[next(uint32(len(floats)))])))
				floats = append(floats, id)
			}
		}
		b.Term = spirv.NewInstr(spirv.OpReturn, 0, 0)
		fn.Blocks = []*spirv.Block{b}
		m.Functions = append(m.Functions, fn)

		words := m.EncodeWords()
		back, err := spirv.DecodeWords(words)
		if err != nil {
			return false
		}
		words2 := back.EncodeWords()
		if len(words) != len(words2) {
			return false
		}
		for i := range words {
			if words[i] != words2[i] {
				return false
			}
		}
		return back.String() == m.String()
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 150}); err != nil {
		t.Fatal(err)
	}
}

// TestEncodeAllCanonicalModulesStable: the byte encodings of the canonical
// modules, the corpus references and fuzzed variants are stable across clone
// and re-encode, and each module's streamed Fingerprint is exactly the
// SHA-256 of those bytes — runner cache keys and the persistent memo's keys
// derive from it, so it must never drift from the encoding. A module mutated
// by hand after a fingerprint refingerprints to its new encoding once
// invalidated.
func TestEncodeAllCanonicalModulesStable(t *testing.T) {
	mods := map[string]*spirv.Module{}
	for name, m := range testmod.All() {
		mods[name] = m
	}
	refs := corpus.References()
	for _, item := range refs {
		mods["corpus/"+item.Name] = item.Mod
	}
	for i := 0; i < 6; i++ {
		item := refs[i*3%len(refs)]
		res, err := fuzz.Fuzz(item.Mod, item.Inputs, fuzz.Options{Seed: int64(400 + i), Donors: []*spirv.Module{refs[0].Mod}})
		if err != nil {
			t.Fatalf("fuzz %s: %v", item.Name, err)
		}
		mods[fmt.Sprintf("fuzzed/%s/%d", item.Name, i)] = res.Variant
	}
	for name, m := range mods {
		a := m.EncodeBytes()
		b := m.Clone().EncodeBytes()
		if !bytes.Equal(a, b) {
			t.Fatalf("%s: clone encodes differently", name)
		}
		if got, want := m.Fingerprint(), sha256.Sum256(a); got != want {
			t.Fatalf("%s: Fingerprint %x != SHA-256 of EncodeBytes %x", name, got, want)
		}
	}

	m := testmod.Diamond()
	before := m.Fingerprint()
	fn := m.EntryPointFunction()
	fn.Blocks[0].Body = append(fn.Blocks[0].Body, spirv.NewInstr(spirv.OpNop, 0, 0))
	m.Names = append(m.Names, spirv.NewInstr(spirv.OpName, 0, 0, uint32(fn.ID()), 0))
	if m.Fingerprint() != before {
		t.Fatal("hand mutation changed the cached fingerprint before invalidation")
	}
	m.InvalidateFingerprint()
	after := m.Fingerprint()
	if after == before {
		t.Fatal("mutated module kept its old fingerprint after InvalidateFingerprint")
	}
	if want := sha256.Sum256(m.EncodeBytes()); after != want {
		t.Fatalf("mutated module: Fingerprint %x != SHA-256 of EncodeBytes %x", after, want)
	}
}
