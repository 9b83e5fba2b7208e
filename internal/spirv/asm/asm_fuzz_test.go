package asm_test

import (
	"testing"

	"spirvfuzz/internal/corpus"
	"spirvfuzz/internal/spirv/asm"
)

// FuzzParse feeds the assembler arbitrary text, seeded with the reference
// corpus's listings. No input may panic, and an accepted input must reach
// a fixpoint: its disassembly parses again and disassembles to the same
// text.
func FuzzParse(f *testing.F) {
	for _, it := range corpus.References() {
		f.Add(asm.Disassemble(it.Mod))
	}
	f.Fuzz(func(t *testing.T, text string) {
		m, err := asm.Parse(text)
		if err != nil {
			return
		}
		dis := asm.Disassemble(m)
		back, err := asm.Parse(dis)
		if err != nil {
			t.Fatalf("disassembly of an accepted listing does not parse: %v\n%s", err, dis)
		}
		if again := asm.Disassemble(back); again != dis {
			t.Fatalf("parse→disassemble is not a fixpoint:\n%s\nvs\n%s", again, dis)
		}
	})
}
