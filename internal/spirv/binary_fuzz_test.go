package spirv_test

import (
	"bytes"
	"testing"

	"spirvfuzz/internal/corpus"
	"spirvfuzz/internal/spirv"
)

// FuzzDecodeBytes feeds the SPIR-V binary decoder arbitrary bytes, seeded
// with the reference corpus's encodings. No input may panic, and an
// accepted input must reach a fixpoint: its re-encoding decodes again and
// re-encodes to the same bytes.
func FuzzDecodeBytes(f *testing.F) {
	for _, it := range corpus.References() {
		f.Add(it.Mod.EncodeBytes())
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		m, err := spirv.DecodeBytes(data)
		if err != nil {
			return
		}
		enc := m.EncodeBytes()
		back, err := spirv.DecodeBytes(enc)
		if err != nil {
			t.Fatalf("re-encoding of an accepted module does not decode: %v", err)
		}
		if again := back.EncodeBytes(); !bytes.Equal(again, enc) {
			t.Fatalf("decode→encode is not a fixpoint:\n%x\nvs\n%x", again, enc)
		}
	})
}
