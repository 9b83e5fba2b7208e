package fuzz

// The sequence decoder's two halves, for the codec identity tests: the
// one-pass decoder alone, and the encoding/json decoder it falls back to.
var (
	DecodeSequenceFast    = decodeSequenceFast
	UnmarshalSequenceJSON = unmarshalSequenceJSON
)
