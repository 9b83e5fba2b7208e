package fuzz

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math"
	"reflect"
	"slices"
	"sort"
	"strconv"
	"strings"

	"spirvfuzz/internal/canonjson"
	"spirvfuzz/internal/spirv"
)

// This file serializes transformation sequences. The real spirv-fuzz encodes
// transformations as Protocol Buffers; this reproduction uses JSON. The
// property that matters is preserved: a serialized sequence is fully
// self-contained (AddFunction embeds the donated function, InlineFunction
// embeds its fresh-id map) so replay needs only the original module and
// inputs.
//
// A sequence is stored as the bytes json.MarshalIndent(envs, "", "  ")
// writes for envs []recordEnvelope, each envelope's args being the
// transformation's struct. The codec writes those bytes and reads them
// back in one pass, driven by a field plan per transformation type built
// from the structs' json tags; input in any other shape is decoded by
// encoding/json (unmarshalSequenceJSON), which also reports every error.

// registry maps a transformation's Type() string to its factory and field
// plan.
var registry = map[string]registered{}

type registered struct {
	// mk returns a pointer to a zero value of the type.
	mk   func() Transformation
	ptr  reflect.Type
	plan *structPlan
}

// register installs a factory; called from init functions next to each
// transformation type.
func register(name string, f func() Transformation) {
	if _, dup := registry[name]; dup {
		panic("fuzz: duplicate transformation type " + name)
	}
	ptr := reflect.TypeOf(f())
	registry[name] = registered{mk: f, ptr: ptr, plan: planOf(ptr.Elem())}
}

// RegisteredTypes returns all transformation type names, sorted.
func RegisteredTypes() []string {
	out := make([]string, 0, len(registry))
	for k := range registry {
		out = append(out, k)
	}
	sort.Strings(out)
	return out
}

type recordEnvelope struct {
	Type string          `json:"type"`
	Args json.RawMessage `json:"args"`
}

// fieldKind is how the codec reads and writes one struct field.
type fieldKind uint8

const (
	kUint32   fieldKind = iota // spirv.ID, uint32
	kInt                       // int
	kBool                      // bool
	kString                    // string
	kIDs                       // []spirv.ID
	kUint32s                   // []uint32
	kIDMap                     // map[spirv.ID]spirv.ID
	kInstr                     // EncodedInstr
	kInstrPtr                  // *EncodedInstr
	kInstrs                    // []EncodedInstr
	kBlocks                    // []EncodedBlock
)

var kindOf = map[reflect.Type]fieldKind{
	reflect.TypeOf(spirv.ID(0)):                kUint32,
	reflect.TypeOf(uint32(0)):                  kUint32,
	reflect.TypeOf(0):                          kInt,
	reflect.TypeOf(false):                      kBool,
	reflect.TypeOf(""):                         kString,
	reflect.TypeOf([]spirv.ID(nil)):            kIDs,
	reflect.TypeOf([]uint32(nil)):              kUint32s,
	reflect.TypeOf(map[spirv.ID]spirv.ID(nil)): kIDMap,
	reflect.TypeOf(EncodedInstr{}):             kInstr,
	reflect.TypeOf((*EncodedInstr)(nil)):       kInstrPtr,
	reflect.TypeOf([]EncodedInstr(nil)):        kInstrs,
	reflect.TypeOf([]EncodedBlock(nil)):        kBlocks,
}

type planField struct {
	name      string
	index     int
	kind      fieldKind
	omitEmpty bool
}

// structPlan lists a struct's serialized fields in declaration order, the
// order encoding/json writes them.
type structPlan struct {
	fields []planField
}

var (
	instrPlan = planOf(reflect.TypeOf(EncodedInstr{}))
	blockPlan = planOf(reflect.TypeOf(EncodedBlock{}))
)

// planOf builds the plan of struct type t from its json tags. A field the
// codec cannot write exactly as encoding/json does is a bug in the
// transformation's definition, so it panics at start-up.
func planOf(t reflect.Type) *structPlan {
	if t.Kind() != reflect.Struct || t.NumField() > 64 {
		panic("fuzz: cannot serialize " + t.String())
	}
	p := &structPlan{}
	for i := 0; i < t.NumField(); i++ {
		sf := t.Field(i)
		if !sf.IsExported() {
			continue
		}
		name, opts, _ := strings.Cut(sf.Tag.Get("json"), ",")
		if name == "" {
			name = sf.Name
		}
		kind, ok := kindOf[sf.Type]
		if !ok || sf.Anonymous || name == "-" || (opts != "" && opts != "omitempty") || !canonjson.PlainKey(name) || p.field([]byte(name)) >= 0 {
			panic(fmt.Sprintf("fuzz: cannot serialize field %s.%s (%s, tag %q)", t, sf.Name, sf.Type, sf.Tag.Get("json")))
		}
		p.fields = append(p.fields, planField{name: name, index: i, kind: kind, omitEmpty: opts == "omitempty"})
	}
	return p
}

// field returns the index into p.fields of the member called name, or -1.
// Names match exactly; encoding/json also matches them case-insensitively,
// which the caller leaves to it.
func (p *structPlan) field(name []byte) int {
	for i := range p.fields {
		if p.fields[i].name == string(name) {
			return i
		}
	}
	return -1
}

// MarshalSequence serializes a transformation sequence to JSON.
func MarshalSequence(ts []Transformation) ([]byte, error) {
	w := canonjson.Writer{B: make([]byte, 0, 2+192*len(ts))}
	if err := AppendSequence(&w, ts); err != nil {
		return nil, err
	}
	return w.B, nil
}

// AppendSequence writes ts as MarshalSequence does, at the writer's depth,
// so a sequence embedded in an indented document reads as encoding/json
// would write it there.
func AppendSequence(w *canonjson.Writer, ts []Transformation) error {
	w.Open('[')
	for _, t := range ts {
		reg, ok := registry[t.Type()]
		v := reflect.ValueOf(t)
		if !ok || v.Type() != reg.ptr {
			return fmt.Errorf("fuzz: marshal %s: %T is not its registered type", t.Type(), t)
		}
		w.Elem()
		w.Open('{')
		w.Key("type")
		w.String(t.Type())
		w.Key("args")
		writeStruct(w, reg.plan, v.Elem())
		w.Close('}')
	}
	w.Close(']')
	return nil
}

func writeStruct(w *canonjson.Writer, p *structPlan, v reflect.Value) {
	w.Open('{')
	for i := range p.fields {
		f := &p.fields[i]
		fv := v.Field(f.index)
		if f.omitEmpty && isEmpty(f.kind, fv) {
			continue
		}
		w.Key(f.name)
		writeField(w, f.kind, fv)
	}
	w.Close('}')
}

// isEmpty reports what encoding/json's omitempty omits: a zero number,
// false, an empty string, slice or map, a nil pointer. It never omits a
// struct.
func isEmpty(k fieldKind, v reflect.Value) bool {
	switch k {
	case kInstr:
		return false
	case kInstrPtr:
		return v.IsNil()
	case kString, kIDs, kUint32s, kIDMap, kInstrs, kBlocks:
		return v.Len() == 0
	}
	return v.IsZero()
}

func writeField(w *canonjson.Writer, k fieldKind, v reflect.Value) {
	switch k {
	case kUint32:
		w.Uint(v.Uint())
	case kInt:
		w.Int(v.Int())
	case kBool:
		w.Bool(v.Bool())
	case kString:
		w.String(v.String())
	case kIDs:
		writeUints(w, *v.Addr().Interface().(*[]spirv.ID))
	case kUint32s:
		writeUints(w, *v.Addr().Interface().(*[]uint32))
	case kIDMap:
		writeIDMap(w, *v.Addr().Interface().(*map[spirv.ID]spirv.ID))
	case kInstr:
		writeStruct(w, instrPlan, v)
	case kInstrPtr:
		if v.IsNil() {
			w.Null()
		} else {
			writeStruct(w, instrPlan, v.Elem())
		}
	case kInstrs:
		writeStructs(w, instrPlan, v)
	case kBlocks:
		writeStructs(w, blockPlan, v)
	}
}

func writeUints[T ~uint32](w *canonjson.Writer, xs []T) {
	if xs == nil {
		w.Null()
		return
	}
	w.Open('[')
	for _, x := range xs {
		w.Elem()
		w.Uint(uint64(x))
	}
	w.Close(']')
}

// writeIDMap writes m's entries in the order encoding/json does: sorted by
// the keys' decimal strings, so "10" precedes "9".
func writeIDMap(w *canonjson.Writer, m map[spirv.ID]spirv.ID) {
	if m == nil {
		w.Null()
		return
	}
	keys := make([]spirv.ID, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	slices.SortFunc(keys, func(a, b spirv.ID) int {
		var da, db [10]byte
		return bytes.Compare(strconv.AppendUint(da[:0], uint64(a), 10), strconv.AppendUint(db[:0], uint64(b), 10))
	})
	w.Open('{')
	for _, k := range keys {
		w.UintKey(uint64(k))
		w.Uint(uint64(m[k]))
	}
	w.Close('}')
}

func writeStructs(w *canonjson.Writer, p *structPlan, v reflect.Value) {
	if v.IsNil() {
		w.Null()
		return
	}
	w.Open('[')
	for i := 0; i < v.Len(); i++ {
		w.Elem()
		writeStruct(w, p, v.Index(i))
	}
	w.Close(']')
}

// UnmarshalSequence parses a transformation sequence from JSON.
func UnmarshalSequence(data []byte) ([]Transformation, error) {
	if ts, ok := decodeSequenceFast(data); ok {
		return ts, nil
	}
	return unmarshalSequenceJSON(data)
}

// decodeSequenceFast decodes data in one pass if it is in the canonical
// shape ScanSequence reads, with nothing after it.
func decodeSequenceFast(data []byte) ([]Transformation, bool) {
	s := canonjson.Scanner{Data: data}
	ts := ScanSequence(&s)
	s.End()
	return ts, !s.Failed
}

// ScanSequence reads a sequence at the scanner's cursor: an array of
// {"type", "args"} envelopes, in that order, whose args name each field of
// the registered type at most once and exactly as its tag does, and hold
// no null. On anything else it fails the scanner, and the input decodes
// through UnmarshalSequence's encoding/json fallback.
func ScanSequence(s *canonjson.Scanner) []Transformation {
	out := []Transformation{}
	s.Open('[')
	for first := true; s.Next(']', first); first = false {
		s.Open('{')
		s.Member("type", true)
		reg, ok := registry[string(s.RawString())]
		s.Member("args", false)
		if !ok || s.Failed {
			s.Fail()
			break
		}
		t := reg.mk()
		scanStruct(s, reg.plan, reflect.ValueOf(t).Elem())
		if s.Next('}', false) {
			s.Fail()
		}
		out = append(out, t)
	}
	return out
}

func scanStruct(s *canonjson.Scanner, p *structPlan, v reflect.Value) {
	var seen uint64
	s.Open('{')
	for first := true; s.Next('}', first); first = false {
		i := p.field(s.Key())
		if i < 0 || seen&(1<<i) != 0 {
			s.Fail()
			return
		}
		seen |= 1 << i
		f := &p.fields[i]
		scanField(s, f.kind, v.Field(f.index))
	}
}

func scanField(s *canonjson.Scanner, k fieldKind, v reflect.Value) {
	switch k {
	case kUint32:
		v.SetUint(s.Uint(math.MaxUint32))
	case kInt:
		v.SetInt(s.Int(math.MaxInt))
	case kBool:
		v.SetBool(s.Bool())
	case kString:
		v.SetString(s.String())
	case kIDs:
		*v.Addr().Interface().(*[]spirv.ID) = scanUints[spirv.ID](s)
	case kUint32s:
		*v.Addr().Interface().(*[]uint32) = scanUints[uint32](s)
	case kIDMap:
		*v.Addr().Interface().(*map[spirv.ID]spirv.ID) = scanIDMap(s)
	case kInstr:
		scanStruct(s, instrPlan, v)
	case kInstrPtr:
		p := new(EncodedInstr)
		scanStruct(s, instrPlan, reflect.ValueOf(p).Elem())
		*v.Addr().Interface().(**EncodedInstr) = p
	case kInstrs:
		*v.Addr().Interface().(*[]EncodedInstr) = scanStructs[EncodedInstr](s, instrPlan)
	case kBlocks:
		*v.Addr().Interface().(*[]EncodedBlock) = scanStructs[EncodedBlock](s, blockPlan)
	}
}

func scanUints[T ~uint32](s *canonjson.Scanner) []T {
	out := []T{}
	s.Open('[')
	for first := true; s.Next(']', first); first = false {
		out = append(out, T(s.Uint(math.MaxUint32)))
	}
	return out
}

// scanIDMap reads an object whose names are decimal ids. A repeated name
// keeps its last value, as in encoding/json.
func scanIDMap(s *canonjson.Scanner) map[spirv.ID]spirv.ID {
	out := map[spirv.ID]spirv.ID{}
	s.Open('{')
	for first := true; s.Next('}', first); first = false {
		k, ok := canonjson.ParseUint(s.Key(), math.MaxUint32)
		if !ok {
			s.Fail()
			break
		}
		out[spirv.ID(k)] = spirv.ID(s.Uint(math.MaxUint32))
	}
	return out
}

func scanStructs[T any](s *canonjson.Scanner, p *structPlan) []T {
	out := []T{}
	s.Open('[')
	for first := true; s.Next(']', first); first = false {
		out = append(out, *new(T))
		scanStruct(s, p, reflect.ValueOf(&out[len(out)-1]).Elem())
	}
	return out
}

// unmarshalSequenceJSON decodes data with encoding/json: first the
// envelopes, then each transformation's args. It is the fallback for
// input outside the canonical shape, and the tests' oracle for the fast
// path.
func unmarshalSequenceJSON(data []byte) ([]Transformation, error) {
	var envs []recordEnvelope
	if err := json.Unmarshal(data, &envs); err != nil {
		return nil, fmt.Errorf("fuzz: unmarshal sequence: %w", err)
	}
	out := make([]Transformation, len(envs))
	for i, env := range envs {
		reg, ok := registry[env.Type]
		if !ok {
			return nil, fmt.Errorf("fuzz: unknown transformation type %q", env.Type)
		}
		t := reg.mk()
		if err := json.Unmarshal(env.Args, t); err != nil {
			return nil, fmt.Errorf("fuzz: unmarshal %s: %w", env.Type, err)
		}
		out[i] = t
	}
	return out, nil
}
