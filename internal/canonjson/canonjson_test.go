package canonjson

import (
	"encoding/json"
	"math"
	"testing"
)

// TestScannerIntegers checks the integer bounds and the spellings the
// scanner leaves to encoding/json.
func TestScannerIntegers(t *testing.T) {
	for _, tc := range []struct {
		in   string
		max  int64
		want int64
		ok   bool
	}{
		{"0", math.MaxUint32, 0, true},
		{" 4294967295", math.MaxUint32, math.MaxUint32, true},
		{"4294967296", math.MaxUint32, 0, false},
		{"-1", math.MaxInt64, -1, true},
		{"9223372036854775807", math.MaxInt64, math.MaxInt64, true},
		{"-9223372036854775808", math.MaxInt64, math.MinInt64, true},
		{"9223372036854775808", math.MaxInt64, 0, false},
		{"-9223372036854775809", math.MaxInt64, 0, false},
		{"99999999999999999999999", math.MaxInt64, 0, false},
		{"-0", math.MaxInt64, 0, false},
		{"01", math.MaxInt64, 0, false},
		{"- 1", math.MaxInt64, 0, false},
		{"1.5", math.MaxInt64, 0, false},
		{"1e3", math.MaxInt64, 0, false},
		{"", math.MaxInt64, 0, false},
	} {
		s := Scanner{Data: []byte(tc.in)}
		got := s.Int(tc.max)
		s.End()
		if ok := !s.Failed; ok != tc.ok || (ok && got != tc.want) {
			t.Errorf("Int(%q, %d) = %d, ok %v; want %d, ok %v", tc.in, tc.max, got, ok, tc.want, tc.ok)
		}
	}
}

// TestWriterMatchesMarshalIndent checks the writer's layout and string
// escaping on one document against json.MarshalIndent.
func TestWriterMatchesMarshalIndent(t *testing.T) {
	type doc struct {
		S     string         `json:"s"`
		Empty []int          `json:"empty"`
		Nil   []int          `json:"nil"`
		Obj   map[string]int `json:"obj"`
		List  []any          `json:"list"`
	}
	const s = "a<b>&\"c\\   \x7f \xff é"
	want, err := json.MarshalIndent(doc{S: s, Empty: []int{}, Obj: map[string]int{}, List: []any{true, -3, map[string]bool{}, []int{7}}}, "", "  ")
	if err != nil {
		t.Fatal(err)
	}
	var w Writer
	w.Open('{')
	w.Key("s")
	w.String(s)
	w.Key("empty")
	w.Open('[')
	w.Close(']')
	w.Key("nil")
	w.Null()
	w.Key("obj")
	w.Open('{')
	w.Close('}')
	w.Key("list")
	w.Open('[')
	w.Elem()
	w.Bool(true)
	w.Elem()
	w.Int(-3)
	w.Elem()
	w.Open('{')
	w.Close('}')
	w.Elem()
	w.Open('[')
	w.Elem()
	w.Uint(7)
	w.Close(']')
	w.Close(']')
	w.Close('}')
	if string(w.B) != string(want) {
		t.Fatalf("writer wrote\n%s\nMarshalIndent writes\n%s", w.B, want)
	}
}
