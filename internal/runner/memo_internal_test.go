package runner

import (
	"bytes"
	"testing"

	"spirvfuzz/internal/interp"
	"spirvfuzz/internal/memostore"
	"spirvfuzz/internal/target"
	"spirvfuzz/internal/testmod"
)

// The memo keys must separate layers and content: equal content maps to
// equal keys, any field change to a different key, and the result/compile
// domains never collide.
func TestMemoKeyDerivation(t *testing.T) {
	m := testmod.Diamond()
	fp := m.Fingerprint()
	k1 := key{target: "Mesa\x00v1", mod: fp, w: 8, h: 8}
	if resultMemoKey(k1) != resultMemoKey(k1) {
		t.Fatal("resultMemoKey not deterministic")
	}
	variants := []key{
		{target: "Mesa\x00v2", mod: fp, w: 8, h: 8},
		{target: "Mesa\x00v1", mod: fp, w: 9, h: 8},
		{target: "Mesa\x00v1", mod: fp, w: 8, h: 9},
		{target: "Intel\x00v1", mod: fp, w: 8, h: 8},
	}
	for i, kv := range variants {
		if resultMemoKey(kv) == resultMemoKey(k1) {
			t.Fatalf("variant %d collides with base key", i)
		}
	}
	ck := ckey{mod: fp, mut: ""}
	if compileMemoKey(ck) == compileMemoKey(ckey{mod: fp, mut: "x"}) {
		t.Fatal("mutation fingerprint ignored by compile key")
	}
	// Cross-domain separation: a compile key whose content bytes happen to
	// echo a result key still hashes into a different domain.
	if memostore.Key(resultMemoKey(k1)) == memostore.Key(compileMemoKey(ck)) {
		t.Fatal("result and compile domains collide")
	}
}

// All three legal result shapes survive the payload codec exactly.
func TestMemoResultCodec(t *testing.T) {
	img := &interp.Image{W: 2, H: 2, Pix: []byte{1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13, 14, 15, 16}}
	cases := []struct {
		img   *interp.Image
		crash *target.Crash
	}{
		{img: img},
		{crash: &target.Crash{Signature: "Mesa: device fault: boom"}},
		{}, // offline target, no crash
	}
	for i, c := range cases {
		data, ok := encodeResult(c.img, c.crash)
		if !ok {
			t.Fatalf("case %d: encode failed", i)
		}
		gotImg, gotCrash, ok := decodeResult(data)
		if !ok {
			t.Fatalf("case %d: decode failed", i)
		}
		switch {
		case c.crash != nil:
			if gotCrash == nil || gotCrash.Signature != c.crash.Signature || gotImg != nil {
				t.Fatalf("case %d: crash round trip: %+v %+v", i, gotImg, gotCrash)
			}
		case c.img != nil:
			if gotImg == nil || gotCrash != nil || gotImg.W != c.img.W || gotImg.H != c.img.H || !bytes.Equal(gotImg.Pix, c.img.Pix) {
				t.Fatalf("case %d: image round trip: %+v", i, gotImg)
			}
		default:
			if gotImg != nil || gotCrash != nil {
				t.Fatalf("case %d: nil/nil round trip: %+v %+v", i, gotImg, gotCrash)
			}
		}
	}
	// Corrupt payloads decode to !ok, never to a wrong result.
	for name, bad := range map[string][]byte{
		"empty payload":         nil,
		"unknown shape byte":    {9},
		"truncated image":       {2, 2, 0, 0, 0},
		"wrong-size pixels":     append([]byte{2, 2, 0, 0, 0, 2, 0, 0, 0}, 1, 2, 3),
		"trailing offline junk": {0, 0},
	} {
		if _, _, ok := decodeResult(bad); ok {
			t.Fatalf("decodeResult accepted %s", name)
		}
	}
}

// The compile payload stores only the module's canonical encoding; the
// fingerprint is recomputed on decode. That is sound only if the
// encoding round-trips exactly — pinned here against every corpus-shaped
// module the compile path actually produces.
func TestMemoCompileRoundTrip(t *testing.T) {
	for name, m := range testmod.All() {
		compiled, err := target.SharedCompile(m, nil)
		if err != nil {
			continue
		}
		data, ok := encodeCompile(compiled, "")
		if !ok {
			t.Fatalf("%s: encode failed", name)
		}
		got, fp, errMsg, ok := decodeCompile(data)
		if !ok || errMsg != "" || got == nil {
			t.Fatalf("%s: decode failed (%v, %q)", name, ok, errMsg)
		}
		if fp != compiled.Fingerprint() {
			t.Fatalf("%s: fingerprint changed across the codec — the memo would desync the render layer", name)
		}
		if !bytes.Equal(got.EncodeBytes(), compiled.EncodeBytes()) {
			t.Fatalf("%s: encoding not a fixed point", name)
		}
	}
	// Error-shaped payloads round trip too.
	data, ok := encodeCompile(nil, "opt: pass exploded")
	if !ok {
		t.Fatal("encode of error payload failed")
	}
	if _, _, errMsg, ok := decodeCompile(data); !ok || errMsg != "opt: pass exploded" {
		t.Fatalf("error payload round trip: %q %v", errMsg, ok)
	}
	for name, bad := range map[string][]byte{
		"empty payload":        nil,
		"unknown tag byte":     {7},
		"garbage module bytes": {1, 0xde, 0xad},
		"empty error text":     {0},
	} {
		if _, _, _, ok := decodeCompile(bad); ok {
			t.Fatalf("decodeCompile accepted %s", name)
		}
	}
}
