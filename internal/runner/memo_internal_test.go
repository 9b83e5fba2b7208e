package runner

import (
	"bytes"
	"testing"

	"spirvfuzz/internal/interp"
	"spirvfuzz/internal/target"
	"spirvfuzz/internal/testmod"
)

// The memo key must separate content: equal content maps to equal keys,
// any field change to a different key.
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
}

// targetKey must keep naming every target and release view as
// Name NUL Version, the form persistent memo stores were keyed by, and
// must not build the string again once it has it.
func TestMemoTargetKey(t *testing.T) {
	for _, tg := range target.All() {
		for _, rel := range target.Releases(tg.Name) {
			v := target.At(tg.Name, rel)
			if got, want := targetKey(v), v.Name+"\x00"+v.Version; got != want {
				t.Fatalf("targetKey(%s@%s) = %q, want %q", tg.Name, rel, got, want)
			}
		}
		if got, want := targetKey(tg), tg.Name+"\x00"+tg.Version; got != want {
			t.Fatalf("targetKey(%s) = %q, want %q", tg.Name, got, want)
		}
		if n := testing.AllocsPerRun(10, func() { targetKey(tg) }); n != 0 {
			t.Fatalf("targetKey(%s) allocates %v times per call", tg.Name, n)
		}
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

// FuzzDecodeResult feeds the result payload decoder arbitrary bytes: memo
// payloads come from disk and from cluster memo sync. No input may panic,
// and an accepted payload must re-encode to the same bytes, so a served
// result is exactly the one that was stored.
func FuzzDecodeResult(f *testing.F) {
	f.Add([]byte{memoShapeOffline})
	f.Add(append([]byte{memoShapeCrash}, "Mesa: device fault: boom"...))
	f.Add(append([]byte{memoShapeImage, 1, 0, 0, 0, 1, 0, 0, 0}, 1, 2, 3, 4))
	f.Add([]byte{memoShapeImage, 2, 0, 0, 0})
	f.Fuzz(func(t *testing.T, data []byte) {
		img, crash, ok := decodeResult(data)
		if !ok {
			return
		}
		if img != nil && crash != nil {
			t.Fatalf("payload %x decodes to both an image and a crash", data)
		}
		again, ok := encodeResult(img, crash)
		if !ok {
			t.Fatalf("accepted payload %x does not re-encode", data)
		}
		if !bytes.Equal(again, data) {
			t.Fatalf("payload %x re-encodes to %x", data, again)
		}
	})
}
