package runner

import (
	"crypto/sha256"
	"sync"
	"sync/atomic"
	"testing"

	"spirvfuzz/internal/corpus"
	"spirvfuzz/internal/interp"
	"spirvfuzz/internal/target"
)

// countEncodes routes the engine's uniform encodings through a counter for
// the rest of the test.
func countEncodes(t *testing.T) *atomic.Int64 {
	var n atomic.Int64
	orig := encodeInputs
	encodeInputs = func(in interp.Inputs) ([]byte, error) {
		n.Add(1)
		return orig(in)
	}
	t.Cleanup(func() { encodeInputs = orig })
	return &n
}

// wantUniformsHash is the hash every result key and persistent memo key has
// always carried: sha256 of the uniforms' EncodeInputs form, zero when they
// do not encode.
func wantUniformsHash(t *testing.T, u map[string]interp.Value) [sha256.Size]byte {
	t.Helper()
	data, err := interp.EncodeInputs(interp.Inputs{Uniforms: u})
	if err != nil {
		return [sha256.Size]byte{}
	}
	return sha256.Sum256(data)
}

func richUniforms() map[string]interp.Value {
	u := corpus.StandardUniforms()
	u["u_flag"] = interp.BoolVal(true)
	u["u_vec"] = interp.Composite(interp.FloatVal(-0.25), interp.IntVal(-3), interp.Composite(interp.BoolVal(false)))
	return u
}

// Content-equal maps at different addresses share one encoding, the way
// replay's per-query input clones must.
func TestUniformsHashContentKeyed(t *testing.T) {
	encodes := countEncodes(t)
	e := New(1)
	a, b := richUniforms(), richUniforms()
	ha, hb := e.uniformsHash(a), e.uniformsHash(b)
	if ha != hb {
		t.Fatal("content-equal uniforms hashed differently")
	}
	if n := encodes.Load(); n != 1 {
		t.Fatalf("EncodeInputs ran %d times for two content-equal maps, want 1", n)
	}
	if ha != wantUniformsHash(t, a) {
		t.Fatal("uniforms hash is not sha256(EncodeInputs(...)): persistent memo keys would change")
	}
	// Clones made the way replay makes them hit the memo too.
	if e.uniformsHash(interp.Inputs{Uniforms: a}.Clone().Uniforms) != ha || encodes.Load() != 1 {
		t.Fatal("cloned inputs missed the uniforms memo")
	}
}

// A map mutated between runs must get a fresh hash, not the stale one an
// identity-keyed memo would serve.
func TestUniformsHashSeesMutation(t *testing.T) {
	encodes := countEncodes(t)
	e := New(1)
	u := richUniforms()
	before := e.uniformsHash(u)
	u["u_ten"] = interp.IntVal(11)
	after := e.uniformsHash(u)
	if after == before {
		t.Fatal("mutated uniforms kept their old hash")
	}
	if after != wantUniformsHash(t, u) || encodes.Load() != 2 {
		t.Fatalf("mutated uniforms: hash %x (want %x), %d encodes (want 2)", after, wantUniformsHash(t, u), encodes.Load())
	}
	// Every field of a value is part of the key: a change anywhere inside
	// a composite is a new hash.
	u["u_vec"].Elems[2].Elems[0] = interp.BoolVal(true)
	if h := e.uniformsHash(u); h == after || h != wantUniformsHash(t, u) {
		t.Fatal("in-place change inside a composite kept the old hash")
	}

	// End to end: the same map, mutated between two runs, must miss the
	// result cache instead of serving the first run's result.
	eng := New(1)
	item := corpus.References()[0]
	in := interp.Inputs{W: item.Inputs.W, H: item.Inputs.H, Uniforms: corpus.StandardUniforms()}
	tg := target.ByName("Mesa")
	eng.Run(tg, item.Mod, in)
	in.Uniforms["u_one"] = interp.FloatVal(2)
	eng.Run(tg, item.Mod, in)
	if st := eng.Stats(); st.Hits != 0 || st.Misses != 2 {
		t.Fatalf("run after mutating the uniforms hit the stale result: %+v", st)
	}
}

// The stored hash must stay sha256(EncodeInputs(...)) for every shape,
// including empty and unencodable uniforms, and agree across goroutines.
func TestUniformsHashPinsEncoding(t *testing.T) {
	e := New(4)
	cases := []map[string]interp.Value{
		nil,
		{},
		corpus.StandardUniforms(),
		richUniforms(),
		{"p": {Kind: interp.KindComposite, Elems: []interp.Value{{}}}}, // unencodable
	}
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for _, u := range cases {
				if got := e.uniformsHash(interp.Inputs{Uniforms: u}.Clone().Uniforms); got != wantUniformsHash(t, u) {
					t.Errorf("uniformsHash(%v) = %x, want sha256(EncodeInputs) %x", u, got, wantUniformsHash(t, u))
				}
			}
		}()
	}
	wg.Wait()
	if wantUniformsHash(t, nil) != wantUniformsHash(t, map[string]interp.Value{}) {
		t.Fatal("nil and empty uniforms encode differently")
	}
}
