// The persistent memo tier. The engine's four in-memory layers die with
// the process; a memostore.Store attached via SetMemoStore survives it.
// Result-layer and compile-layer misses consult the store before running
// anything, completed executions spill back asynchronously, and a
// singleflight table on the store collapses duplicate in-flight
// executions across engines sharing it (campaign + bisect + precheck).
//
// Safety rests on the repo's house invariant: target execution is a
// deterministic function of content, so a memo payload keyed by content
// is exact — serving it instead of executing can change timings and
// counters, never results. Keys are SHA-256 over a versioned
// domain-separation prefix plus the same content the in-memory keys
// carry; bump the version strings if payload encodings ever change.
package runner

import (
	"crypto/sha256"
	"encoding/binary"

	"spirvfuzz/internal/interp"
	"spirvfuzz/internal/memostore"
	"spirvfuzz/internal/spirv"
	"spirvfuzz/internal/target"
)

const (
	memoKindResult  = 1 // payload: resultPayload (final img/crash pair)
	memoKindCompile = 2 // payload: compilePayload (compiled module bytes or error)
)

// SetMemoStore attaches a persistent memo store as the engine's fifth
// cache tier; nil detaches it. The store is consulted only on in-memory
// misses and only on the shared (phase-split) path: with compile sharing
// off the engine is deliberately the uncached baseline, and with the
// cache cap at 0 caching is disabled wholesale — the memo respects both.
// Not safe to call concurrently with Run. The engine never closes the
// store; the owner does.
func (e *Engine) SetMemoStore(ms *memostore.Store) { e.memo = ms }

// MemoStore returns the attached memo store, or nil.
func (e *Engine) MemoStore() *memostore.Store { return e.memo }

// MemoCounts returns the MemoHits and MemoMisses counters of Stats without
// taking its snapshot of every cache shard.
func (e *Engine) MemoCounts() (hits, misses uint64) {
	return e.memoHits.Load(), e.memoMisses.Load()
}

// resultMemoKey derives the persistent key for a result-layer execution
// from the in-memory key's content (target name+version, module
// fingerprint, grid, uniforms hash).
func resultMemoKey(k key) memostore.Key {
	h := sha256.New()
	h.Write([]byte("spirvfuzz/memo/result/v2\x00"))
	h.Write([]byte(k.target))
	h.Write([]byte{0})
	h.Write(k.mod[:])
	var wh [16]byte
	binary.LittleEndian.PutUint64(wh[:8], uint64(int64(k.w)))
	binary.LittleEndian.PutUint64(wh[8:], uint64(int64(k.h)))
	h.Write(wh[:])
	h.Write(k.uni[:])
	var out memostore.Key
	h.Sum(out[:0])
	return out
}

// compileMemoKey derives the persistent key for a compile-layer run from
// (module fingerprint, mutation fingerprint).
func compileMemoKey(ck ckey) memostore.Key {
	h := sha256.New()
	h.Write([]byte("spirvfuzz/memo/compile/v2\x00"))
	h.Write(ck.mod[:])
	h.Write([]byte(ck.mut))
	var out memostore.Key
	h.Sum(out[:0])
	return out
}

// Result payloads are compact binary, not JSON: a warm campaign decodes
// one payload per served execution, and image payloads carry kilobytes of
// pixels — JSON would base64 them inside the line's already-base64'd data
// field and dominate the memo hit path. Layout: a leading shape byte,
// then the shape's fields.
const (
	memoShapeOffline = 0 // no trailing bytes: the (nil, nil) offline shape
	memoShapeCrash   = 1 // trailing bytes: the crash signature, verbatim
	memoShapeImage   = 2 // uint32 LE w, uint32 LE h, then w*h*4 pixel bytes
)

func encodeResult(img *interp.Image, crash *target.Crash) ([]byte, bool) {
	switch {
	case crash != nil:
		out := make([]byte, 1+len(crash.Signature))
		out[0] = memoShapeCrash
		copy(out[1:], crash.Signature)
		return out, true
	case img != nil:
		if img.W <= 0 || img.H <= 0 || len(img.Pix) != img.W*img.H*4 {
			return nil, false
		}
		out := make([]byte, 9+len(img.Pix))
		out[0] = memoShapeImage
		binary.LittleEndian.PutUint32(out[1:5], uint32(img.W))
		binary.LittleEndian.PutUint32(out[5:9], uint32(img.H))
		copy(out[9:], img.Pix)
		return out, true
	default:
		return []byte{memoShapeOffline}, true
	}
}

func decodeResult(data []byte) (*interp.Image, *target.Crash, bool) {
	if len(data) < 1 {
		return nil, nil, false
	}
	switch data[0] {
	case memoShapeOffline:
		if len(data) != 1 {
			return nil, nil, false
		}
		return nil, nil, true
	case memoShapeCrash:
		return nil, &target.Crash{Signature: string(data[1:])}, true
	case memoShapeImage:
		if len(data) < 9 {
			return nil, nil, false
		}
		w := int(binary.LittleEndian.Uint32(data[1:5]))
		h := int(binary.LittleEndian.Uint32(data[5:9]))
		if w <= 0 || h <= 0 || w > 1<<20 || h > 1<<20 || len(data)-9 != w*h*4 {
			return nil, nil, false
		}
		return &interp.Image{W: w, H: h, Pix: data[9:]}, nil, true
	default:
		return nil, nil, false
	}
}

// Compile payloads hold the compiled module's canonical encoding, or the
// pipeline error text, behind one tag byte. The fingerprint is not
// stored — it is recomputed on decode, which is only correct because the
// encoding round-trips exactly (pinned by TestMemoCompileRoundTrip).
const (
	memoCompileErr = 0 // trailing bytes: the pipeline error text, verbatim
	memoCompileMod = 1 // trailing bytes: the module's canonical encoding
)

func encodeCompile(compiled *spirv.Module, errMsg string) ([]byte, bool) {
	if errMsg != "" {
		out := make([]byte, 1+len(errMsg))
		out[0] = memoCompileErr
		copy(out[1:], errMsg)
		return out, true
	}
	if compiled == nil {
		return nil, false
	}
	enc := compiled.EncodeBytes()
	out := make([]byte, 1+len(enc))
	out[0] = memoCompileMod
	copy(out[1:], enc)
	return out, true
}

func decodeCompile(data []byte) (compiled *spirv.Module, fp [sha256.Size]byte, errMsg string, ok bool) {
	if len(data) < 1 {
		return nil, fp, "", false
	}
	switch data[0] {
	case memoCompileErr:
		if len(data) == 1 {
			return nil, fp, "", false
		}
		return nil, fp, string(data[1:]), true
	case memoCompileMod:
		m, err := spirv.DecodeBytes(data[1:])
		if err != nil {
			return nil, fp, "", false
		}
		return m, m.Fingerprint(), "", true
	default:
		return nil, fp, "", false
	}
}

// memoOutcome carries a finished execution through the singleflight.
type memoOutcome struct {
	img   *interp.Image
	crash *target.Crash
}

// execute fills a result-layer miss: through the memo tier when one is
// attached, else by running the toolchain directly. Counter semantics:
// Misses counts toolchain executions only, MemoHits counts executions
// answered from disk, MemoMisses counts memo lookups that had to
// execute, and SingleflightHits counts executions answered by another
// engine's in-flight run.
func (e *Engine) execute(tg *target.Target, m *spirv.Module, in interp.Inputs, k key) (*interp.Image, *target.Crash) {
	if e.memo == nil {
		e.misses.Add(1)
		return e.runUncached(tg, m, in, k)
	}
	mk := resultMemoKey(k)
	if kind, data, ok := e.memo.Get(mk); ok && kind == memoKindResult {
		if img, crash, ok := decodeResult(data); ok {
			e.memoHits.Add(1)
			return img, crash
		}
	}
	e.memoMisses.Add(1)
	v, shared := e.memo.Do(mk, func() any {
		e.misses.Add(1)
		img, crash := e.runUncached(tg, m, in, k)
		if data, ok := encodeResult(img, crash); ok {
			e.memoSpills.Add(1)
			e.memo.SpillAsync(mk, memoKindResult, data)
		}
		return memoOutcome{img: img, crash: crash}
	})
	if shared {
		e.singleflightHits.Add(1)
	}
	out := v.(memoOutcome)
	return out.img, out.crash
}

// compileMemoFill fills an in-memory compile-cache miss through the memo
// tier: disk first, then a singleflight-wrapped SharedCompile that
// spills back. Returns exactly one of compiled/errMsg set, like compile.
func (e *Engine) compileMemoFill(m *spirv.Module, muts []target.Mutation, ck ckey) (*spirv.Module, [sha256.Size]byte, string) {
	mk := compileMemoKey(ck)
	if kind, data, ok := e.memo.Get(mk); ok && kind == memoKindCompile {
		if compiled, fp, errMsg, ok := decodeCompile(data); ok {
			e.memoHits.Add(1)
			return compiled, fp, errMsg
		}
	}
	e.memoMisses.Add(1)
	type compileOutcome struct {
		compiled *spirv.Module
		fp       [sha256.Size]byte
		errMsg   string
	}
	v, shared := e.memo.Do(mk, func() any {
		e.compileMisses.Add(1)
		compiled, err := target.SharedCompile(m, muts)
		out := compileOutcome{compiled: compiled}
		if err != nil {
			out.compiled, out.errMsg = nil, err.Error()
		} else {
			out.fp = compiled.Fingerprint()
		}
		if data, ok := encodeCompile(out.compiled, out.errMsg); ok {
			e.memoSpills.Add(1)
			e.memo.SpillAsync(mk, memoKindCompile, data)
		}
		return out
	})
	if shared {
		e.singleflightHits.Add(1)
	}
	out := v.(compileOutcome)
	return out.compiled, out.fp, out.errMsg
}
