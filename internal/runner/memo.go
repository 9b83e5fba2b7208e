// The persistent memo tier. The engine's three in-memory layers die with
// the process; a memostore.Store attached via SetMemoStore survives it.
// Result-layer misses consult the store before running anything, and
// completed executions spill back asynchronously. Each store backs one
// engine, whose in-memory layers already collapse duplicate in-flight
// executions before the store is asked. Only execution results are
// stored: a warm repeat of a campaign is answered at the result layer and
// never reaches the compile layer, so a compiled module on disk would be
// read only by a different campaign that happens to share it.
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

// memoKindResult tags result payloads (final img/crash pair). A store an
// older build wrote may also hold compiled modules as kind 2: no key this
// package derives names one, and execute's kind check refuses them.
const memoKindResult = 1

// SetMemoStore attaches a persistent memo store as the engine's fourth
// cache tier; nil detaches it. The store is consulted only on in-memory
// misses: with the cache cap at 0 caching is disabled wholesale, the memo
// included. Not safe to call concurrently with Run. The engine never
// closes the store; the owner does.
func (e *Engine) SetMemoStore(ms *memostore.Store) { e.memo = ms }

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

// execute fills a result-layer miss: from the memo tier when one is
// attached and holds the execution, else by running the toolchain, whose
// outcome then spills to the memo. Counter semantics: Misses counts
// toolchain executions only, MemoHits counts executions answered from
// disk, and MemoMisses counts memo lookups that had to execute.
func (e *Engine) execute(tg *target.Target, m *spirv.Module, in interp.Inputs, k key) TargetResult {
	if e.memo == nil {
		e.misses.Add(1)
		return e.runUncached(tg, m, in, k)
	}
	mk := resultMemoKey(k)
	if kind, data, ok := e.memo.Get(mk); ok && kind == memoKindResult {
		if img, crash, ok := decodeResult(data); ok {
			e.memoHits.Add(1)
			return TargetResult{Img: img, Crash: crash}
		}
	}
	e.memoMisses.Add(1)
	e.misses.Add(1)
	r := e.runUncached(tg, m, in, k)
	if data, ok := encodeResult(r.Img, r.Crash); ok {
		e.memoSpills.Add(1)
		e.memo.SpillAsync(mk, memoKindResult, data)
	}
	return r
}
