// Package runner is the concurrent execution engine behind campaigns and
// reduction. It provides three things the rest of the repo composes:
//
//   - a worker pool, sized by GOMAXPROCS unless overridden, that bounds how
//     many simulated-compiler invocations run at once no matter how many
//     goroutines fan work out;
//
//   - a sharded, content-addressed cache with three layers: whole results
//     keyed by (target name, module fingerprint, inputs), compiled modules
//     keyed by (module fingerprint, mutation fingerprint), and renders keyed
//     by (compiled module fingerprint, inputs). Delta debugging probes many
//     overlapping subsets of one transformation sequence and re-probes them
//     after every successful removal, and campaigns run the same original
//     module once per generated test; both collapse to a single execution per
//     distinct key; and
//
//   - a batched multi-target entry point, RunAllCtx, that fans one module
//     across many targets with the module and inputs hashed once and the
//     phase-split target API (CheckCrashes / Mutations / SharedCompile) used
//     so that all targets whose injected mutations agree — commonly the empty
//     set, shared by all nine — compile and render the module exactly once.
//
// Target execution is deterministic, so cached results are exact and the
// engine never changes observable behaviour — only how often the simulated
// compilers actually run. Cache entries are deduplicated in flight: when two
// goroutines ask for the same key concurrently, one executes and the other
// waits for its result.
package runner

import (
	"context"
	"crypto/sha256"
	"encoding/binary"
	"math"
	"runtime"
	"slices"
	"sync"
	"sync/atomic"
	"time"

	"spirvfuzz/internal/interp"
	"spirvfuzz/internal/memostore"
	"spirvfuzz/internal/opt"
	"spirvfuzz/internal/spirv"
	"spirvfuzz/internal/target"
)

// maxUniformMemo bounds the uniforms-hash memo.
const maxUniformMemo = 4096

// key identifies one target execution by content, not identity: two
// structurally identical modules (e.g. the same ddmin candidate reached via
// different removal orders) hash to the same key. For the render layer the
// target field is empty and mod holds the compiled module's fingerprint —
// rendering depends only on the compiled module and the inputs, so targets
// that compile a module identically share one render.
type key struct {
	target string
	mod    [sha256.Size]byte
	w, h   int
	uni    [sha256.Size]byte
}

func (k key) shard() byte { return k.mod[0] }

// ckey identifies one compile: module content plus which miscompiling
// rewrites the target applies to it (target.MutationFingerprint). Targets
// with equal mutation fingerprints share the clone + mutate + optimize work;
// the common fingerprint is "" (no injected mutation fires).
type ckey struct {
	mod [sha256.Size]byte
	mut string
}

func (k ckey) shard() byte { return k.mod[0] }

// compiled is one compile-layer value: the shared compiled module (treat as
// immutable) and its fingerprint (the render-layer key, so renders never
// re-encode the module), or the pipeline error text, which each target
// wraps in its own signature.
type compiled struct {
	mod    *spirv.Module
	fp     [sha256.Size]byte
	errMsg string
}

// rendered is one render-layer value: the image, or the interpreter's error
// text, which each target prefixes with its own name as target.Run does.
type rendered struct {
	img    *interp.Image
	errMsg string
}

// Stats is a point-in-time snapshot of engine counters.
type Stats struct {
	// Result layer: full (target, module, inputs) executions.
	Hits   uint64 // Run calls answered from the cache (incl. in-flight waits)
	Misses uint64 // Run calls that executed the target toolchain
	// Compile layer: (module, mutation fingerprint) clone+mutate+optimize
	// runs, consulted on result-layer misses and shared across targets.
	CompileHits   uint64
	CompileMisses uint64
	// Render layer: (compiled module, inputs) interpreter runs, consulted on
	// result-layer misses and shared across targets. Each render miss
	// lowers its compiled module to a register-VM Program first.
	RenderHits   uint64
	RenderMisses uint64
	// PlanCompileNanos is the total wall time render misses spent lowering
	// modules to Programs.
	PlanCompileNanos int64
	// PlanHits, PlanMisses and SingleflightHits are always zero: the engine
	// keeps no plan cache, and no memo store is shared by two engines, so
	// there is no cross-engine execution to share. They exist only so the
	// end-to-end benchmark's runner.plan_hits, runner.plan_misses and
	// runner.singleflight_hits entries keep compiling, and go when the
	// benchmark drops those metrics.
	PlanHits         uint64
	PlanMisses       uint64
	SingleflightHits uint64
	Evictions        uint64 // cache entries discarded to stay under the cap
	Entries          int    // entries currently cached (all layers)
	Workers          int    // worker-pool size
	// OptPasses is the process-wide per-pass optimizer profile (runs,
	// changed, wall time) accumulated by opt.Pipeline.
	OptPasses []opt.PassStat
	// Memo tier: persistent result lookups (see memo.go). All zero
	// unless SetMemoStore attached a store. MemoHits are executions served
	// from disk without running anything; MemoMisses are lookups that had
	// to execute; and MemoSpills are outcomes queued for persistence.
	MemoHits   uint64
	MemoMisses uint64
	MemoSpills uint64
}

// HitRate returns the fraction of cache lookups served without executing
// anything, across all layers — result, compile, render, and the
// persistent memo tier; 0 before any Run call.
func (s Stats) HitRate() float64 {
	total := s.Hits + s.Misses + s.CompileHits + s.CompileMisses +
		s.RenderHits + s.RenderMisses + s.MemoHits + s.MemoMisses
	if total == 0 {
		return 0
	}
	return float64(s.Hits+s.CompileHits+s.RenderHits+s.MemoHits) / float64(total)
}

// Engine is a memoizing, concurrency-bounded executor of target runs. It is
// safe for concurrent use; the zero value is not valid — use New.
type Engine struct {
	workers  int
	sem      chan struct{}
	results  layer[key, TargetResult] // (target, module, inputs)
	compiles layer[ckey, compiled]    // (module, mutations)
	renders  layer[key, rendered]     // ("", compiled module, inputs)

	uniMu   sync.Mutex
	uniMemo map[string][sha256.Size]byte // uniformsKey -> uniforms hash

	// memo is the optional persistent tier (see memo.go); nil when no
	// store is attached.
	memo *memostore.Store

	misses        atomic.Uint64
	compileMisses atomic.Uint64
	renderMisses  atomic.Uint64
	planNanos     atomic.Int64
	memoHits      atomic.Uint64
	memoMisses    atomic.Uint64
	memoSpills    atomic.Uint64
}

// New returns an engine whose worker pool admits workers concurrent target
// executions; workers <= 0 selects GOMAXPROCS.
func New(workers int) *Engine {
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	e := &Engine{
		workers: workers,
		sem:     make(chan struct{}, workers),
		uniMemo: make(map[string][sha256.Size]byte),
	}
	e.results.init()
	e.compiles.init()
	e.renders.init()
	return e
}

// SetCacheCap rebounds the number of cached entries of each layer; 0
// disables caching entirely (every Run executes the full toolchain — the
// pre-engine baseline). It only affects future insertions and is not safe
// to call concurrently with Run.
func (e *Engine) SetCacheCap(total int) {
	e.results.setCap(total)
	e.compiles.setCap(total)
	e.renders.setCap(total)
}

// Workers returns the worker-pool size.
func (e *Engine) Workers() int { return e.workers }

// Run executes m on tg with the given inputs, memoized, with semantics
// identical to tg.Run. Results are shared between callers and must be
// treated as immutable (images and crashes are never mutated anywhere in the
// repo).
//
// Three cache layers serve a lookup. The result layer is keyed by (target,
// module, inputs) and memoizes whole executions. On a result-layer miss the
// target is phase-split: its crash predicates run directly (a pure scan, no
// clone), the clone + mutate + optimize tail is served from the compile
// layer keyed by (module, mutation fingerprint) — so targets whose injected
// defects agree on a module, most targets for most modules, compile it once
// — and the interpreter run is served from the render layer, keyed by the
// compiled module's content. A variant classified against all nine targets
// is typically compiled once and rendered once, not nine and six times.
func (e *Engine) Run(tg *target.Target, m *spirv.Module, in interp.Inputs) (*interp.Image, *target.Crash) {
	img, crash, _ := e.RunCtx(context.Background(), tg, m, in)
	return img, crash
}

// RunCtx is Run with cancellation: a canceled ctx aborts promptly — before
// executing, while queued for a worker slot, or while waiting on another
// goroutine's in-flight execution — returning ctx.Err(). Cancellation never
// poisons the cache: an aborted executor withdraws its in-flight entry so
// concurrent waiters retry, and an execution that already started runs to
// completion (target runs are short) and caches normally.
func (e *Engine) RunCtx(ctx context.Context, tg *target.Target, m *spirv.Module, in interp.Inputs) (*interp.Image, *target.Crash, error) {
	if err := ctx.Err(); err != nil {
		return nil, nil, err
	}
	if e.results.perShard == 0 {
		e.misses.Add(1)
		select {
		case e.sem <- struct{}{}:
		case <-ctx.Done():
			return nil, nil, ctx.Err()
		}
		img, crash := tg.Run(m, in)
		<-e.sem
		return img, crash, nil
	}
	r, err := e.runKeyed(ctx, tg, m, in, e.keyFor(tg, m, in))
	return r.Img, r.Crash, err
}

// TargetResult is one target's slot in a RunAllCtx batch: the rendered image
// (nil for offline targets and crashes) and the crash, exactly as the
// corresponding RunCtx call would return them.
type TargetResult struct {
	Img   *interp.Image
	Crash *target.Crash
}

// RunAllCtx executes m on every target in one batch and returns the results
// indexed like targets. The module fingerprint and inputs hash are computed
// once for the whole batch, crash checks fan out on the worker pool, each
// distinct (module, mutation fingerprint) class is compiled once, and each
// distinct compiled module is rendered once per inputs. Per-slot results are
// bitwise identical to calling RunCtx once per target, at any worker count.
// A canceled ctx returns (nil, ctx.Err()).
func (e *Engine) RunAllCtx(ctx context.Context, targets []*target.Target, m *spirv.Module, in interp.Inputs) ([]TargetResult, error) {
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	out := make([]TargetResult, len(targets))
	var run func(i int) error
	if e.results.perShard == 0 {
		// Caching disabled: RunCtx runs each target's toolchain directly.
		run = func(i int) error {
			img, crash, err := e.RunCtx(ctx, targets[i], m, in)
			out[i] = TargetResult{Img: img, Crash: crash}
			return err
		}
	} else {
		base := key{mod: m.Fingerprint(), w: in.W, h: in.H, uni: e.uniformsHash(in.Uniforms)}
		run = func(i int) error {
			k := base
			k.target = targetKey(targets[i])
			var err error
			out[i], err = e.runKeyed(ctx, targets[i], m, in, k)
			return err
		}
	}
	if len(targets) == 1 {
		// Skip the pool for the degenerate batch (reduction's per-target
		// interestingness queries).
		if err := run(0); err != nil {
			return nil, err
		}
		return out, nil
	}
	if err := e.DoCtx(ctx, len(targets), func(i int) { _ = run(i) }); err != nil {
		return nil, err
	}
	return out, nil
}

// runKeyed serves RunCtx and RunAllCtx from the result layer. A miss waits
// for a worker slot before executing; a ctx canceled while it waits
// withdraws the miss's slot.
func (e *Engine) runKeyed(ctx context.Context, tg *target.Target, m *spirv.Module, in interp.Inputs, k key) (TargetResult, error) {
	return e.results.get(ctx, k, func() (TargetResult, error) {
		select {
		case e.sem <- struct{}{}:
		case <-ctx.Done():
			return TargetResult{}, ctx.Err()
		}
		r := e.execute(tg, m, in, k)
		<-e.sem
		return r, nil
	})
}

// runUncached executes the toolchain for a result-layer miss. It mirrors
// target.Run phase by phase — crash predicates directly, the compile tail
// through the compile cache, the render through the render cache keyed by
// the compiled module's fingerprint.
func (e *Engine) runUncached(tg *target.Target, m *spirv.Module, in interp.Inputs, k key) TargetResult {
	if crash := tg.CheckCrashes(m); crash != nil {
		return TargetResult{Crash: crash}
	}
	c := e.compile(m, k.mod, tg.Mutations(m))
	if c.errMsg != "" {
		return TargetResult{Crash: tg.ICE(c.errMsg)}
	}
	if !tg.CanRender {
		return TargetResult{}
	}
	r := e.render(c.mod, key{mod: c.fp, w: k.w, h: k.h, uni: k.uni}, in)
	if r.errMsg != "" {
		return TargetResult{Crash: tg.DeviceFault(r.errMsg)}
	}
	return TargetResult{Img: r.img}
}

// compile serves the clone + mutate + optimize tail from the compile cache,
// keyed by (module fingerprint, mutation fingerprint). Executors hold a
// worker slot already, so waiters block without a ctx: the peer they wait
// on is running, not queued.
func (e *Engine) compile(m *spirv.Module, modHash [sha256.Size]byte, muts []target.Mutation) compiled {
	ck := ckey{mod: modHash, mut: target.FingerprintMutations(muts)}
	c, _ := e.compiles.get(context.Background(), ck, func() (compiled, error) {
		return e.sharedCompile(m, muts), nil
	})
	return c
}

// sharedCompile runs the clone + mutate + optimize tail.
func (e *Engine) sharedCompile(m *spirv.Module, muts []target.Mutation) compiled {
	e.compileMisses.Add(1)
	mod, err := target.SharedCompile(m, muts)
	if err != nil {
		return compiled{errMsg: err.Error()}
	}
	return compiled{mod: mod, fp: mod.Fingerprint()}
}

// render executes the reference interpreter, memoized on rk (compiled module
// fingerprint plus inputs): a miss lowers mod to a register-VM Program and
// renders it. Lowering errors are exactly the errors the tree-walker would
// report before its first pixel, so they are cached as text like render
// errors.
func (e *Engine) render(mod *spirv.Module, rk key, in interp.Inputs) rendered {
	r, _ := e.renders.get(context.Background(), rk, func() (rendered, error) {
		e.renderMisses.Add(1)
		start := time.Now()
		prog, err := interp.Compile(mod)
		e.planNanos.Add(time.Since(start).Nanoseconds())
		var img *interp.Image
		if err == nil {
			img, err = prog.Render(in)
		}
		if err != nil {
			return rendered{errMsg: err.Error()}, nil
		}
		return rendered{img: img}, nil
	})
	return r
}

// Stats returns a snapshot of the engine's counters.
func (e *Engine) Stats() Stats {
	return Stats{
		Hits:             e.results.hits.Load(),
		Misses:           e.misses.Load(),
		CompileHits:      e.compiles.hits.Load(),
		CompileMisses:    e.compileMisses.Load(),
		RenderHits:       e.renders.hits.Load(),
		RenderMisses:     e.renderMisses.Load(),
		PlanCompileNanos: e.planNanos.Load(),
		Evictions:        e.results.evictions.Load() + e.compiles.evictions.Load() + e.renders.evictions.Load(),
		Entries:          e.results.entries() + e.compiles.entries() + e.renders.entries(),
		Workers:          e.workers,
		OptPasses:        opt.PassStats(),
		MemoHits:         e.memoHits.Load(),
		MemoMisses:       e.memoMisses.Load(),
		MemoSpills:       e.memoSpills.Load(),
	}
}

// Do runs f(0) … f(n-1) on the worker pool and returns when all calls have
// finished. Iterations are distributed dynamically, so uneven work does not
// idle workers. f must be safe for concurrent invocation.
func (e *Engine) Do(n int, f func(i int)) {
	e.DoCtx(context.Background(), n, f)
}

// DoCtx is Do with cancellation: once ctx is done, no further iteration is
// dispatched and DoCtx returns ctx.Err() after in-flight iterations finish —
// the pool aborts promptly instead of draining the remaining n iterations.
// Iterations that were dispatched before cancellation run to completion; f
// that wants intra-iteration promptness should consult ctx itself.
func (e *Engine) DoCtx(ctx context.Context, n int, f func(i int)) error {
	if n <= 0 {
		return ctx.Err()
	}
	w := e.workers
	if w > n {
		w = n
	}
	if w == 1 {
		for i := 0; i < n; i++ {
			if err := ctx.Err(); err != nil {
				return err
			}
			f(i)
		}
		return ctx.Err()
	}
	var next atomic.Int64
	var wg sync.WaitGroup
	for g := 0; g < w; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for ctx.Err() == nil {
				i := next.Add(1) - 1
				if i >= int64(n) {
					return
				}
				f(int(i))
			}
		}()
	}
	wg.Wait()
	return ctx.Err()
}

// targetKey names a target in the result-layer cache key. Historical release
// views share a Name with the canonical target but carry different defect
// sets, so the key qualifies the name with the version; the latest release is
// the canonical pointer itself and therefore keys identically whether reached
// through target.At or the default path. The compile layer is deliberately
// not version-qualified: a compile is fully determined by (module, mutation
// fingerprint), so releases with equal firing sets share one compile — the
// cache win bisection depends on.
//
// Targets are immutable after init, so each one's key is built once and
// kept in targetKeys rather than concatenated, one allocation each time,
// for every result-layer key.
func targetKey(tg *target.Target) string {
	if k, ok := targetKeys.Load(tg); ok {
		return k.(string)
	}
	k := tg.Name + "\x00" + tg.Version
	targetKeys.Store(tg, k)
	return k
}

var targetKeys sync.Map // *target.Target -> its targetKey

// keyFor builds the content-addressed cache key: the module hash is the
// memoized fingerprint and the inputs hash is the memoized uniforms hash
// (width and height travel as explicit key fields).
func (e *Engine) keyFor(tg *target.Target, m *spirv.Module, in interp.Inputs) key {
	return key{target: targetKey(tg), mod: m.Fingerprint(), w: in.W, h: in.H, uni: e.uniformsHash(in.Uniforms)}
}

// encodeInputs is interp.EncodeInputs; tests count its calls through it.
var encodeInputs = interp.EncodeInputs

// uniformsHash returns sha256 of the uniforms' EncodeInputs form, the hash
// every result key and persistent memo key carries. Campaigns and
// reductions query thousands of runs against a handful of uniform values,
// but replay clones the inputs for every query, so the memo is keyed by
// content (uniformsKey), not by map identity: content-equal maps share one
// JSON encoding, and a map mutated between runs gets a fresh key. Uniforms
// that fail to encode share a zero sentinel distinct from every real hash.
func (e *Engine) uniformsHash(u map[string]interp.Value) [sha256.Size]byte {
	var buf [128]byte
	k := uniformsKey(buf[:0], u)
	e.uniMu.Lock()
	h, ok := e.uniMemo[string(k)]
	e.uniMu.Unlock()
	if ok {
		return h
	}
	if data, err := encodeInputs(interp.Inputs{Uniforms: u}); err == nil {
		h = sha256.Sum256(data)
	}
	e.uniMu.Lock()
	if len(e.uniMemo) >= maxUniformMemo {
		clear(e.uniMemo) // rare; restart
	}
	e.uniMemo[string(k)] = h
	e.uniMu.Unlock()
	return h
}

// uniformsKey appends a compact, injective encoding of u's content to dst:
// the names in sorted order, each length-prefixed and followed by its value.
// Two maps with equal keys have equal EncodeInputs output.
func uniformsKey(dst []byte, u map[string]interp.Value) []byte {
	var nbuf [16]string
	names := nbuf[:0]
	for name := range u {
		names = append(names, name)
	}
	slices.Sort(names)
	for _, name := range names {
		dst = binary.AppendUvarint(dst, uint64(len(name)))
		dst = append(dst, name...)
		dst = appendValueKey(dst, u[name])
	}
	return dst
}

// appendValueKey appends the kind and the encoded payload of v. Kinds
// EncodeInputs rejects carry no payload: every such value fails alike.
func appendValueKey(dst []byte, v interp.Value) []byte {
	dst = append(dst, byte(v.Kind))
	switch v.Kind {
	case interp.KindBool:
		if v.B {
			return append(dst, 1)
		}
		return append(dst, 0)
	case interp.KindInt:
		return binary.LittleEndian.AppendUint32(dst, v.Bits)
	case interp.KindFloat:
		return binary.LittleEndian.AppendUint32(dst, math.Float32bits(v.F))
	case interp.KindComposite:
		dst = binary.AppendUvarint(dst, uint64(len(v.Elems)))
		for _, el := range v.Elems {
			dst = appendValueKey(dst, el)
		}
	}
	return dst
}
