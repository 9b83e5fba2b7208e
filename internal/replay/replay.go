// Package replay is the incremental replay engine behind delta debugging.
//
// Reduction per Section 3.4 asks many interestingness queries, and each query
// replays a subsequence of the bug-inducing transformation sequence on a
// fresh copy of the original context (Definition 2.5). Successive ddmin
// candidates differ only by one removed chunk, so consecutive queries share
// long applied prefixes — yet a naive replay re-applies every kept
// transformation from scratch, making an n-transformation reduction cost
// O(n²) transformation applications.
//
// This package amortizes that cost with a bounded, concurrency-safe store of
// context snapshots keyed by the applied prefix of a keep-set. A query for
// keep-set K finds the deepest cached snapshot whose key is a prefix of K,
// clones only that snapshot, and applies the remaining suffix, recording
// fresh snapshots at geometrically spaced depths on the way so that memory
// stays logarithmic in the sequence length. Transformation application is
// deterministic and snapshots are immutable (every hit clones), so a replay
// served from the cache is bitwise-identical to a fresh replay — property
// tests in this package verify that via the binary encoding.
package replay

import (
	"container/list"
	"sync"
	"sync/atomic"

	"spirvfuzz/internal/core"
	"spirvfuzz/internal/fuzz"
	"spirvfuzz/internal/interp"
	"spirvfuzz/internal/spirv"
)

// DefaultBudget is the default snapshot-store size: large enough that a
// single reduction rarely evicts, small next to campaign-scale memory.
const DefaultBudget int64 = 64 << 20

// snapGrainShift controls snapshot spacing: within each power-of-two octave
// of depths, 2^snapGrainShift snapshots are recorded (evenly spaced), so a
// prefix probe wastes at most ~1/2^snapGrainShift of its depth re-applying
// transformations below the deepest snapshot.
const snapGrainShift = 3

// maxRecordsPerQuery caps how many snapshots one query may record. Each
// record is a full context clone, so uncapped recording along a long suffix
// would cost more than the applies the snapshots later save; shallow grid
// points are recorded first and deeper ones by the subsequent queries that
// hit them.
const maxRecordsPerQuery = 3

// maxSeenKeys bounds the second-touch bookkeeping set. Entries are bare
// 16-byte keys, so the bound is generous; overflowing resets the set, which
// merely delays re-recording by one touch.
const maxSeenKeys = 1 << 20

// key identifies the context reached by applying one exact keep-prefix of
// one session's sequence. Two independently mixed 64-bit chains make
// accidental collisions (which would be a correctness bug, not a perf bug)
// vanishingly unlikely.
type key struct{ a, b uint64 }

// mix64 is the splitmix64 finalizer.
func mix64(z uint64) uint64 {
	z += 0x9e3779b97f4a7c15
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

// step extends the prefix chain by one word.
func (k key) step(x uint64) key {
	return key{
		a: mix64(k.a ^ x),
		b: mix64(k.b + x*0xc2b2ae3d27d4eb4f + 0x165667b19e3779f9),
	}
}

// snapshot is one cached context. Immutable once stored: Replay clones it
// before applying anything.
type snapshot struct {
	key     key
	ctx     *fuzz.Context
	applied []int // indices (into the session sequence) applied so far
	bytes   int64
}

// Stats is a point-in-time snapshot of engine counters, following the
// internal/runner Stats pattern.
type Stats struct {
	Queries   uint64 // Replay/ReplayOverride calls
	Hits      uint64 // queries resumed from a snapshot (prefix depth >= 1)
	FullHits  uint64 // hits whose snapshot already covered the whole keep-set
	Misses    uint64 // queries replayed from the original context
	Applied   uint64 // transformations iterated while replaying (suffix work)
	Requested uint64 // transformations selected across all queries (Σ|keep|)
	Snapshots int    // snapshots currently cached
	Bytes     int64  // estimated bytes of cached snapshots
	Evictions uint64 // snapshots discarded to stay under the budget
	Sessions  uint64 // sessions opened
}

// HitRate returns the fraction of queries that resumed from a snapshot.
func (s Stats) HitRate() float64 {
	if s.Queries == 0 {
		return 0
	}
	return float64(s.Hits) / float64(s.Queries)
}

// MeanSuffix returns the mean number of transformations applied per query —
// the replay cost the cache could not avoid. A fresh replay of keep-set K
// costs |K|; the gap to MeanRequested is the amortization.
func (s Stats) MeanSuffix() float64 {
	if s.Queries == 0 {
		return 0
	}
	return float64(s.Applied) / float64(s.Queries)
}

// MeanRequested returns the mean keep-set size per query.
func (s Stats) MeanRequested() float64 {
	if s.Queries == 0 {
		return 0
	}
	return float64(s.Requested) / float64(s.Queries)
}

// SavedFraction is the fraction of requested transformation applications the
// cache avoided; 0 with caching disabled.
func (s Stats) SavedFraction() float64 {
	if s.Requested == 0 {
		return 0
	}
	return 1 - float64(s.Applied)/float64(s.Requested)
}

// Engine is a concurrency-safe prefix-snapshot store shared by any number of
// replay sessions. The zero value is not valid; use NewEngine. A nil *Engine
// is tolerated by NewSession and behaves as "caching disabled".
type Engine struct {
	mu      sync.Mutex
	budget  int64 // bytes; <= 0 disables caching
	used    int64
	byKey   map[key]*list.Element
	lru     *list.List       // front = most recently used
	seen    map[key]struct{} // prefix keys requested once; second touch records
	session atomic.Uint64

	queries   atomic.Uint64
	hits      atomic.Uint64
	fullHits  atomic.Uint64
	misses    atomic.Uint64
	applied   atomic.Uint64
	requested atomic.Uint64
	evictions atomic.Uint64
}

// NewEngine returns an engine whose snapshots occupy at most budget bytes
// (estimated); budget <= 0 disables caching entirely, so every Replay is a
// fresh full replay — the pre-engine baseline, mirroring the runner engine's
// SetCacheCap(0).
func NewEngine(budget int64) *Engine {
	return &Engine{
		budget: budget,
		byKey:  make(map[key]*list.Element),
		lru:    list.New(),
		seen:   make(map[key]struct{}),
	}
}

// Enabled reports whether the engine caches snapshots.
func (e *Engine) Enabled() bool { return e != nil && e.budget > 0 }

// Stats returns a snapshot of the engine's counters. Safe on a nil engine.
func (e *Engine) Stats() Stats {
	if e == nil {
		return Stats{}
	}
	st := Stats{
		Queries:   e.queries.Load(),
		Hits:      e.hits.Load(),
		FullHits:  e.fullHits.Load(),
		Misses:    e.misses.Load(),
		Applied:   e.applied.Load(),
		Requested: e.requested.Load(),
		Evictions: e.evictions.Load(),
		Sessions:  e.session.Load(),
	}
	e.mu.Lock()
	st.Snapshots = e.lru.Len()
	st.Bytes = e.used
	e.mu.Unlock()
	return st
}

// lookup returns the snapshot stored under k, refreshing its LRU position.
func (e *Engine) lookup(k key) *snapshot {
	e.mu.Lock()
	defer e.mu.Unlock()
	el, ok := e.byKey[k]
	if !ok {
		return nil
	}
	e.lru.MoveToFront(el)
	return el.Value.(*snapshot)
}

// shouldRecord reports whether a snapshot is worth recording at prefix key
// k, and marks k as requested. Only the second touch of a key records: a
// ddmin candidate's prefixes beyond its removal point are unique to that
// candidate and caching them wastes a context clone each, while the
// surviving keep-set's prefixes recur in every subsequent candidate and pay
// for their snapshot almost immediately. The seen set stores bare keys (no
// contexts); it is reset wholesale if it ever grows pathological.
func (e *Engine) shouldRecord(k key) bool {
	e.mu.Lock()
	defer e.mu.Unlock()
	if _, ok := e.byKey[k]; ok {
		return false
	}
	if _, ok := e.seen[k]; ok {
		return true
	}
	if len(e.seen) >= maxSeenKeys {
		clear(e.seen)
	}
	e.seen[k] = struct{}{}
	return false
}

// insert stores snap, evicting least-recently-used snapshots to stay under
// the byte budget. Duplicate keys (two goroutines racing to record the same
// prefix) keep the existing entry.
func (e *Engine) insert(snap *snapshot) {
	e.mu.Lock()
	defer e.mu.Unlock()
	if _, ok := e.byKey[snap.key]; ok {
		return
	}
	e.byKey[snap.key] = e.lru.PushFront(snap)
	e.used += snap.bytes
	for e.used > e.budget && e.lru.Len() > 1 {
		el := e.lru.Back()
		old := el.Value.(*snapshot)
		e.lru.Remove(el)
		delete(e.byKey, old.key)
		e.used -= old.bytes
		e.evictions.Add(1)
	}
	// A single snapshot larger than the whole budget is not worth keeping.
	if e.used > e.budget {
		el := e.lru.Back()
		old := el.Value.(*snapshot)
		e.lru.Remove(el)
		delete(e.byKey, old.key)
		e.used -= old.bytes
		e.evictions.Add(1)
	}
}

// Session binds an engine to one (original module, inputs, transformation
// sequence) triple — one reduction. The sequence is copied, so Commit never
// mutates the caller's slice. Replay and ReplayOverride are safe for
// concurrent use; Commit must not race with them (the reducer commits only
// between shrink probes, which is exactly that discipline).
type Session struct {
	eng      *Engine
	original *spirv.Module
	inputs   interp.Inputs
	ts       []fuzz.Transformation
	versions []uint32 // bumped by Commit; mixed into prefix keys
	base     key
}

// NewSession opens a replay session. eng may be nil (caching disabled).
func (e *Engine) NewSession(original *spirv.Module, in interp.Inputs, ts []fuzz.Transformation) *Session {
	s := &Session{
		original: original,
		inputs:   in,
		ts:       append([]fuzz.Transformation(nil), ts...),
		versions: make([]uint32, len(ts)),
	}
	if e != nil {
		s.eng = e
		id := e.session.Add(1)
		s.base = key{a: mix64(id), b: mix64(id ^ 0xa5a5a5a5a5a5a5a5)}
	}
	return s
}

// NewSession on a nil engine still yields a working (uncached) session.
func NewSession(original *spirv.Module, in interp.Inputs, ts []fuzz.Transformation) *Session {
	return (*Engine)(nil).NewSession(original, in, ts)
}

// Len returns the sequence length.
func (s *Session) Len() int { return len(s.ts) }

// At returns the transformation currently at slot i (reflecting Commits).
func (s *Session) At(i int) fuzz.Transformation { return s.ts[i] }

// Sequence returns the transformations at the given slots, reflecting
// committed overrides — the minimized sequence a reduction reports.
func (s *Session) Sequence(keep []int) []fuzz.Transformation {
	out := make([]fuzz.Transformation, len(keep))
	for i, k := range keep {
		out[i] = s.ts[k]
	}
	return out
}

// Commit replaces the transformation at slot with t and bumps the slot's
// version, so prefixes that include the slot key differently from now on
// while snapshots below it stay valid. Must not race with Replay.
func (s *Session) Commit(slot int, t fuzz.Transformation) {
	s.ts[slot] = t
	s.versions[slot]++
}

// Replay replays the subsequence of the session's transformations selected
// by keep (sorted indices), resuming from the deepest cached prefix
// snapshot. It returns the resulting context — owned by the caller, never
// shared with the cache — and the indices actually applied, exactly as
// fuzz.ReplaySubsequenceContext would.
func (s *Session) Replay(keep []int) (*fuzz.Context, []int) {
	return s.replay(keep, len(keep), nil)
}

// ReplayOverride is Replay with the transformation at the given slot
// replaced by t for this query only. Cached prefixes are used (and fresh
// snapshots recorded) only below the override's position in keep; the
// override and everything after it are always applied live. A slot absent
// from keep degrades to a plain Replay.
func (s *Session) ReplayOverride(keep []int, slot int, t fuzz.Transformation) (*fuzz.Context, []int) {
	limit := len(keep)
	for i, k := range keep {
		if k == slot {
			limit = i
			break
		}
	}
	override := func(i int) fuzz.Transformation {
		if keep[i] == slot {
			return t
		}
		return s.ts[keep[i]]
	}
	return s.replay(keep, limit, override)
}

// replay is the engine room: resume from the deepest cached prefix of
// keep[:limit], apply the rest (through override when given), recording
// snapshots at geometrically spaced depths <= limit.
func (s *Session) replay(keep []int, limit int, override func(i int) fuzz.Transformation) (*fuzz.Context, []int) {
	e := s.eng
	cached := e.Enabled()
	if cached {
		e.queries.Add(1)
		e.requested.Add(uint64(len(keep)))
	}

	var ctx *fuzz.Context
	var applied []int
	depth := 0
	var keys []key
	if cached {
		// Chain the prefix keys once, then probe from deepest to shallowest.
		keys = make([]key, limit+1)
		keys[0] = s.base
		for i := 0; i < limit; i++ {
			k := keep[i]
			keys[i+1] = keys[i].step(uint64(k)).step(uint64(s.versions[k]))
		}
		for d := limit; d >= 1; d-- {
			if snap := e.lookup(keys[d]); snap != nil {
				ctx = snap.ctx.Clone()
				applied = append(make([]int, 0, len(keep)), snap.applied...)
				depth = d
				break
			}
		}
	}
	if ctx == nil {
		ctx = fuzz.NewContext(s.original.Clone(), s.inputs)
		applied = make([]int, 0, len(keep))
		if cached {
			e.misses.Add(1)
		}
	} else {
		e.hits.Add(1)
		if depth == len(keep) {
			e.fullHits.Add(1)
			return ctx, applied
		}
	}

	// Snapshot recording is capped per query: each snapshot costs a full
	// context clone, and recording every grid depth along a long suffix
	// would make the cache slower than fresh replay. shouldRecord further
	// restricts recording to prefixes that a second query has actually
	// requested; together the two rules keep per-query overhead at most
	// maxRecordsPerQuery clones, all of them spent on reused prefixes.
	// Shallow grid points are recorded first; the next query sharing the
	// prefix hits the new snapshot and records the ones beyond it.
	records := 0
	for i := depth; i < len(keep); i++ {
		t := s.ts[keep[i]]
		if override != nil && i >= limit {
			t = override(i)
		}
		if t.Precondition(ctx) {
			t.Apply(ctx)
			applied = append(applied, keep[i])
		}
		if cached && records < maxRecordsPerQuery && i+1 <= limit &&
			recordAt(i+1, len(keep), limit) && e.shouldRecord(keys[i+1]) {
			records++
			e.insert(&snapshot{
				key:     keys[i+1],
				ctx:     ctx.Clone(),
				applied: append([]int(nil), applied...),
				bytes:   contextBytes(ctx),
			})
		}
	}
	if cached {
		e.applied.Add(uint64(len(keep) - depth))
	}
	return ctx, applied
}

// recordAt reports whether a snapshot should be recorded at the given prefix
// depth: always at the full (or override-bounded) depth, else at depths that
// are multiples of a grain growing geometrically with depth, giving
// O(2^snapGrainShift · log n) snapshots per distinct prefix chain.
func recordAt(depth, full, limit int) bool {
	if depth == full || depth == limit {
		return true
	}
	grain := 1
	for g := depth >> snapGrainShift; g > 1; g >>= 1 {
		grain <<= 1
	}
	return depth%grain == 0
}

// contextBytes estimates the retained size of a context snapshot: the module
// instruction payload plus inputs and facts. Estimates only steer eviction;
// they need to be cheap and roughly proportional, not exact.
func contextBytes(c *fuzz.Context) int64 {
	n := int64(512)
	c.Mod.ForEachInstruction(func(ins *spirv.Instruction) {
		n += 56 + 4*int64(cap(ins.Operands))
	})
	for _, fn := range c.Mod.Functions {
		n += 128 + 96*int64(len(fn.Blocks))
	}
	for _, v := range c.Inputs.Uniforms {
		n += 48 + 16*int64(len(v.Elems))
	}
	n += int64(c.Facts.ApproxBytes())
	return n
}

// Verify replays keep both through the session and freshly, and reports
// whether the two contexts agree bitwise (module binary encoding, applied
// indices, and inputs). It exists for tests and debugging assertions.
func (s *Session) Verify(keep []int) bool {
	got, gotApplied := s.Replay(keep)
	want := fuzz.NewContext(s.original.Clone(), s.inputs)
	wantApplied := core.ApplySubsequence(want, s.Sequence(keep), seqIdx(keep))
	if len(gotApplied) != len(wantApplied) {
		return false
	}
	for i := range gotApplied {
		if gotApplied[i] != keep[wantApplied[i]] {
			return false
		}
	}
	return string(got.Mod.EncodeBytes()) == string(want.Mod.EncodeBytes())
}

// seqIdx returns [0, 1, ..., len(keep)-1]: the keep-set of a re-indexed
// subsequence.
func seqIdx(keep []int) []int {
	out := make([]int, len(keep))
	for i := range out {
		out[i] = i
	}
	return out
}
