// Package replay materializes the candidates of delta debugging.
//
// Reduction per Section 3.4 asks many interestingness queries, and each query
// replays a subsequence of the bug-inducing transformation sequence on a
// fresh copy of the original context (Definition 2.5). A Session binds one
// reduction's original module, inputs and sequence; its queries replay a
// keep-set, optionally with one slot overridden, and Commit makes an
// accepted override permanent.
//
// Every query replays from the original. Resuming from cached prefix
// snapshots skips about a quarter of the applies on real reductions, but the
// context clones that caching needs cost more time and memory than those
// applies (DESIGN.md, "Cache tiers: kept or deleted").
package replay

import (
	"sync/atomic"

	"spirvfuzz/internal/fuzz"
	"spirvfuzz/internal/interp"
	"spirvfuzz/internal/spirv"
)

// DefaultBudget was the prefix-snapshot store's size. NewEngine ignores its
// budget; the constant stays for callers that still pass it.
const DefaultBudget int64 = 64 << 20

// Stats is a point-in-time snapshot of engine counters, following the
// internal/runner Stats pattern.
type Stats struct {
	Queries uint64 // Replay/ReplayOverride calls
	Applied uint64 // transformations iterated while replaying (Σ|keep|)
}

// HitRate is always 0: there is no snapshot cache to hit. It stays for the
// callers that report it.
func (s Stats) HitRate() float64 { return 0 }

// SavedFraction is always 0: every query replays its whole keep-set. It
// stays for the callers that report it.
func (s Stats) SavedFraction() float64 { return 0 }

// Engine counts the replays of every session opened on it. The zero value
// is ready to use; a nil *Engine is tolerated by NewSession and counts
// nothing.
type Engine struct {
	queries atomic.Uint64
	applied atomic.Uint64
}

// NewEngine returns an engine. budget is ignored: it sized the prefix-
// snapshot store, which is gone, and the parameter stays so that callers
// passing DefaultBudget keep compiling.
func NewEngine(budget int64) *Engine { return &Engine{} }

// Stats returns a snapshot of the engine's counters. Safe on a nil engine.
func (e *Engine) Stats() Stats {
	if e == nil {
		return Stats{}
	}
	return Stats{Queries: e.queries.Load(), Applied: e.applied.Load()}
}

// Session binds one (original module, inputs, transformation sequence)
// triple — one reduction. The sequence is copied, so Commit never mutates
// the caller's slice. Replay and ReplayOverride are safe for concurrent
// use; Commit must not race with them.
type Session struct {
	eng      *Engine
	original *spirv.Module
	inputs   interp.Inputs
	ts       []fuzz.Transformation
}

// NewSession opens a replay session counted by e, which may be nil.
func (e *Engine) NewSession(original *spirv.Module, in interp.Inputs, ts []fuzz.Transformation) *Session {
	return &Session{
		eng:      e,
		original: original,
		inputs:   in,
		ts:       append([]fuzz.Transformation(nil), ts...),
	}
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

// Commit replaces the transformation at slot with t. Must not race with
// Replay.
func (s *Session) Commit(slot int, t fuzz.Transformation) {
	s.ts[slot] = t
}

// Replay replays the subsequence of the session's transformations selected
// by keep (sorted indices) onto a fresh copy of the original. It returns the
// resulting context, owned by the caller, and the indices actually applied,
// exactly as fuzz.ReplaySubsequenceContext would.
func (s *Session) Replay(keep []int) (*fuzz.Context, []int) {
	return s.ReplayOverride(keep, -1, nil)
}

// ReplayOverride is Replay with the transformation at the given slot
// replaced by t for this query only. A slot absent from keep degrades to a
// plain Replay.
func (s *Session) ReplayOverride(keep []int, slot int, t fuzz.Transformation) (*fuzz.Context, []int) {
	if e := s.eng; e != nil {
		e.queries.Add(1)
		e.applied.Add(uint64(len(keep)))
	}
	ctx := fuzz.NewContext(s.original.Clone(), s.inputs)
	applied := make([]int, 0, len(keep))
	for _, k := range keep {
		tr := s.ts[k]
		if k == slot {
			tr = t
		}
		if tr.Precondition(ctx) {
			tr.Apply(ctx)
			applied = append(applied, k)
		}
	}
	return ctx, applied
}
