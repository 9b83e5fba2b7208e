// Package bisect implements the second deduplication signal: given a reduced
// test case that triggers a bug at a target's latest release, binary-search
// the target's release history (internal/target version views) for the first
// release that exhibits the bug — the release that introduced the defect.
// Two cases that bisect to the same (target, first-bad release) pair very
// likely hit the same defect, which is the dedup criterion of "On the
// Feasibility of Deduplicating Compiler Bugs with Bisection" (PAPERS.md),
// complementary to the paper's transformation-type signal.
//
// Probes route through a shared runner.Engine, and the engine's compile
// cache is keyed on (module fingerprint, mutation fingerprint) with no
// version component: releases whose defect firing sets agree on a module
// share one compile, so a full bisection costs far fewer compiles than
// releases probed. Crash probes are cheaper still: a signature only the
// defect scan can raise (target.ScanDecides, true of every injected crash
// defect) is decided by the release view's CheckCrashes alone, so such a
// probe never compiles or renders.
//
// Verdicts are engine-independent: every probe is an ordinary deterministic
// target run, so FirstBad is identical at any worker count, under either
// interpreter engine, at any cache temperature, and under cluster sharding.
package bisect

import (
	"crypto/sha256"
	"fmt"
	"sync"

	"spirvfuzz/internal/interp"
	"spirvfuzz/internal/runner"
	"spirvfuzz/internal/spirv"
	"spirvfuzz/internal/target"
)

// Result is one bisection verdict. Queries counts release probes; CacheHits
// counts the probes answered without a fresh compile — either the release
// crashed on the module before reaching its compiler (the phase-split win),
// or every compile key the probe touched had already been compiled earlier
// in this bisection (the shared-compile win). Both counts are self-relative
// to the bisection, so they are deterministic even on a warm engine shared
// with concurrent work.
type Result struct {
	Target    string `json:"target"`
	FirstBad  string `json:"first_bad"`
	Queries   int    `json:"queries"`
	CacheHits int    `json:"cache_hits"`
}

// Stats is the aggregated BisectStats block an engine accumulates across
// bisections; it surfaces in gfauto -json, spirvd /metrics and the cluster
// coordinator's merged metrics.
type Stats struct {
	Bisections uint64 `json:"bisections"`
	Queries    uint64 `json:"queries"`
	CacheHits  uint64 `json:"cache_hits"`
	Compiles   uint64 `json:"compiles"` // fresh compile keys probed
}

// HitFraction is the fraction of release probes that needed no fresh
// compile — the headline number behind "a bisection costs far fewer
// compiles than releases probed".
func (s Stats) HitFraction() float64 {
	if s.Queries == 0 {
		return 0
	}
	return float64(s.CacheHits) / float64(s.Queries)
}

// Add merges other into s (cluster metric merging).
func (s *Stats) Add(other Stats) {
	s.Bisections += other.Bisections
	s.Queries += other.Queries
	s.CacheHits += other.CacheHits
	s.Compiles += other.Compiles
}

// Predicate reports whether one release view of a target exhibits the bug
// under bisection. Implementations must be deterministic in the view alone.
type Predicate func(view *target.Target) (bool, error)

// Case is a concrete reduced test case to bisect: the variant module (on its
// inputs) triggers the bug with Signature on Target's latest release.
// Original and OriginalInputs name the unfuzzed reference the variant was
// derived from; they drive the image-pair comparison for miscompilation
// signatures and are ignored for crash signatures.
type Case struct {
	Target         string
	Signature      string
	Original       *spirv.Module
	OriginalInputs interp.Inputs
	Variant        *spirv.Module
	Inputs         interp.Inputs
}

// Engine runs bisections over a shared runner engine.
type Engine struct {
	eng *runner.Engine

	mu    sync.Mutex
	stats Stats
}

// New returns a bisection engine probing through eng; a nil eng gets a
// private single-worker runner (probes are sequential anyway).
func New(eng *runner.Engine) *Engine {
	if eng == nil {
		eng = runner.New(1)
	}
	return &Engine{eng: eng}
}

// Runner returns the underlying runner engine.
func (e *Engine) Runner() *runner.Engine { return e.eng }

// Stats returns a snapshot of the aggregated counters.
func (e *Engine) Stats() Stats {
	e.mu.Lock()
	defer e.mu.Unlock()
	return e.stats
}

// compileKey mirrors the runner's compile-cache key: a compile is fully
// determined by the module and the mutation set the release applies to it.
type compileKey struct {
	mod [sha256.Size]byte
	mut string
}

// probeCost tracks, per bisection, which compile keys have been probed, so
// CacheHits stays self-relative and deterministic.
type probeCost struct {
	seen  map[compileKey]bool
	fresh int // compiles this probe would have to run cold
}

// charge records one target run of m at view: a run that crashes in the
// defect check never reaches the compiler and costs nothing; otherwise the
// run's compile key counts as fresh exactly once per bisection.
func (p *probeCost) charge(view *target.Target, m *spirv.Module) {
	if view.CheckCrashes(m) != nil {
		return
	}
	k := compileKey{mod: m.Fingerprint(), mut: view.MutationFingerprint(m)}
	if !p.seen[k] {
		p.seen[k] = true
		p.fresh++
	}
}

// Run binary-searches the named target's release sequence for the first
// release where pred holds. The bug must reproduce at the latest release
// (the search confirms this with its first probe); within that contract the
// search returns the canonical git-bisect answer — the smallest index whose
// probe is true when its upper neighbourhood is true — deterministically
// even if the history is not monotone (a defect fixed and reintroduced).
func (e *Engine) Run(name string, pred Predicate) (Result, error) {
	res, compiles, err := e.search(name, pred, nil)
	if err != nil {
		return res, err
	}
	e.record(res, compiles)
	return res, nil
}

// Bisect bisects a concrete case: the per-release predicate matches the
// harness's outcome classification. For a crash signature the release must
// crash on the variant with the same signature (signatures carry no version
// component, so one defect keeps one signature across releases); for the
// miscompilation pseudo-signature the release must render the variant
// successfully but differently from the original. An original that crashes
// at any release violates the target package's originals-are-clean
// invariant and is reported as an error.
func (e *Engine) Bisect(c Case) (Result, error) {
	if c.Variant == nil {
		return Result{}, fmt.Errorf("bisect: %s: case has no variant module", c.Target)
	}
	var pred Predicate
	if c.Signature == target.MiscompilationSignature {
		if c.Original == nil {
			return Result{}, fmt.Errorf("bisect: %s: miscompilation case has no original module", c.Target)
		}
		pred = func(view *target.Target) (bool, error) {
			origImg, origCrash := e.eng.Run(view, c.Original, c.OriginalInputs)
			if origCrash != nil {
				return false, fmt.Errorf("bisect: original crashes on %s at %s: %s", view.Name, view.Version, origCrash.Signature)
			}
			varImg, varCrash := e.eng.Run(view, c.Variant, c.Inputs)
			return varCrash == nil && varImg != nil && origImg != nil && !varImg.Equal(origImg), nil
		}
	} else if target.ScanDecides(c.Signature) {
		// The view's defect scan alone decides the probe (see
		// target.ScanDecides): no compile, no render, no cache fill.
		pred = func(view *target.Target) (bool, error) {
			crash := view.CheckCrashes(c.Variant)
			return crash != nil && crash.Signature == c.Signature, nil
		}
	} else {
		pred = func(view *target.Target) (bool, error) {
			_, crash := e.eng.Run(view, c.Variant, c.Inputs)
			return crash != nil && crash.Signature == c.Signature, nil
		}
	}
	charge := func(view *target.Target, cost *probeCost) {
		if c.Signature == target.MiscompilationSignature {
			cost.charge(view, c.Original)
		}
		cost.charge(view, c.Variant)
	}
	res, compiles, err := e.search(c.Target, pred, charge)
	if err != nil {
		return res, err
	}
	e.record(res, compiles)
	return res, nil
}

// search is the shared binary search. charge, if non-nil, is called before
// each probe to account the probe's compile cost against cost; a probe
// whose charge adds no fresh compile counts as a cache hit. The fresh
// compile total is returned alongside the result for the stats block.
func (e *Engine) search(name string, pred Predicate, charge func(view *target.Target, cost *probeCost)) (Result, int, error) {
	releases := target.Releases(name)
	if releases == nil {
		return Result{}, 0, fmt.Errorf("bisect: unknown target %q", name)
	}
	res := Result{Target: name}
	cost := &probeCost{seen: map[compileKey]bool{}}
	probe := func(i int) (bool, error) {
		view := target.At(name, releases[i])
		before := cost.fresh
		if charge != nil {
			charge(view, cost)
		}
		res.Queries++
		ok, err := pred(view)
		if err != nil {
			return false, err
		}
		if cost.fresh == before {
			res.CacheHits++
		}
		return ok, nil
	}

	latest := len(releases) - 1
	ok, err := probe(latest)
	if err != nil {
		return res, cost.fresh, err
	}
	if !ok {
		return res, cost.fresh, fmt.Errorf("bisect: %s: bug does not reproduce at latest release %s", name, releases[latest])
	}
	lo, hi := 0, latest
	for lo < hi {
		mid := lo + (hi-lo)/2
		ok, err := probe(mid)
		if err != nil {
			return res, cost.fresh, err
		}
		if ok {
			hi = mid
		} else {
			lo = mid + 1
		}
	}
	res.FirstBad = releases[lo]
	return res, cost.fresh, nil
}

// record folds one completed bisection into the engine counters.
func (e *Engine) record(res Result, compiles int) {
	e.mu.Lock()
	e.stats.Bisections++
	e.stats.Queries += uint64(res.Queries)
	e.stats.CacheHits += uint64(res.CacheHits)
	e.stats.Compiles += uint64(compiles)
	e.mu.Unlock()
}
