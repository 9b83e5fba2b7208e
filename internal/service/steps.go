package service

import (
	"context"
	"encoding/json"
	"fmt"
	"sync"
	"time"

	"spirvfuzz/internal/bisect"
	"spirvfuzz/internal/core"
	"spirvfuzz/internal/corpus"
	"spirvfuzz/internal/dedup"
	"spirvfuzz/internal/fuzz"
	"spirvfuzz/internal/harness"
	"spirvfuzz/internal/interp"
	"spirvfuzz/internal/reduce"
	"spirvfuzz/internal/replay"
	"spirvfuzz/internal/runner"
	"spirvfuzz/internal/spirv"
	"spirvfuzz/internal/store"
	"spirvfuzz/internal/target"
)

// The campaign pipeline is deliberately split into pure, state-free step
// functions: generate-and-classify one test (FuzzStep), pick which bugs to
// reduce (SelectReductions), reduce one case (ReduceStep), and deduplicate
// into buckets (BuildBuckets). The single-node Service and the cluster
// coordinator/workers (internal/cluster) call the *same* functions, which is
// what makes distributed merge soundness a property of the code rather than
// an argument: every step is deterministic in (spec, inputs), selection and
// bucketing run over journal-shaped data in a canonical order, so any
// sharding of the steps across nodes reassembles into bitwise-identical
// buckets.

// BlobStore is the artifact persistence a pipeline step needs: the
// content-addressed subset of *store.Store. Workers pass their local store;
// hashes are stable across stores by construction.
type BlobStore interface {
	PutBlob(data []byte) (string, error)
	GetBlob(hash string) ([]byte, error)
}

// MemBlobs is an in-memory BlobStore for one-shot runs that need no
// durability (gfauto's experiments, examples, benchmarks). Blobs are keyed by
// store.HashBytes, so they hash as they would in a daemon's store. The zero
// value is ready to use.
type MemBlobs struct {
	mu    sync.Mutex
	blobs map[string][]byte
}

// PutBlob stores data under its content hash.
func (b *MemBlobs) PutBlob(data []byte) (string, error) {
	hash := store.HashBytes(data)
	b.mu.Lock()
	defer b.mu.Unlock()
	if b.blobs == nil {
		b.blobs = map[string][]byte{}
	}
	b.blobs[hash] = data
	return hash, nil
}

// GetBlob returns the blob stored under hash.
func (b *MemBlobs) GetBlob(hash string) ([]byte, error) {
	b.mu.Lock()
	defer b.mu.Unlock()
	data, ok := b.blobs[hash]
	if !ok {
		return nil, fmt.Errorf("service: no blob %s", hash)
	}
	return data, nil
}

// Env bundles the execution machinery behind the pipeline steps.
type Env struct {
	Eng   *runner.Engine
	Reng  *replay.Engine
	Blobs BlobStore
}

// ReduceCase is one bug selected for reduction. Case names embed the seed
// and target, so they are unique, stable across resumes and re-shardings,
// and sort the way the selection iterates.
type ReduceCase struct {
	Name string `json:"name"`
	Bug  BugRef `json:"bug"`
}

// ReducedRec is the journal-shaped result of one completed reduction. Types
// is the residual transformation-type set after ignoring supporting types,
// so bucket construction needs no blob reads.
type ReducedRec struct {
	Case       string   `json:"case"`
	Target     string   `json:"target"`
	Signature  string   `json:"signature"`
	ReportHash string   `json:"report_hash"`
	Types      []string `json:"types"`
	KeptLen    int      `json:"kept_len"`
	Delta      int      `json:"delta"`
	Queries    int      `json:"queries"`
	// CoveredBy names the earlier case whose minimized variant already
	// exhibits this case's (target, signature); set only by the cross-bucket
	// pre-check. A covered record reuses its coverer's report, types, and
	// sizes, and Queries counts the pre-check probes spent instead of
	// reduction queries.
	CoveredBy string `json:"covered_by,omitempty"`
}

// CaseName derives the reduction-case name of a bug: campaign, seed, and
// target, so names are unique, stable across resumes and re-shardings, and
// sort the way selection iterates.
func CaseName(campaignID string, bug BugRef) string {
	return fmt.Sprintf("%s/seed%d/%s", campaignID, bug.Seed, bug.Target)
}

// FindRef returns the reference-corpus item with the given name.
func FindRef(refs []corpus.Item, name string) (*corpus.Item, error) {
	for i := range refs {
		if refs[i].Name == name {
			return &refs[i], nil
		}
	}
	return nil, fmt.Errorf("service: unknown reference %q", name)
}

// ResolveTargets maps spec target names to targets, in spec order.
func ResolveTargets(names []string) ([]*target.Target, error) {
	targets := make([]*target.Target, 0, len(names))
	for _, name := range names {
		tg := target.ByName(name)
		if tg == nil {
			return nil, fmt.Errorf("service: unknown target %q", name)
		}
		targets = append(targets, tg)
	}
	return targets, nil
}

// FuzzStep generates test i of a campaign (seed = SeedBase + i over reference
// i mod len(refs)), classifies the variant against every target, and persists
// the sequence and variant blobs of any bug. Fully deterministic in
// (spec, refs, donors, i); the returned BugRefs reference artifacts by
// content hash, so two nodes running the same step produce identical records.
func FuzzStep(ctx context.Context, env Env, spec CampaignSpec, targets []*target.Target, refs []corpus.Item, donors []*spirv.Module, i int) ([]BugRef, error) {
	if d := time.Duration(spec.FuzzSlowdownMS) * time.Millisecond; d > 0 {
		// Pacing for interruption and pipelining tests; results unaffected.
		select {
		case <-time.After(d):
		case <-ctx.Done():
			return nil, ctx.Err()
		}
	}
	item := refs[i%len(refs)]
	seed := spec.SeedBase + int64(i)
	// Campaigns are throughput-bound, so each test gets a moderate pass
	// budget — the regime where the recommendations strategy pays off (with
	// an unbounded budget both configurations saturate the same
	// opportunities).
	res, err := fuzz.Fuzz(item.Mod, item.Inputs, fuzz.Options{
		Seed:                  seed,
		Donors:                donors,
		EnableRecommendations: spec.Tool == string(harness.ToolSpirvFuzz),
		MinPasses:             5,
		MaxPasses:             14,
	})
	if err != nil {
		return nil, err
	}
	var bugs []BugRef
	var seqHash, variantHash string
	sigs, err := harness.ClassifyAllCtx(ctx, env.Eng, targets, item.Mod, res.Variant, item.Inputs, res.Inputs)
	if err != nil {
		return nil, err
	}
	for ti, tg := range targets {
		sig := sigs[ti]
		if sig == "" {
			continue
		}
		if seqHash == "" {
			seqData, err := fuzz.MarshalSequence(res.Transformations)
			if err != nil {
				return nil, err
			}
			if seqHash, err = env.Blobs.PutBlob(seqData); err != nil {
				return nil, err
			}
			if variantHash, err = env.Blobs.PutBlob(res.Variant.EncodeBytes()); err != nil {
				return nil, err
			}
		}
		bugs = append(bugs, BugRef{
			Target:      tg.Name,
			Signature:   sig,
			Reference:   item.Name,
			Seed:        seed,
			SeqHash:     seqHash,
			VariantHash: variantHash,
		})
	}
	return bugs, nil
}

// SelectReductions picks which recorded bugs to reduce: tests in index
// order, each test's bugs in the spec's target order (the order FuzzStep
// recorded them), keeping at most CapPerSignature per (target, signature).
// Deterministic in its arguments — in particular, independent of how the
// tests were sharded across nodes.
func SelectReductions(campaignID string, spec CampaignSpec, testsDone map[int][]BugRef) []ReduceCase {
	count := map[string]int{}
	var out []ReduceCase
	for i := 0; i < spec.Tests; i++ {
		for _, bug := range testsDone[i] {
			key := bug.Target + "|" + bug.Signature
			if count[key] >= spec.CapPerSignature {
				continue
			}
			count[key]++
			out = append(out, ReduceCase{Name: CaseName(campaignID, bug), Bug: bug})
		}
	}
	return out
}

// ReduceWaveWidth is not read by the reducer, which runs ddmin serially and
// ignores reduce.ReduceParallelReplayCtx's workers argument. It exists only
// because the benchmark's pipeline passes it there.
const ReduceWaveWidth = 4

// ReduceStep replays the case's journaled sequence, delta-debugs it against
// the bug's interestingness test, and persists the reduced report blob. A
// sequence that does not trigger the case's bug fails with an error that
// names the case and wraps core.ErrNotInteresting.
func ReduceStep(ctx context.Context, env Env, campaignID string, spec CampaignSpec, refs []corpus.Item, rc ReduceCase) (ReducedRec, error) {
	tg := target.ByName(rc.Bug.Target)
	if tg == nil {
		return ReducedRec{}, fmt.Errorf("service: unknown target %q", rc.Bug.Target)
	}
	item, err := FindRef(refs, rc.Bug.Reference)
	if err != nil {
		return ReducedRec{}, err
	}
	seqData, err := env.Blobs.GetBlob(rc.Bug.SeqHash)
	if err != nil {
		return ReducedRec{}, err
	}
	ts, err := fuzz.UnmarshalSequence(seqData)
	if err != nil {
		return ReducedRec{}, err
	}
	interesting := reduce.ForOutcomeOn(env.Eng, tg, item.Mod, item.Inputs, rc.Bug.Signature)
	if d := time.Duration(spec.ReduceSlowdownMS) * time.Millisecond; d > 0 {
		inner := interesting
		interesting = func(m *spirv.Module, in interp.Inputs) bool {
			// Pacing for interruption tests; results are unaffected.
			select {
			case <-time.After(d):
			case <-ctx.Done():
			}
			return inner(m, in)
		}
	}
	res, err := reduce.ReduceParallelReplayCtx(ctx, item.Mod, item.Inputs, ts, interesting, 1, env.Reng)
	if err != nil {
		// With no record of the step, a resumed daemon or re-dispatched
		// shard re-runs the reduction from scratch and lands on the
		// canonical 1-minimal sequence.
		return ReducedRec{}, fmt.Errorf("service: reduce %s: %w", rc.Name, err)
	}
	reducedSeq, err := fuzz.MarshalSequence(res.Sequence)
	if err != nil {
		return ReducedRec{}, err
	}
	report := Report{
		Case:            rc.Name,
		Campaign:        campaignID,
		Target:          rc.Bug.Target,
		Signature:       rc.Bug.Signature,
		Reference:       rc.Bug.Reference,
		Seed:            rc.Bug.Seed,
		Kept:            res.Kept,
		Delta:           res.Delta,
		Queries:         res.Queries,
		Transformations: json.RawMessage(reducedSeq),
	}
	blob, err := json.MarshalIndent(report, "", "  ")
	if err != nil {
		return ReducedRec{}, err
	}
	reportHash, err := env.Blobs.PutBlob(blob)
	if err != nil {
		return ReducedRec{}, err
	}
	return ReducedRec{
		Case:       rc.Name,
		Target:     rc.Bug.Target,
		Signature:  rc.Bug.Signature,
		ReportHash: reportHash,
		Types:      core.SortedTypes(core.TypeSet(res.Sequence, fuzz.SupportingTypes())),
		KeptLen:    len(res.Kept),
		Delta:      res.Delta,
		Queries:    res.Queries,
	}, nil
}

// MinimizedVariant rebuilds the minimized variant of a completed reduction:
// it loads the case's report blob and replays the minimized sequence in full
// onto its reference module. Returns the replayed context and the reference
// item.
func MinimizedVariant(env Env, refs []corpus.Item, rec ReducedRec) (*fuzz.Context, *corpus.Item, error) {
	rep, ts, err := LoadReport(env.Blobs, rec.ReportHash)
	if err != nil {
		return nil, nil, err
	}
	item, err := FindRef(refs, rep.Reference)
	if err != nil {
		return nil, nil, err
	}
	fc, _ := fuzz.ReplayContext(item.Mod, item.Inputs, ts)
	return fc, item, nil
}

// BisectStep bisects one reduced case: it rebuilds the minimized variant
// from the case's report blob and binary-searches the target's release
// history for the first release exhibiting the bug. Deterministic in
// (rec, refs) — the verdict does not depend on which node runs the step or
// how warm its caches are — so the journaled outcome of a re-dispatched
// shard is identical to the original's.
func BisectStep(ctx context.Context, env Env, beng *bisect.Engine, refs []corpus.Item, rec ReducedRec) (BisectOutcome, error) {
	if err := ctx.Err(); err != nil {
		return BisectOutcome{}, err
	}
	fc, item, err := MinimizedVariant(env, refs, rec)
	if err != nil {
		return BisectOutcome{}, err
	}
	res, err := beng.Bisect(bisect.Case{
		Target:         rec.Target,
		Signature:      rec.Signature,
		Original:       item.Mod,
		OriginalInputs: item.Inputs,
		Variant:        fc.Mod,
		Inputs:         fc.Inputs,
	})
	if err != nil {
		return BisectOutcome{}, fmt.Errorf("service: bisect %s: %w", rec.Case, err)
	}
	return BisectOutcome{
		Case:      rec.Case,
		Target:    rec.Target,
		Signature: rec.Signature,
		FirstBad:  res.FirstBad,
		Queries:   res.Queries,
		CacheHits: res.CacheHits,
	}, nil
}

// BuildBisectSet assembles a finished bisection job's result over
// journal-shaped data: outcomes in the campaign's canonical case order, and
// the three signals' bucket counts. Like BuildBuckets it is deterministic in
// its arguments and order-independent in how the outcomes were produced, so
// a cluster-sharded job merges to the same set a single node computes.
// transformBuckets is the campaign's own Figure 6 bucket count.
func BuildBisectSet(jobID string, campaignID string, cases []ReduceCase, reduced map[string]ReducedRec, outcomes map[string]BisectOutcome, transformBuckets int) (BisectSet, error) {
	set := BisectSet{Job: jobID, Campaign: campaignID, TransformBuckets: transformBuckets}
	groups := map[string][]core.ReducedTest{}
	var order []string
	for _, rc := range cases {
		out, ok := outcomes[rc.Name]
		if !ok {
			return BisectSet{}, fmt.Errorf("service: bisect job %s: case %s selected but not bisected", jobID, rc.Name)
		}
		set.Outcomes = append(set.Outcomes, out)
		rec, ok := reduced[rc.Name]
		if !ok {
			return BisectSet{}, fmt.Errorf("service: bisect job %s: case %s has no reduction record", jobID, rc.Name)
		}
		k := dedup.BisectKey(out.Target, out.FirstBad)
		if _, seen := groups[k]; !seen {
			order = append(order, k)
		}
		types := make(map[string]bool, len(rec.Types))
		for _, t := range rec.Types {
			types[t] = true
		}
		groups[k] = append(groups[k], core.ReducedTest{Name: rc.Name, Types: types})
	}
	set.BisectBuckets = len(order)
	// The intersection signal: the type heuristic within each bisection
	// bucket, one report per (bisect bucket × type bucket) cell.
	for _, k := range order {
		set.IntersectionBuckets += len(core.Deduplicate(groups[k]))
	}
	return set, nil
}

// BuildBuckets applies the Figure 6 deduplication per target over the
// reduced cases, in the deterministic selection order. Dedup keys (signature
// + transformation-type set) are content-derived and order-independent, and
// cases arrive in selection order regardless of which node reduced them, so
// the merged bucket set of a sharded campaign is bitwise-identical to a
// single-node run's.
func BuildBuckets(campaignID string, spec CampaignSpec, cases []ReduceCase, reduced map[string]ReducedRec) ([]Bucket, error) {
	buckets := []Bucket{}
	for _, tgName := range spec.Targets {
		var tests []core.ReducedTest
		for _, rc := range cases {
			if rc.Bug.Target != tgName {
				continue
			}
			rec, ok := reduced[rc.Name]
			if !ok {
				return nil, fmt.Errorf("service: campaign %s: case %s selected but not reduced", campaignID, rc.Name)
			}
			types := make(map[string]bool, len(rec.Types))
			for _, t := range rec.Types {
				types[t] = true
			}
			tests = append(tests, core.ReducedTest{Name: rc.Name, Types: types})
		}
		for _, picked := range core.Deduplicate(tests) {
			rec := reduced[picked.Name]
			buckets = append(buckets, Bucket{
				Target:      tgName,
				Case:        picked.Name,
				Signature:   rec.Signature,
				Types:       rec.Types,
				SequenceLen: rec.KeptLen,
				Delta:       rec.Delta,
				ReportHash:  rec.ReportHash,
			})
		}
	}
	return buckets, nil
}
