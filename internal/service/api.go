// Package service is the campaign job system behind the spirvd daemon: it
// owns the full pipeline of the paper — fuzz → run → reduce → dedup
// (Sections 3.2–3.5) — as durable jobs over the internal/store journal and
// the internal/runner execution engine.
//
// Every pipeline step is deterministic (seeded fuzzing, memoized target
// execution, worker-count-invariant parallel reduction, stable
// deduplication), so durability reduces to bookkeeping: the journal records
// which steps completed, artifacts live in the content-addressed blob store,
// and a restarted daemon replays the journal, skips completed steps, and
// recomputes the rest — ending with buckets bitwise-identical to an
// uninterrupted run.
package service

import (
	"encoding/json"
	"fmt"

	"spirvfuzz/internal/bisect"
	"spirvfuzz/internal/harness"
	"spirvfuzz/internal/memostore"
	"spirvfuzz/internal/replay"
	"spirvfuzz/internal/runner"
	"spirvfuzz/internal/store"
	"spirvfuzz/internal/target"
)

// CampaignSpec is the user-supplied description of a campaign
// (POST /campaigns). The zero value of each optional field selects a
// default; Normalize resolves them so the journaled spec is self-contained.
type CampaignSpec struct {
	// Tool is the fuzzer configuration: "spirv-fuzz" (default) or
	// "spirv-fuzz-simple" (recommendations disabled). glsl-fuzz produces no
	// transformation sequences and cannot feed the reduction pipeline.
	Tool string `json:"tool,omitempty"`
	// Tests is the number of generated tests; required.
	Tests int `json:"tests"`
	// SeedBase offsets the per-test seeds (test i uses SeedBase + i). When 0,
	// the tool's harness offset is used so configurations draw disjoint seeds.
	SeedBase int64 `json:"seed_base,omitempty"`
	// Targets restricts the campaign to the named targets; empty selects all
	// Table 2 targets.
	Targets []string `json:"targets,omitempty"`
	// CapPerSignature bounds how many bugs per (target, signature) pair enter
	// reduction — reduction is the expensive stage and duplicates past the
	// cap add nothing to deduplication. Default 2.
	CapPerSignature int `json:"cap_per_signature,omitempty"`
	// ReduceSlowdownMS sleeps this long before every interestingness query
	// during reduction. A pacing knob for tests that must interrupt a daemon
	// mid-reduction; it alters timing only, never results. Default 0.
	ReduceSlowdownMS int `json:"reduce_slowdown_ms,omitempty"`
	// FuzzSlowdownMS sleeps this long before each fuzz test. Like
	// ReduceSlowdownMS it is a pacing knob for interruption and pipelining
	// tests — timing only, never results. Default 0.
	FuzzSlowdownMS int `json:"fuzz_slowdown_ms,omitempty"`
	// CrossBucketPrecheck opts the reduce stage into the cross-bucket
	// pre-check: cases run serially in selection order, and before a case is
	// reduced, every earlier case's minimized variant is tried against its
	// interestingness test — a hit means the earlier report already exhibits
	// this case's (target, signature), so the expensive reduction is skipped
	// and the case journaled as covered by the earlier one. Serial by design
	// (each verdict depends on the minimized variants before it), so the
	// cluster coordinator rejects it. Default false.
	CrossBucketPrecheck bool `json:"cross_bucket_precheck,omitempty"`
}

// Campaign states, in pipeline order. A recovered job is pending until
// recovery resumes it; bucketing happens inside the record that completes
// the reduce phase, so a campaign goes from reducing straight to done.
// Bisect jobs reuse StatePending, StateDone and StateFailed and add
// StateBisecting as their running state.
const (
	StatePending   = "pending"
	StateFuzzing   = "fuzzing"
	StateReducing  = "reducing"
	StateBisecting = "bisecting"
	StateDone      = "done"
	StateFailed    = "failed"
)

// Normalize validates the spec and resolves defaults in place, so that the
// journaled spec replays identically on resume.
func (sp *CampaignSpec) Normalize() error {
	switch sp.Tool {
	case "":
		sp.Tool = string(harness.ToolSpirvFuzz)
	case string(harness.ToolSpirvFuzz), string(harness.ToolSpirvFuzzSimple):
	default:
		return fmt.Errorf("service: unsupported tool %q", sp.Tool)
	}
	if sp.Tests < 1 || sp.Tests > 1_000_000 {
		return fmt.Errorf("service: tests must be in [1, 1000000], got %d", sp.Tests)
	}
	if sp.SeedBase == 0 && sp.Tool == string(harness.ToolSpirvFuzzSimple) {
		sp.SeedBase = 1 << 32 // the harness offset for the simple configuration
	}
	if sp.CapPerSignature == 0 {
		sp.CapPerSignature = 2
	}
	if sp.CapPerSignature < 0 {
		return fmt.Errorf("service: cap_per_signature must be >= 0")
	}
	if sp.ReduceSlowdownMS < 0 || sp.ReduceSlowdownMS > 60_000 {
		return fmt.Errorf("service: reduce_slowdown_ms must be in [0, 60000]")
	}
	if sp.FuzzSlowdownMS < 0 || sp.FuzzSlowdownMS > 60_000 {
		return fmt.Errorf("service: fuzz_slowdown_ms must be in [0, 60000]")
	}
	if len(sp.Targets) == 0 {
		for _, tg := range target.All() {
			sp.Targets = append(sp.Targets, tg.Name)
		}
		return nil
	}
	seen := map[string]bool{}
	for _, name := range sp.Targets {
		if target.ByName(name) == nil {
			return fmt.Errorf("service: unknown target %q", name)
		}
		if seen[name] {
			return fmt.Errorf("service: duplicate target %q", name)
		}
		seen[name] = true
	}
	return nil
}

// CampaignStatus is the public snapshot of one campaign (GET /campaigns/{id}).
type CampaignStatus struct {
	ID    string       `json:"id"`
	State string       `json:"state"`
	Spec  CampaignSpec `json:"spec"`
	// TestsDone counts generated-and-classified tests, including ones
	// satisfied from the journal on resume.
	TestsDone int `json:"tests_done"`
	// Bugs counts (test, target) bug findings.
	Bugs int `json:"bugs"`
	// ReduceTotal is the number of bugs selected for reduction (after the
	// per-signature cap); Reduced counts completed reductions.
	ReduceTotal int `json:"reduce_total"`
	Reduced     int `json:"reduced"`
	// Buckets is the number of recommended reports; nonzero only once done.
	Buckets int `json:"buckets"`
	// SkippedTests and SkippedReductions count pipeline steps that were
	// satisfied from the journal instead of being re-run — the checkpoint
	// reuse the resume e2e test asserts on.
	SkippedTests      int `json:"skipped_tests"`
	SkippedReductions int `json:"skipped_reductions"`
	// CoveredReductions counts reductions the cross-bucket pre-check skipped
	// because an earlier case's minimized variant already exhibited this
	// case's (target, signature). Always 0 without CrossBucketPrecheck.
	CoveredReductions int    `json:"covered_reductions,omitempty"`
	Error             string `json:"error,omitempty"`
	// MemoHits and MemoMisses are this campaign's slice of the persistent
	// memo tier: engine-counter deltas over the pipeline's run window.
	// They are observability only (never journaled, zero after a resume,
	// approximate under concurrent campaigns) and both zero when the
	// daemon runs without a memo store.
	MemoHits   uint64 `json:"memo_hits,omitempty"`
	MemoMisses uint64 `json:"memo_misses,omitempty"`
}

// Bucket is one recommended bug report (Section 3.5): the representative of
// a set of reduced tests that share transformation types. Buckets for one
// campaign are pairwise disjoint in (non-supporting) transformation types.
type Bucket struct {
	Target    string `json:"target"`
	Case      string `json:"case"`
	Signature string `json:"signature"`
	// Types is the sorted residual transformation-type set after removing
	// supporting types — the deduplication key.
	Types []string `json:"types"`
	// SequenceLen is the minimized sequence length; Delta the instruction-
	// count delta of Section 4.2.
	SequenceLen int `json:"sequence_len"`
	Delta       int `json:"delta"`
	// ReportHash addresses the full reduced report blob (GET /reports/{hash}).
	ReportHash string `json:"report_hash"`
}

// BucketSet is one campaign's recommended reports (GET /buckets).
type BucketSet struct {
	Campaign string   `json:"campaign"`
	Buckets  []Bucket `json:"buckets"`
}

// BisectSpec is the user-supplied description of a bisection job
// (POST /bisect): run the second dedup signal over every reduced case of a
// finished campaign, binary-searching each case's target release history for
// the first release that exhibits the bug.
type BisectSpec struct {
	// Campaign names the finished campaign whose reduced cases to bisect.
	Campaign string `json:"campaign"`
}

// BisectOutcome is one case's bisection verdict as journaled by a
// case_bisected record. Deterministic in the case alone: FirstBad is
// identical at any worker count, under either interpreter engine, at any
// cache temperature, and under cluster sharding.
type BisectOutcome struct {
	Case      string `json:"case"`
	Target    string `json:"target"`
	Signature string `json:"signature"`
	FirstBad  string `json:"first_bad"`
	Queries   int    `json:"queries"`
	CacheHits int    `json:"cache_hits"`
}

// BisectStatus is the public snapshot of one bisection job
// (GET /bisect/{id}).
type BisectStatus struct {
	ID       string `json:"id"`
	Campaign string `json:"campaign"`
	State    string `json:"state"`
	// CasesTotal is the number of reduced cases to bisect (0 until the job
	// lists them); CasesDone counts completed bisections, including ones
	// satisfied from the journal on resume (SkippedCases of them).
	CasesTotal   int    `json:"cases_total"`
	CasesDone    int    `json:"cases_done"`
	SkippedCases int    `json:"skipped_cases"`
	Error        string `json:"error,omitempty"`
}

// BisectSet is a finished bisection job's result (GET /bisect/{id}/result):
// every outcome in the campaign's canonical case order, plus the bucket
// counts of the three dedup signals over the same corpus — the daemon-served
// analogue of the gfauto bisection RQ.
type BisectSet struct {
	Job      string          `json:"job"`
	Campaign string          `json:"campaign"`
	Outcomes []BisectOutcome `json:"outcomes"`
	// TransformBuckets is the campaign's Figure 6 bucket count (the first
	// signal); BisectBuckets counts distinct (target, first-bad release)
	// pairs; IntersectionBuckets applies the type heuristic within each
	// bisection bucket, suppressing a report only when both signals agree.
	TransformBuckets    int `json:"transform_buckets"`
	BisectBuckets       int `json:"bisect_buckets"`
	IntersectionBuckets int `json:"intersection_buckets"`
}

// Report is a reduced bug report as stored in the blob store and served by
// GET /reports/{hash}. Its JSON embeds the minimized sequence under
// "transformations" next to "signature", so a saved report is directly
// consumable by spirv-dedup -dir.
type Report struct {
	Case      string `json:"case"`
	Campaign  string `json:"campaign"`
	Target    string `json:"target"`
	Signature string `json:"signature"`
	Reference string `json:"reference"`
	Seed      int64  `json:"seed"`
	// Kept are the surviving indices into the original sequence.
	Kept    []int `json:"kept"`
	Delta   int   `json:"delta"`
	Queries int   `json:"queries"`
	// Transformations is the minimized sequence (fuzz.MarshalSequence).
	Transformations json.RawMessage `json:"transformations"`
}

// Tally is the job count block both spirvd roles report in GET /metrics.
type Tally struct {
	Campaigns     int `json:"campaigns"`
	CampaignsDone int `json:"campaigns_done"`
	// Bisection-job counters.
	BisectJobs     int `json:"bisect_jobs"`
	BisectJobsDone int `json:"bisect_jobs_done"`
	// ReductionsCovered sums CoveredReductions across campaigns: reductions
	// skipped by the cross-bucket pre-check.
	ReductionsCovered int `json:"reductions_covered"`
	// JobsSkipped counts pipeline steps satisfied from the journal instead of
	// re-running — >0 after a resume proves checkpoint reuse.
	JobsSkipped uint64 `json:"jobs_skipped"`
}

// Metrics is the daemon-wide counter snapshot (GET /metrics).
type Metrics struct {
	Tally
	// Bisect holds the probe/compile stats of the shared bisection engine.
	Bisect bisect.Stats `json:"bisect"`
	// Job-queue counters.
	JobsSubmitted uint64 `json:"jobs_submitted"`
	JobsCompleted uint64 `json:"jobs_completed"`
	JobsFailed    uint64 `json:"jobs_failed"`
	JobsRetried   uint64 `json:"jobs_retried"`
	JobsDropped   uint64 `json:"jobs_dropped"`
	// Subsystem counters.
	Runner runner.Stats `json:"runner"`
	Replay replay.Stats `json:"replay"`
	Store  store.Stats  `json:"store"`
	// Memo is the persistent execution memo store's snapshot; nil when the
	// daemon runs without -memo-dir.
	Memo *memostore.Stats `json:"memo,omitempty"`
}
