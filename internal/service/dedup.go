package service

import (
	"fmt"
	"strconv"

	"spirvfuzz/internal/core"
	"spirvfuzz/internal/fuzz"
)

// The dedup signals BucketCases partitions reduced cases by. The transform
// signal is the Figure 6 heuristic of Section 3.5 over each case's residual
// transformation-type set; the bisect signal keys a case by the first
// release of its target that exhibits the bug (Zhou et al.'s bisection
// dedup); the intersection signal runs the type heuristic within each
// bisection bucket, so a report is suppressed only when both signals agree
// it duplicates an earlier one.
const (
	SignalTransform    = "transform"
	SignalBisect       = "bisect"
	SignalIntersection = "intersection"
)

// ResidualTypes is a minimized sequence's dedup key: its sorted
// transformation-type set after ignoring the supporting types of Section
// 3.5 (fuzz.SupportingTypes), as ReducedRec.Types stores it.
func ResidualTypes(seq []fuzz.Transformation) []string {
	return core.SortedTypes(core.TypeSet(seq, fuzz.SupportingTypes()))
}

// BisectKey is the bisection-signal bucket key: target × first-bad release.
// Two cases with equal keys were (very likely) broken by the same release.
func BisectKey(targetName, firstBad string) string {
	return targetName + "@" + firstBad
}

// BucketCases is the one deduplication function behind spirvd's buckets and
// bisect sets, gfauto's Table 4 and bisection RQ, and spirv-dedup. It
// partitions recs, given in the caller's canonical order, under one signal
// and returns one bucket per recommended report. Every signal groups per
// target: targets appear in the order their first case does, and a case
// never shares a bucket with another target's. Within a target:
//
//   - transform: core.Deduplicate over the cases' type sets — buckets are
//     pairwise disjoint in type, smallest type sets first, ties broken by
//     input order, and cases with no residual type are dropped;
//   - bisect: one bucket per first-bad release, represented by its first
//     case;
//   - intersection: core.Deduplicate within each first-bad release.
//
// The bisect signals read outcomes, keyed by case name; transform ignores
// it. The result depends only on its arguments, so any sharding of the
// steps that produced them buckets identically.
func BucketCases(signal string, recs []ReducedRec, outcomes map[string]BisectOutcome) ([]Bucket, error) {
	if signal != SignalTransform && signal != SignalBisect && signal != SignalIntersection {
		return nil, fmt.Errorf("service: unknown dedup signal %q", signal)
	}
	// groups lists each target's case groups, keyed by target for the
	// transform signal and by BisectKey otherwise, in first-appearance order.
	var targets []string
	groups := map[string][][]int{}
	groupOf := map[string]int{}
	for i, rec := range recs {
		key := rec.Target
		if signal != SignalTransform {
			out, ok := outcomes[rec.Case]
			if !ok {
				return nil, fmt.Errorf("service: %s signal: case %s has no bisection outcome", signal, rec.Case)
			}
			key = BisectKey(rec.Target, out.FirstBad)
		}
		if _, seen := groups[rec.Target]; !seen {
			targets = append(targets, rec.Target)
		}
		g, ok := groupOf[key]
		if !ok {
			g = len(groups[rec.Target])
			groupOf[key] = g
			groups[rec.Target] = append(groups[rec.Target], nil)
		}
		groups[rec.Target][g] = append(groups[rec.Target][g], i)
	}
	buckets := []Bucket{}
	for _, tg := range targets {
		for _, group := range groups[tg] {
			if signal == SignalBisect {
				buckets = append(buckets, bucketOf(recs[group[0]]))
				continue
			}
			// Tests are named by their index into recs.
			tests := make([]core.ReducedTest, len(group))
			for j, i := range group {
				types := make(map[string]bool, len(recs[i].Types))
				for _, t := range recs[i].Types {
					types[t] = true
				}
				tests[j] = core.ReducedTest{Name: strconv.Itoa(i), Types: types}
			}
			for _, picked := range core.Deduplicate(tests) {
				i, _ := strconv.Atoi(picked.Name)
				buckets = append(buckets, bucketOf(recs[i]))
			}
		}
	}
	return buckets, nil
}

// bucketOf is the bucket a recommended case represents.
func bucketOf(rec ReducedRec) Bucket {
	return Bucket{
		Target:      rec.Target,
		Case:        rec.Case,
		Signature:   rec.Signature,
		Types:       rec.Types,
		SequenceLen: rec.KeptLen,
		Delta:       rec.Delta,
		ReportHash:  rec.ReportHash,
	}
}

// BuildBuckets applies the Figure 6 deduplication per target over a
// campaign's reduced cases: targets in spec order, each target's cases in
// selection order. Dedup keys (transformation-type sets) are
// content-derived, and cases arrive in selection order regardless of which
// node reduced them, so the merged bucket set of a sharded campaign is
// bitwise-identical to a single-node run's.
func BuildBuckets(campaignID string, spec CampaignSpec, cases []ReduceCase, reduced map[string]ReducedRec) ([]Bucket, error) {
	var recs []ReducedRec
	for _, tgName := range spec.Targets {
		for _, rc := range cases {
			if rc.Bug.Target != tgName {
				continue
			}
			rec, ok := reduced[rc.Name]
			if !ok {
				return nil, fmt.Errorf("service: campaign %s: case %s selected but not reduced", campaignID, rc.Name)
			}
			recs = append(recs, rec)
		}
	}
	return BucketCases(SignalTransform, recs, nil)
}

// BuildBisectSet assembles a finished bisection job's result over
// journal-shaped data: outcomes in the campaign's canonical case order, and
// the three signals' bucket counts. Like BuildBuckets it is deterministic in
// its arguments and independent of how the outcomes were produced, so a
// cluster-sharded job merges to the same set a single node computes.
// transformBuckets is the campaign's own Figure 6 bucket count.
func BuildBisectSet(jobID string, campaignID string, cases []ReduceCase, reduced map[string]ReducedRec, outcomes map[string]BisectOutcome, transformBuckets int) (BisectSet, error) {
	set := BisectSet{Job: jobID, Campaign: campaignID, TransformBuckets: transformBuckets}
	recs := make([]ReducedRec, 0, len(cases))
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
		recs = append(recs, rec)
	}
	bisected, err := BucketCases(SignalBisect, recs, outcomes)
	if err != nil {
		return BisectSet{}, err
	}
	intersected, err := BucketCases(SignalIntersection, recs, outcomes)
	if err != nil {
		return BisectSet{}, err
	}
	set.BisectBuckets, set.IntersectionBuckets = len(bisected), len(intersected)
	return set, nil
}
