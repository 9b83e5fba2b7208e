package experiments

import (
	"context"
	"fmt"
	"strings"

	"spirvfuzz/internal/bisect"
	"spirvfuzz/internal/service"
	"spirvfuzz/internal/target"
)

// BisectRQRow scores one dedup signal on the Table 4 corpus against the
// defect-set ground truth (the injected defects' signatures).
type BisectRQRow struct {
	Signal    string  // "transform", "bisect" or "intersection"
	Reports   int     // test cases the signal recommends filing
	Distinct  int     // distinct ground-truth defects covered by them
	Dups      int     // recommendations duplicating an already-covered defect
	Precision float64 // Distinct / Reports
	Coverage  float64 // Distinct / defects present in the corpus
}

// BisectRQResult is the versioned-target research question: how do the
// transformation-type signal, the bisection signal, and their intersection
// compare as deduplicators on the same reduced corpus?
type BisectRQResult struct {
	Tests   int // reduced test cases submitted to every signal
	Defects int // distinct ground-truth defects among them
	// Exact counts bisections whose FirstBad equals the release that
	// introduced the case's defect (ground truth from the version registry).
	// A miss means an older co-triggered defect masked the signature below
	// the true introduction — the same masking real git-bisect runs hit.
	Exact int
	Rows  []BisectRQRow
	Stats bisect.Stats
}

// BisectRQ runs service.BisectStep over the reduced Table 4 corpus (crash
// bugs, NVIDIA excluded, capped per signature): every case is bisected over
// its target's release history, in selection order, and the three dedup
// signals are scored on identical inputs, each bucketing per target as
// Table 4 does. All three recommendations and
// every bisection verdict are deterministic, so the table is reproducible at
// any worker count or cache temperature.
func BisectRQ(c *Campaigns) (*BisectRQResult, error) {
	recs, err := c.reduceCases(selected(c.Fuzz, table4Bug))
	if err != nil {
		return nil, err
	}
	outcomes := make(map[string]service.BisectOutcome, len(recs))
	exact := 0
	for _, rec := range recs {
		out, err := service.BisectStep(context.TODO(), c.Env, c.Bisect, c.refs, rec)
		if err != nil {
			return nil, fmt.Errorf("bisect RQ: %w", err)
		}
		if out.FirstBad == target.IntroductionOf(rec.Target, rec.Signature) {
			exact++
		}
		outcomes[rec.Case] = out
	}
	defects := SignatureCount(recs)
	res := &BisectRQResult{Tests: len(recs), Defects: defects, Exact: exact}
	for _, signal := range []string{service.SignalTransform, service.SignalBisect, service.SignalIntersection} {
		buckets, err := service.BucketCases(signal, recs, outcomes)
		if err != nil {
			return nil, err
		}
		distinct, dups := Score(buckets)
		r := BisectRQRow{Signal: signal, Reports: len(buckets), Distinct: distinct, Dups: dups}
		if r.Reports > 0 {
			r.Precision = float64(distinct) / float64(r.Reports)
		}
		if defects > 0 {
			r.Coverage = float64(distinct) / float64(defects)
		}
		res.Rows = append(res.Rows, r)
	}
	res.Stats = c.Bisect.Stats()
	return res, nil
}

// RenderBisectRQ formats the signal comparison as text.
func RenderBisectRQ(r *BisectRQResult) string {
	var sb strings.Builder
	sb.WriteString("Bisection RQ: dedup signals on the Table 4 corpus (ground truth: injected defect sets)\n")
	fmt.Fprintf(&sb, "%d reduced tests covering %d defects; %d/%d bisections hit the exact introducing release\n",
		r.Tests, r.Defects, r.Exact, int(r.Stats.Bisections))
	fmt.Fprintf(&sb, "%-14s %8s %9s %6s %10s %9s\n", "Signal", "Reports", "Distinct", "Dups", "Precision", "Coverage")
	for _, row := range r.Rows {
		fmt.Fprintf(&sb, "%-14s %8d %9d %6d %9.0f%% %8.0f%%\n",
			row.Signal, row.Reports, row.Distinct, row.Dups, 100*row.Precision, 100*row.Coverage)
	}
	fmt.Fprintf(&sb, "bisection probes: %d over %d bisections, %.0f%% answered without a fresh compile (%d compiles)\n",
		r.Stats.Queries, r.Stats.Bisections, 100*r.Stats.HitFraction(), r.Stats.Compiles)
	return sb.String()
}
