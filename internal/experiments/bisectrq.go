package experiments

import (
	"context"
	"fmt"
	"strings"

	"spirvfuzz/internal/bisect"
	"spirvfuzz/internal/dedup"
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
// signals are scored on identical inputs. All three recommendations and
// every bisection verdict are deterministic, so the table is reproducible at
// any worker count or cache temperature.
func BisectRQ(c *Campaigns) (*BisectRQResult, error) {
	recs, err := c.reduceCases(selected(c.Fuzz, table4Bug))
	if err != nil {
		return nil, err
	}
	var cases []dedup.BisectCase
	exact := 0
	for _, rec := range recs {
		out, err := service.BisectStep(context.TODO(), c.Env, c.Bisect, c.refs, rec)
		if err != nil {
			return nil, fmt.Errorf("bisect RQ: %w", err)
		}
		if out.FirstBad == target.IntroductionOf(rec.Target, rec.Signature) {
			exact++
		}
		dc, err := c.dedupCase(rec)
		if err != nil {
			return nil, err
		}
		cases = append(cases, dedup.BisectCase{Case: dc, Target: rec.Target, FirstBad: out.FirstBad})
	}

	plain := make([]dedup.Case, len(cases))
	for i, bc := range cases {
		plain[i] = bc.Case
	}
	defects := dedup.SignatureCount(plain)
	score := func(signal string, rec []dedup.Case) BisectRQRow {
		distinct, dups := dedup.Score(rec)
		row := BisectRQRow{Signal: signal, Reports: len(rec), Distinct: distinct, Dups: dups}
		if row.Reports > 0 {
			row.Precision = float64(distinct) / float64(row.Reports)
		}
		if defects > 0 {
			row.Coverage = float64(distinct) / float64(defects)
		}
		return row
	}
	toPlain := func(rec []dedup.BisectCase) []dedup.Case {
		out := make([]dedup.Case, len(rec))
		for i, bc := range rec {
			out[i] = bc.Case
		}
		return out
	}
	return &BisectRQResult{
		Tests:   len(cases),
		Defects: defects,
		Exact:   exact,
		Rows: []BisectRQRow{
			score("transform", dedup.Recommend(plain)),
			score("bisect", toPlain(dedup.RecommendBisect(cases))),
			score("intersection", toPlain(dedup.RecommendIntersection(cases))),
		},
		Stats: c.Bisect.Stats(),
	}, nil
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
