package experiments

import (
	"fmt"
	"strings"

	"spirvfuzz/internal/service"
	"spirvfuzz/internal/target"
)

// Table4Row is one row of Table 4 (deduplication effectiveness, RQ3).
type Table4Row struct {
	Target   string
	Tests    int // reduced crash test cases submitted to the deduplicator
	Sigs     int // distinct ground-truth crash signatures among them
	Reports  int // test cases the heuristic recommends investigating
	Distinct int // distinct signatures covered by the recommendations
	Dups     int // recommended tests that duplicate an already-covered signature
}

// table4Bug reports whether a bug belongs to the Table 4 corpus: as in the
// paper, the NVIDIA target is excluded and only crash bugs are considered
// (crash signatures are the reliable ground truth).
func table4Bug(b service.BugRef) bool {
	return b.Target != "NVIDIA" && b.Signature != target.MiscompilationSignature
}

// Table4 runs the deduplication experiment: the Table 4 corpus's cases are
// reduced (capped per signature) and bucketed per target by the transform
// signal (the Figure 6 algorithm); recommendations are scored against the
// ground-truth crash signatures.
func Table4(c *Campaigns) []Table4Row { return must(table4(c)) }

func table4(c *Campaigns) ([]Table4Row, error) {
	recs, err := c.reduceCases(selected(c.Fuzz, table4Bug))
	if err != nil {
		return nil, err
	}
	buckets, err := service.BucketCases(service.SignalTransform, recs, nil)
	if err != nil {
		return nil, err
	}
	perTarget := map[string][]service.ReducedRec{}
	for _, rec := range recs {
		perTarget[rec.Target] = append(perTarget[rec.Target], rec)
	}
	reports := map[string][]service.Bucket{}
	for _, b := range buckets {
		reports[b.Target] = append(reports[b.Target], b)
	}
	var rows []Table4Row
	total := Table4Row{Target: "Total"}
	for _, tg := range target.All() {
		cases := perTarget[tg.Name]
		if len(cases) == 0 {
			continue
		}
		recommended := reports[tg.Name]
		distinct, dups := Score(recommended)
		row := Table4Row{
			Target:   tg.Name,
			Tests:    len(cases),
			Sigs:     SignatureCount(cases),
			Reports:  len(recommended),
			Distinct: distinct,
			Dups:     dups,
		}
		rows = append(rows, row)
		total.Tests += row.Tests
		total.Sigs += row.Sigs
		total.Reports += row.Reports
		total.Distinct += row.Distinct
		total.Dups += row.Dups
	}
	rows = append(rows, total)
	return rows, nil
}

// sigKey namespaces a signature for map keying: crash signatures and the
// miscompilation pseudo-signature live in disjoint namespaces, so a crash
// whose text happens to match the miscompilation pseudo-signature cannot
// collide with it.
func sigKey(sig string) string {
	if sig == target.MiscompilationSignature {
		return "miscomp:" + sig
	}
	return "crash:" + sig
}

// Score computes the Table 4 quality measures for a recommendation against
// ground-truth signatures: the number of distinct signatures covered by the
// recommended buckets and the number of duplicates among them.
func Score(recommended []service.Bucket) (distinct, duplicates int) {
	seen := map[string]bool{}
	for _, b := range recommended {
		if seen[sigKey(b.Signature)] {
			duplicates++
		} else {
			seen[sigKey(b.Signature)] = true
			distinct++
		}
	}
	return distinct, duplicates
}

// SignatureCount returns the number of distinct ground-truth signatures in
// a full case set (Table 4's "Sigs" column).
func SignatureCount(recs []service.ReducedRec) int {
	seen := map[string]bool{}
	for _, rec := range recs {
		seen[sigKey(rec.Signature)] = true
	}
	return len(seen)
}

// RenderTable4 formats Table 4 as text.
func RenderTable4(rows []Table4Row) string {
	var sb strings.Builder
	sb.WriteString("Table 4: effectiveness of test-case deduplication\n")
	fmt.Fprintf(&sb, "%-14s %6s %6s %8s %9s %6s\n", "Target", "Tests", "Sigs", "Reports", "Distinct", "Dups")
	for _, r := range rows {
		fmt.Fprintf(&sb, "%-14s %6d %6d %8d %9d %6d\n", r.Target, r.Tests, r.Sigs, r.Reports, r.Distinct, r.Dups)
	}
	sb.WriteString("(paper totals: 1467 tests, 78 sigs, 49 reports, 41 distinct, 8 dups)\n")
	return sb.String()
}

// Table2 renders the target inventory (Table 2).
func Table2() string {
	var sb strings.Builder
	sb.WriteString("Table 2: the SPIR-V targets under test\n")
	fmt.Fprintf(&sb, "%-14s %-22s %-10s %s\n", "Target", "Version", "GPU type", "Renders")
	for _, tg := range target.All() {
		renders := "yes"
		if !tg.CanRender {
			renders = "no (crash/validity bugs only)"
		}
		fmt.Fprintf(&sb, "%-14s %-22s %-10s %s\n", tg.Name, tg.Version, tg.GPUType, renders)
	}
	return sb.String()
}
