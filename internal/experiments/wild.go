package experiments

import (
	"fmt"
	"path/filepath"
	"strings"

	"spirvfuzz/internal/harness"
	"spirvfuzz/internal/service"
	"spirvfuzz/internal/target"
)

// WildReport summarises a Section 5-style external-testing session: one
// reduced, exported bug report per distinct signature found by spirv-fuzz,
// broken down by bug class as the paper reports its 74 issues
// (miscompilations, crashes/internal errors, invalid-SPIR-V emissions).
type WildReport struct {
	Reports         int
	Miscompilations int
	Crashes         int
	InvalidEmits    int
	Dirs            []string
}

// ExportWildReports writes a bug-report bundle under dir/<target>/bugNN/ for
// the first bug of every distinct (target, signature) pair in the spirv-fuzz
// campaign, reduced like every other case (reduceCases). Selection keeps the
// first bug of every pair, so these are selected cases.
func ExportWildReports(c *Campaigns, dir string) (*WildReport, error) {
	seen := map[string]bool{}
	firsts := selected(c.Fuzz, func(b service.BugRef) bool {
		key := b.Target + "|" + b.Signature
		first := !seen[key]
		seen[key] = true
		return first
	})
	recs, err := c.reduceCases(firsts)
	if err != nil {
		return nil, err
	}
	rep := &WildReport{}
	perTarget := map[string]int{}
	for i, rec := range recs {
		bug := firsts[i].Bug
		perTarget[bug.Target]++
		out := filepath.Join(dir, bug.Target, fmt.Sprintf("bug%02d", perTarget[bug.Target]))
		if err := service.ExportBugReport(out, c.Env, c.refs, harness.ToolSpirvFuzz, rec); err != nil {
			return nil, err
		}
		rep.Dirs = append(rep.Dirs, out)
		rep.Reports++
		switch {
		case bug.Signature == target.MiscompilationSignature:
			rep.Miscompilations++
		case strings.Contains(bug.Signature, "invalid SPIR-V"):
			rep.InvalidEmits++
		default:
			rep.Crashes++
		}
	}
	return rep, nil
}

// RenderWild formats the session summary, mirroring the Section 5 breakdown.
func RenderWild(r *WildReport) string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "Section 5 (in the wild): %d distinct issues exported as bug-report bundles\n", r.Reports)
	fmt.Fprintf(&sb, "  %d miscompilations, %d crashes/internal errors, %d invalid-SPIR-V emissions\n",
		r.Miscompilations, r.Crashes, r.InvalidEmits)
	fmt.Fprintf(&sb, "  (paper: 74 issues — 14 miscompilations, 49 crashes, 7 invalid emissions, 3 validator false rejections, 1 spec issue)\n")
	return sb.String()
}
