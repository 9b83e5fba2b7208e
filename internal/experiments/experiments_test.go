package experiments_test

import (
	"os"
	"path/filepath"
	"strings"
	"testing"

	"spirvfuzz/internal/experiments"
	"spirvfuzz/internal/service"
	"spirvfuzz/internal/target"
)

// campaigns is shared across the tests in this package (building it is the
// expensive part).
var campaigns *experiments.Campaigns

func getCampaigns(t *testing.T) *experiments.Campaigns {
	t.Helper()
	if campaigns == nil {
		c, err := experiments.RunCampaigns(experiments.Config{Tests: 120, Groups: 6, CapPerSignature: 3})
		if err != nil {
			t.Fatal(err)
		}
		campaigns = c
	}
	return campaigns
}

func TestTable3Shape(t *testing.T) {
	c := getCampaigns(t)
	rows := experiments.Table3(c)
	if len(rows) != 10 { // 9 targets + All
		t.Fatalf("got %d rows", len(rows))
	}
	var all, spirvOpt *experiments.Table3Row
	for i := range rows {
		switch rows[i].Target {
		case "All":
			all = &rows[i]
		case "spirv-opt":
			spirvOpt = &rows[i]
		}
	}
	if all == nil || spirvOpt == nil {
		t.Fatal("missing rows")
	}
	// The paper's headline (RQ1): spirv-fuzz beats glsl-fuzz overall with
	// high confidence.
	if all.TotalFuzz <= all.TotalGlsl {
		t.Errorf("All: spirv-fuzz total %d should exceed glsl-fuzz total %d", all.TotalFuzz, all.TotalGlsl)
	}
	if all.ConfVsGlsl < 0.95 {
		t.Errorf("All: confidence vs glsl-fuzz = %.3f, want ≥ 0.95", all.ConfVsGlsl)
	}
	// glsl-fuzz finds nothing on spirv-opt (Table 3: 0 signatures).
	if spirvOpt.TotalGlsl != 0 {
		t.Errorf("spirv-opt: glsl-fuzz found %d signatures, want 0", spirvOpt.TotalGlsl)
	}
	if spirvOpt.TotalFuzz == 0 {
		t.Error("spirv-opt: spirv-fuzz found nothing")
	}
	text := experiments.RenderTable3(rows)
	if !strings.Contains(text, "All") || !strings.Contains(text, "spirv-opt") {
		t.Error("rendering incomplete")
	}
}

func TestFigure7Shape(t *testing.T) {
	c := getCampaigns(t)
	segs := experiments.Figure7(c)
	if segs[len(segs)-1].Target != "All" {
		t.Fatal("missing All segment")
	}
	all := segs[len(segs)-1].Counts
	// spirv-fuzz finds signatures the other configurations miss (F-only
	// segment nonzero), mirroring Figure 7.
	if all[1] == 0 {
		t.Error("no spirv-fuzz-only signatures")
	}
	// And there is a shared core found by all three.
	if all[7] == 0 {
		t.Error("no signatures common to all three configurations")
	}
	_ = experiments.RenderFigure7(segs)
}

func TestRQ2Shape(t *testing.T) {
	c := getCampaigns(t)
	r := experiments.RQ2(c)
	if len(r.FuzzDeltas) == 0 || len(r.GlslDeltas) == 0 {
		t.Fatalf("reductions missing: %d fuzz, %d glsl", len(r.FuzzDeltas), len(r.GlslDeltas))
	}
	// Both tools reduce effectively (deltas far below unreduced sizes)...
	if r.MedianFuzz >= r.MedianFuzzUnreduced {
		t.Errorf("spirv-fuzz reduction ineffective: %v vs unreduced %v", r.MedianFuzz, r.MedianFuzzUnreduced)
	}
	if r.MedianGlsl > r.MedianGlslUnreduced {
		t.Errorf("glsl-fuzz reduction grew deltas: %v vs %v", r.MedianGlsl, r.MedianGlslUnreduced)
	}
	// ...and the paper's RQ2 finding holds: the free spirv-fuzz reduction
	// yields smaller deltas than the hand-crafted glsl-fuzz reducer.
	if r.MedianFuzz >= r.MedianGlsl {
		t.Errorf("median deltas: spirv-fuzz %v should be below glsl-fuzz %v", r.MedianFuzz, r.MedianGlsl)
	}
	_ = experiments.RenderRQ2(r)
}

func TestTable4Shape(t *testing.T) {
	c := getCampaigns(t)
	rows := experiments.Table4(c)
	if len(rows) < 2 {
		t.Fatalf("got %d rows", len(rows))
	}
	total := rows[len(rows)-1]
	if total.Target != "Total" {
		t.Fatal("missing Total row")
	}
	if total.Tests == 0 || total.Sigs == 0 || total.Reports == 0 {
		t.Fatalf("empty experiment: %+v", total)
	}
	if total.Distinct+total.Dups != total.Reports {
		t.Fatalf("accounting broken: %+v", total)
	}
	// The paper's RQ3 findings: a good share of distinct signatures is
	// covered with a low duplicate rate.
	if total.Distinct*2 < total.Sigs {
		t.Errorf("coverage too low: %d distinct of %d signatures", total.Distinct, total.Sigs)
	}
	if total.Dups*2 > total.Reports {
		t.Errorf("duplicate rate too high: %d of %d reports", total.Dups, total.Reports)
	}
	for _, r := range rows {
		if r.Target == "NVIDIA" {
			t.Error("NVIDIA must be excluded from the dedup experiment")
		}
	}
	_ = experiments.RenderTable4(rows)
}

// TestScoreAgainstGroundTruth: Score counts a recommendation whose
// signature an earlier one already covers as a duplicate, and the
// miscompilation pseudo-signature never collides with a crash signature.
func TestScoreAgainstGroundTruth(t *testing.T) {
	var recs []service.ReducedRec
	var recommended []service.Bucket
	for _, sig := range []string{"same-bug", "same-bug", "other", target.MiscompilationSignature} {
		recs = append(recs, service.ReducedRec{Signature: sig})
		recommended = append(recommended, service.Bucket{Signature: sig})
	}
	if distinct, dups := experiments.Score(recommended); distinct != 3 || dups != 1 {
		t.Fatalf("score = %d distinct, %d dups; want 3, 1", distinct, dups)
	}
	if n := experiments.SignatureCount(recs); n != 3 {
		t.Fatalf("SignatureCount = %d, want 3", n)
	}
}

func TestTable2Renders(t *testing.T) {
	text := experiments.Table2()
	for _, name := range []string{"AMD-LLPC", "Mesa-Old", "Pixel-5", "SwiftShader"} {
		if !strings.Contains(text, name) {
			t.Errorf("Table 2 missing %s", name)
		}
	}
}

func TestWildExport(t *testing.T) {
	c := getCampaigns(t)
	dir := t.TempDir()
	rep, err := experiments.ExportWildReports(c, dir)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Reports == 0 {
		t.Fatal("no reports exported")
	}
	if rep.Reports != rep.Miscompilations+rep.Crashes+rep.InvalidEmits {
		t.Fatalf("breakdown does not sum: %+v", rep)
	}
	if len(rep.Dirs) != rep.Reports {
		t.Fatalf("%d dirs for %d reports", len(rep.Dirs), rep.Reports)
	}
	// Spot-check the first bundle is complete.
	for _, f := range []string{"README.md", "original.spvasm", "reduced_variant.spvasm", "transformations.json"} {
		if _, err := os.Stat(filepath.Join(rep.Dirs[0], f)); err != nil {
			t.Errorf("bundle missing %s: %v", f, err)
		}
	}
	if !strings.Contains(experiments.RenderWild(rep), "distinct issues") {
		t.Error("summary rendering broken")
	}
}
