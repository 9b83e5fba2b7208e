package experiments

import (
	"context"
	"reflect"
	"testing"

	"spirvfuzz/internal/corpus"
	"spirvfuzz/internal/fuzz"
	"spirvfuzz/internal/harness"
	"spirvfuzz/internal/reduce"
	"spirvfuzz/internal/replay"
	"spirvfuzz/internal/runner"
	"spirvfuzz/internal/service"
	"spirvfuzz/internal/spirv"
	"spirvfuzz/internal/target"
)

// smallCampaign runs one tool's campaign of tests tests over every target on
// a fresh engine and blob store, with the seed range RunCampaigns gives the
// tool.
func smallCampaign(t *testing.T, tool harness.Tool, tests int) (*Campaign, service.Env) {
	t.Helper()
	env := service.Env{Eng: runner.New(0), Reng: new(replay.Engine), Blobs: &service.MemBlobs{}}
	spec := service.CampaignSpec{Tool: string(tool), Tests: tests, SeedBase: seedBases[tool]}
	for _, tg := range target.All() {
		spec.Targets = append(spec.Targets, tg.Name)
	}
	camp, err := RunCampaign(context.Background(), env, spec, corpus.References(), corpus.Donors())
	if err != nil {
		t.Fatal(err)
	}
	return camp, env
}

func TestCampaignFindsBugs(t *testing.T) {
	camp, _ := smallCampaign(t, harness.ToolSpirvFuzz, 30)
	totalSigs := 0
	for _, tg := range camp.Spec.Targets {
		sigs := camp.signatures(tg)
		totalSigs += len(sigs)
		// Group sets must partition the tests: four of them, together
		// holding exactly the target's signatures.
		groups := camp.groupSignatures(tg, 4)
		if len(groups) != 4 {
			t.Fatalf("%s: %d groups, want 4", tg, len(groups))
		}
		union := map[string]bool{}
		for _, set := range groups {
			for s := range set {
				union[s] = true
			}
		}
		if !reflect.DeepEqual(union, sigs) {
			t.Fatalf("%s: groups hold %v, campaign %v", tg, union, sigs)
		}
	}
	if totalSigs < 5 {
		t.Fatalf("campaign of 30 tests found only %d signatures across all targets", totalSigs)
	}
	if camp.Bugs() == 0 {
		t.Fatal("no bug outcomes recorded")
	}
}

// TestCampaignOutcomesReplay: a bug's journaled sequence, replayed on its
// reference, rebuilds its journaled variant.
func TestCampaignOutcomesReplay(t *testing.T) {
	camp, env := smallCampaign(t, harness.ToolSpirvFuzz, 15)
	refs := corpus.References()
	checked := 0
	for i := 0; i < camp.Spec.Tests && checked < 5; i++ {
		item := refs[i%len(refs)]
		for _, bug := range camp.Tests[i] {
			if checked == 5 {
				break
			}
			checked++
			seqData, err := env.Blobs.GetBlob(bug.SeqHash)
			if err != nil {
				t.Fatal(err)
			}
			ts, err := fuzz.UnmarshalSequence(seqData)
			if err != nil {
				t.Fatal(err)
			}
			variantData, err := env.Blobs.GetBlob(bug.VariantHash)
			if err != nil {
				t.Fatal(err)
			}
			variant, err := spirv.DecodeBytes(variantData)
			if err != nil {
				t.Fatal(err)
			}
			replayed, _ := fuzz.Replay(item.Mod, item.Inputs, ts)
			if replayed.String() != variant.String() {
				t.Fatalf("outcome %s/%d does not replay", bug.Target, bug.Seed)
			}
		}
	}
	if checked == 0 {
		t.Fatal("campaign found no bugs; replay check is vacuous")
	}
}

func TestGlslFuzzCampaignRuns(t *testing.T) {
	camp, _ := smallCampaign(t, harness.ToolGlslFuzz, 30)
	// The baseline must find *some* bugs (it shares several defect triggers)
	// but must find nothing on the spirv-opt targets (its features never
	// reach the optimizer-only defects) — the Table 3 shape.
	total := 0
	for _, tg := range camp.Spec.Targets {
		total += len(camp.signatures(tg))
	}
	if total == 0 {
		t.Fatal("baseline found nothing at all")
	}
	if n := len(camp.signatures("spirv-opt")); n > 0 {
		t.Errorf("glsl-fuzz found %d spirv-opt signatures; expected 0 (Table 3 shape)", n)
	}
	for _, bugs := range camp.Tests {
		for _, bug := range bugs {
			if bug.SeqHash != "" || bug.VariantHash != "" {
				t.Fatalf("glsl-fuzz bug %+v carries blob hashes", bug)
			}
		}
	}
}

// TestCampaignDeterministicAcrossWorkers runs the same small campaigns at 1,
// 4, 16 and GOMAXPROCS workers and requires identical results: the same
// bugs, blob hashes included, on the same (test, target) pairs in the same
// order for all three tools, and the same reduction records, query counts
// and report hashes included, for the Table 4 corpus.
func TestCampaignDeterministicAcrossWorkers(t *testing.T) {
	type run struct {
		Fuzz, Simple, Glsl map[int][]service.BugRef
		Reduced            []service.ReducedRec
	}
	var baseline *run
	for _, workers := range []int{1, 4, 16, 0} {
		c, err := RunCampaigns(Config{Tests: 25, Groups: 2, Workers: workers})
		if err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		recs, err := c.reduceCases(selected(c.Fuzz, table4Bug))
		if err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		got := &run{c.Fuzz.Tests, c.Simple.Tests, c.Glsl.Tests, recs}
		if baseline == nil {
			baseline = got
			if c.Fuzz.Bugs() == 0 || len(recs) == 0 {
				t.Fatal("campaign found no reducible bugs; determinism check is vacuous")
			}
			continue
		}
		if !reflect.DeepEqual(got, baseline) {
			t.Fatalf("workers=%d: results differ from the 1-worker baseline:\n%+v\nvs\n%+v", workers, got, baseline)
		}
	}
}

// TestEachCaseReducedOnce: RQ2, Table 4, the bisection RQ and the Section 5
// export share one memoized reduction pass, so the reductions made are
// exactly the union of the cases they select, however often they run.
func TestEachCaseReducedOnce(t *testing.T) {
	c, err := RunCampaigns(Config{Tests: 120, Groups: 6, CapPerSignature: 3})
	if err != nil {
		t.Fatal(err)
	}
	rq2 := RQ2(c)
	if len(c.reduced) != len(rq2.FuzzDeltas) {
		t.Fatalf("RQ2 made %d reductions for %d cases", len(c.reduced), len(rq2.FuzzDeltas))
	}
	// The RQ2 targets are Table 4 targets, so Table 4's corpus is the union.
	table4Cases := selected(c.Fuzz, table4Bug)
	for i := 0; i < 2; i++ {
		Table4(c)
		if _, err := BisectRQ(c); err != nil {
			t.Fatal(err)
		}
		RQ2(c)
		if len(c.reduced) != len(table4Cases) {
			t.Fatalf("pass %d: %d reductions, want %d", i, len(c.reduced), len(table4Cases))
		}
	}
	rep, err := ExportWildReports(c, t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	inCorpus := map[string]bool{}
	for _, rc := range table4Cases {
		inCorpus[rc.Bug.Target+"|"+rc.Bug.Signature] = true
	}
	extra := 0
	seen := map[string]bool{}
	for _, rc := range selected(c.Fuzz, func(service.BugRef) bool { return true }) {
		key := rc.Bug.Target + "|" + rc.Bug.Signature
		if !seen[key] && !inCorpus[key] {
			extra++
		}
		seen[key] = true
	}
	if rep.Reports != len(seen) {
		t.Fatalf("exported %d reports for %d distinct (target, signature) pairs", rep.Reports, len(seen))
	}
	if len(c.reduced) != len(table4Cases)+extra {
		t.Fatalf("after export: %d reductions, want %d", len(c.reduced), len(table4Cases)+extra)
	}
}

// TestReducedCasesOneMinimal checks every reduction gfauto's experiments
// make (RQ2, Table 4 and the Section 5 export) against its own
// interestingness test: the minimized sequence still triggers the bug, and
// dropping any single one of its transformations makes it stop.
func TestReducedCasesOneMinimal(t *testing.T) {
	c, err := RunCampaigns(Config{Tests: 120, Groups: 6, CapPerSignature: 3})
	if err != nil {
		t.Fatal(err)
	}
	Table4(c)
	RQ2(c)
	if _, err := ExportWildReports(c, t.TempDir()); err != nil {
		t.Fatal(err)
	}
	kept := 0
	for _, rec := range c.reduced {
		rep, seq, err := service.LoadReport(c.Env.Blobs, rec.ReportHash)
		if err != nil {
			t.Fatal(err)
		}
		item, err := service.FindRef(c.refs, rep.Reference)
		if err != nil {
			t.Fatal(err)
		}
		interesting := reduce.ForOutcomeOn(c.Env.Eng, target.ByName(rec.Target), item.Mod, item.Inputs, rec.Signature)
		all := make([]int, len(seq))
		for i := range all {
			all[i] = i
		}
		if fc, _ := fuzz.ReplaySubsequenceContext(item.Mod, item.Inputs, seq, all); !interesting(fc.Mod, fc.Inputs) {
			t.Fatalf("%s: the minimized sequence no longer triggers %q", rec.Case, rec.Signature)
		}
		for drop := range seq {
			keep := append(append([]int{}, all[:drop]...), all[drop+1:]...)
			if fc, _ := fuzz.ReplaySubsequenceContext(item.Mod, item.Inputs, seq, keep); interesting(fc.Mod, fc.Inputs) {
				t.Errorf("%s: not 1-minimal: T%d (%s) is removable", rec.Case, drop+1, seq[drop].Type())
			}
		}
		kept += len(seq)
	}
	if len(c.reduced) == 0 {
		t.Fatal("no reductions to check")
	}
	t.Logf("%d cases, %d kept transformations", len(c.reduced), kept)
}
