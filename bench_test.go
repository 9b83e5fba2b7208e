// Benchmarks regenerating every table and figure of the paper's evaluation
// (Section 4), plus performance benchmarks of the substrate and ablations of
// the Section 2.3 design principles. Run with:
//
//	go test -bench=. -benchmem
//
// Experiment scale follows -short (tiny) or the default (small); use
// cmd/gfauto -tests 10000 for paper-scale runs. Shape metrics are attached
// to each benchmark via b.ReportMetric.
package spirvfuzz_test

import (
	"context"
	"crypto/sha256"
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"runtime"
	"strings"
	"sync"
	"testing"
	"time"

	"spirvfuzz/internal/bblang"
	"spirvfuzz/internal/bisect"
	"spirvfuzz/internal/cluster"
	"spirvfuzz/internal/core"
	"spirvfuzz/internal/corpus"
	"spirvfuzz/internal/experiments"
	"spirvfuzz/internal/fuzz"
	"spirvfuzz/internal/interp"
	"spirvfuzz/internal/reduce"
	"spirvfuzz/internal/replay"
	"spirvfuzz/internal/runner"
	"spirvfuzz/internal/service"
	"spirvfuzz/internal/spirv"
	"spirvfuzz/internal/spirv/validate"
	"spirvfuzz/internal/store"
	"spirvfuzz/internal/target"
	"spirvfuzz/internal/testmod"
)

// campaigns are shared by the table/figure benchmarks; building them once
// keeps `go test -bench=.` fast while still exercising the full pipeline.
var (
	campaignOnce sync.Once
	campaignData *experiments.Campaigns
	campaignErr  error
)

func sharedCampaigns(b *testing.B) *experiments.Campaigns {
	b.Helper()
	campaignOnce.Do(func() {
		cfg := experiments.Config{Tests: 120, Groups: 6, CapPerSignature: 3}
		if testing.Short() {
			cfg = experiments.Config{Tests: 40, Groups: 4, CapPerSignature: 2}
		}
		campaignData, campaignErr = experiments.RunCampaigns(cfg)
	})
	if campaignErr != nil {
		b.Fatal(campaignErr)
	}
	return campaignData
}

// ddmin runs the serial delta-debugging loop and fails b on an error.
func ddmin(b *testing.B, n int, test core.Interestingness) ([]int, core.ReduceStats) {
	b.Helper()
	kept, st, err := core.Reduce(context.Background(), n, test)
	if err != nil {
		b.Fatal(err)
	}
	return kept, st
}

// reduceSerial reduces seq against the bug signature on tg serially, with
// target runs on a fresh one-worker engine.
func reduceSerial(b *testing.B, original *spirv.Module, in interp.Inputs, seq []fuzz.Transformation, signature string, tg *target.Target) *reduce.Result {
	b.Helper()
	interesting := reduce.ForOutcomeOn(runner.New(1), tg, original, in, signature)
	r, err := reduce.ReduceParallelReplayCtx(context.Background(), original, in, seq, interesting, 1, new(replay.Engine))
	if err != nil {
		b.Fatal(err)
	}
	return r
}

// bugSequence loads a campaign bug's transformation sequence from its blob.
func bugSequence(b *testing.B, blobs service.BlobStore, bug service.BugRef) []fuzz.Transformation {
	b.Helper()
	data, err := blobs.GetBlob(bug.SeqHash)
	if err != nil {
		b.Fatal(err)
	}
	ts, err := fuzz.UnmarshalSequence(data)
	if err != nil {
		b.Fatal(err)
	}
	return ts
}

// BenchmarkTable3BugFinding regenerates Table 3: distinct bug signatures per
// tool configuration with Mann-Whitney U confidences. Shape target: the
// spirv-fuzz total exceeds the glsl-fuzz total and the overall confidence is
// high; glsl-fuzz finds nothing on spirv-opt.
func BenchmarkTable3BugFinding(b *testing.B) {
	c := sharedCampaigns(b)
	var rows []experiments.Table3Row
	for i := 0; i < b.N; i++ {
		rows = experiments.Table3(c)
	}
	all := rows[len(rows)-1]
	b.ReportMetric(float64(all.TotalFuzz), "sigs-spirv-fuzz")
	b.ReportMetric(float64(all.TotalSimple), "sigs-simple")
	b.ReportMetric(float64(all.TotalGlsl), "sigs-glsl-fuzz")
	b.ReportMetric(100*all.ConfVsGlsl, "conf-vs-glsl-%")
	b.ReportMetric(100*all.ConfVsSimple, "conf-vs-simple-%")
	if all.TotalFuzz <= all.TotalGlsl {
		b.Fatalf("shape violated: spirv-fuzz %d <= glsl-fuzz %d", all.TotalFuzz, all.TotalGlsl)
	}
}

// BenchmarkFigure7Venn regenerates Figure 7: complementarity of the three
// configurations. Shape target: a nonzero spirv-fuzz-only segment.
func BenchmarkFigure7Venn(b *testing.B) {
	c := sharedCampaigns(b)
	var segs []experiments.Figure7Segment
	for i := 0; i < b.N; i++ {
		segs = experiments.Figure7(c)
	}
	all := segs[len(segs)-1].Counts
	b.ReportMetric(float64(all[1]), "only-spirv-fuzz")
	b.ReportMetric(float64(all[4]), "only-glsl-fuzz")
	b.ReportMetric(float64(all[3]), "fuzz-and-simple")
	b.ReportMetric(float64(all[7]), "all-three")
}

// BenchmarkRQ2ReductionQuality regenerates the Section 4.2 comparison:
// median instruction-count deltas after reduction. Shape target: the "free"
// spirv-fuzz reduction beats the hand-crafted glsl-fuzz reducer (paper:
// medians 8 vs 29).
func BenchmarkRQ2ReductionQuality(b *testing.B) {
	c := sharedCampaigns(b)
	var r *experiments.RQ2Result
	for i := 0; i < b.N; i++ {
		r = experiments.RQ2(c)
	}
	b.ReportMetric(r.MedianFuzz, "median-delta-spirv-fuzz")
	b.ReportMetric(r.MedianGlsl, "median-delta-glsl-fuzz")
	b.ReportMetric(r.MedianFuzzUnreduced, "median-unreduced-spirv-fuzz")
	b.ReportMetric(r.MedianGlslUnreduced, "median-unreduced-glsl-fuzz")
	if r.MedianFuzz >= r.MedianGlsl {
		b.Fatalf("shape violated: spirv-fuzz median %v >= glsl-fuzz median %v", r.MedianFuzz, r.MedianGlsl)
	}
}

// BenchmarkTable4Dedup regenerates Table 4: deduplication effectiveness.
// Shape target: over half the distinct crash signatures covered with a low
// duplicate rate (paper: 41/78 covered, 8/49 duplicates).
func BenchmarkTable4Dedup(b *testing.B) {
	c := sharedCampaigns(b)
	var rows []experiments.Table4Row
	for i := 0; i < b.N; i++ {
		rows = experiments.Table4(c)
	}
	total := rows[len(rows)-1]
	b.ReportMetric(float64(total.Tests), "tests")
	b.ReportMetric(float64(total.Sigs), "sigs")
	b.ReportMetric(float64(total.Reports), "reports")
	b.ReportMetric(float64(total.Distinct), "distinct")
	b.ReportMetric(float64(total.Dups), "dups")
	if total.Distinct*2 < total.Sigs {
		b.Fatalf("shape violated: %d distinct of %d sigs", total.Distinct, total.Sigs)
	}
}

// BenchmarkFigure3DontInlineDelta reproduces Figure 3: reduction shrinks a
// noisy SwiftShader-crashing variant to a single SetFunctionControl
// transformation, leaving a one-line delta between two 39-instruction
// modules.
func BenchmarkFigure3DontInlineDelta(b *testing.B) {
	in := interp.Inputs{W: 4, H: 4}
	sw := target.ByName("SwiftShader")
	var seqLen, delta int
	for i := 0; i < b.N; i++ {
		original := testmod.Caller()
		ctx := fuzz.NewContext(original.Clone(), in)
		seq := []fuzz.Transformation{
			&fuzz.AddTypeInt{Fresh: ctx.Mod.Bound, Width: 32, Signed: false},
			&fuzz.SetFunctionControl{Function: ctx.Mod.Functions[0].ID(), Control: spirv.FunctionControlDontInline},
			&fuzz.AddConstantBoolean{Fresh: ctx.Mod.Bound + 1, Value: true},
		}
		applied := core.ApplySequence(ctx, seq)
		_, crash := sw.Run(ctx.Mod, in)
		if crash == nil || len(applied) != len(seq) {
			b.Fatal("Figure 3 crash did not trigger")
		}
		r := reduceSerial(b, original, in, seq, crash.Signature, sw)
		seqLen, delta = len(r.Sequence), r.Variant.InstructionCount()-original.InstructionCount()
	}
	b.ReportMetric(float64(seqLen), "reduced-transformations")
	b.ReportMetric(float64(delta), "instruction-delta")
	if seqLen != 1 || delta != 0 {
		b.Fatalf("shape violated: %d transformations, delta %d (want 1 and 0)", seqLen, delta)
	}
}

// BenchmarkFigure4BasicBlocks replays the Figure 4 walkthrough on the toy
// basic-blocks language, checking output preservation at each step.
func BenchmarkFigure4BasicBlocks(b *testing.B) {
	input := bblang.Figure4Input()
	for i := 0; i < b.N; i++ {
		ctx := bblang.NewContext(bblang.Figure4Program(), input)
		want, err := bblang.Execute(ctx.Prog, ctx.Input)
		if err != nil {
			b.Fatal(err)
		}
		applied := core.ApplySequence(ctx, bblang.Figure4Sequence())
		if len(applied) != 5 {
			b.Fatalf("applied %d of 5 transformations", len(applied))
		}
		got, err := bblang.Execute(ctx.Prog, ctx.Input)
		if err != nil || !bblang.OutputsEqual(got, want) {
			b.Fatalf("output changed: %v vs %v (%v)", got, want, err)
		}
	}
}

// BenchmarkFigure5Reduction reproduces Figure 5: delta debugging the Figure
// 4 sequence against the dead-block-obfuscation bug yields T1, T2, T5.
func BenchmarkFigure5Reduction(b *testing.B) {
	prog := bblang.Figure4Program()
	input := bblang.Figure4Input()
	seq := bblang.Figure4Sequence()
	var kept []int
	for i := 0; i < b.N; i++ {
		kept, _ = ddmin(b, len(seq), func(keep []int) ([]int, bool) {
			c := bblang.NewContext(prog.Clone(), input)
			applied := core.ApplySubsequence(c, seq, keep)
			return applied, bblang.Figure5Bug(c.Prog)
		})
	}
	if len(kept) != 3 || kept[0] != 0 || kept[1] != 1 || kept[2] != 4 {
		b.Fatalf("kept %v, want [0 1 4] (T1, T2, T5)", kept)
	}
	b.ReportMetric(float64(len(kept)), "kept-transformations")
}

// BenchmarkFigure8aMesaBug reproduces the Mesa miscompilation of Figure 8a:
// PropagateInstructionUp on a loop-exit comparison makes the simulated Mesa
// driver skip the last loop iteration.
func BenchmarkFigure8aMesaBug(b *testing.B) {
	in := interp.Inputs{W: 4, H: 4}
	mesa := target.ByName("Mesa")
	var diff int
	for i := 0; i < b.N; i++ {
		m := testmod.Loop()
		orig, crash := mesa.Run(m, in)
		if crash != nil {
			b.Fatal(crash)
		}
		ctx := fuzz.NewContext(m.Clone(), in)
		fn := ctx.Mod.EntryPointFunction()
		cmp := fn.Blocks[2].Body[0]
		tr := &fuzz.PropagateInstructionUp{
			Instr:    cmp.Result,
			FreshIDs: map[spirv.ID]spirv.ID{fn.Blocks[1].Label: ctx.Mod.Bound},
		}
		if err := core.CheckedApply[*fuzz.Context](ctx, tr); err != nil {
			b.Fatal(err)
		}
		got, crash := mesa.Run(ctx.Mod, in)
		if crash != nil {
			b.Fatal(crash)
		}
		diff = got.DiffCount(orig)
	}
	b.ReportMetric(float64(diff), "pixels-changed")
	if diff == 0 {
		b.Fatal("Mesa bug did not fire")
	}
}

// BenchmarkFigure8bPixel5Bug reproduces the Pixel 5 miscompilation of Figure
// 8b: a valid MoveBlockDown reorder produces holes in the rendered image.
func BenchmarkFigure8bPixel5Bug(b *testing.B) {
	in := interp.Inputs{W: 8, H: 8}
	px := target.ByName("Pixel-5")
	var holes int
	for i := 0; i < b.N; i++ {
		m := testmod.Diamond()
		ctx := fuzz.NewContext(m.Clone(), in)
		tr := &fuzz.MoveBlockDown{Block: ctx.Mod.EntryPointFunction().Blocks[1].Label}
		if err := core.CheckedApply[*fuzz.Context](ctx, tr); err != nil {
			b.Fatal(err)
		}
		img, crash := px.Run(ctx.Mod, in)
		if crash != nil {
			b.Fatal(crash)
		}
		holes = 0
		for y := 0; y < img.H; y++ {
			for x := 0; x < img.W; x++ {
				if img.At(x, y)[3] == 0 {
					holes++
				}
			}
		}
	}
	b.ReportMetric(float64(holes), "holes")
	if holes == 0 {
		b.Fatal("Pixel-5 bug did not fire")
	}
}

// --- ablations of the Section 2.3 / 3.5 design choices ----------------------

// BenchmarkAblationDedupIgnoreList quantifies the Section 3.5 refinement:
// running the Figure 6 algorithm with and without the supporting-type ignore
// list on the campaign's reduced crash cases. Without the list, supporting
// types (present in nearly every sequence) collide, so far fewer reports are
// recommended and coverage drops.
func BenchmarkAblationDedupIgnoreList(b *testing.B) {
	c := sharedCampaigns(b)
	// Reduce a slice of crash outcomes once.
	type redCase struct {
		seq []fuzz.Transformation
		sig string
	}
	var cases []redCase
	perSig := map[string]int{}
	refs := corpus.References()
tests:
	for i := 0; i < c.Fuzz.Spec.Tests; i++ {
		item := refs[i%len(refs)]
		for _, bug := range c.Fuzz.Tests[i] {
			if bug.Signature == target.MiscompilationSignature {
				continue
			}
			key := bug.Target + "|" + bug.Signature
			if perSig[key] >= 2 {
				continue
			}
			perSig[key]++
			r := reduceSerial(b, item.Mod, item.Inputs, bugSequence(b, c.Env.Blobs, bug), bug.Signature, target.ByName(bug.Target))
			cases = append(cases, redCase{r.Sequence, bug.Signature})
			if len(cases) >= 30 {
				break tests
			}
		}
	}
	if len(cases) < 5 {
		b.Skip("too few crash cases")
	}
	run := func(ignore map[string]bool) (reports, distinct int) {
		tests := make([]core.ReducedTest, len(cases))
		for i, rc := range cases {
			tests[i] = core.ReducedTest{Name: rc.sig + "#" + string(rune('a'+i%26)) + string(rune('a'+i/26)), Types: core.TypeSet(rc.seq, ignore)}
		}
		picked := core.Deduplicate(tests)
		seen := map[string]bool{}
		for _, p := range picked {
			seen[p.Name[:len(p.Name)-3]] = true
		}
		return len(picked), len(seen)
	}
	var withReports, withDistinct, withoutReports, withoutDistinct int
	for i := 0; i < b.N; i++ {
		withReports, withDistinct = run(fuzz.SupportingTypes())
		withoutReports, withoutDistinct = run(map[string]bool{})
	}
	b.ReportMetric(float64(withReports), "reports-with-ignore")
	b.ReportMetric(float64(withDistinct), "distinct-with-ignore")
	b.ReportMetric(float64(withoutReports), "reports-without-ignore")
	b.ReportMetric(float64(withoutDistinct), "distinct-without-ignore")

	// The mechanism, asserted on the Section 3.5 shape directly: two tests
	// for *different* bugs that share only a supporting type (SplitBlock)
	// must both be recommended with the ignore list, but collapse to one
	// without it.
	mk := func(kinds ...string) []core.Transformation[*fuzz.Context] {
		var out []core.Transformation[*fuzz.Context]
		for _, k := range kinds {
			switch k {
			case "split":
				out = append(out, &fuzz.SplitBlock{})
			case "dead":
				out = append(out, &fuzz.AddDeadBlock{})
			case "move":
				out = append(out, &fuzz.MoveBlockDown{})
			}
		}
		return out
	}
	synth := func(ignore map[string]bool) int {
		tests := []core.ReducedTest{
			{Name: "bugA", Types: core.TypeSet(mk("split", "dead"), ignore)},
			{Name: "bugB", Types: core.TypeSet(mk("split", "move"), ignore)},
		}
		return len(core.Deduplicate(tests))
	}
	if got := synth(fuzz.SupportingTypes()); got != 2 {
		b.Fatalf("with ignore list: %d reports, want 2 (both bugs)", got)
	}
	if got := synth(map[string]bool{}); got != 1 {
		b.Fatalf("without ignore list: %d reports, want 1 (collision on SplitBlock)", got)
	}
}

// BenchmarkAblationChunkedVsLinearReduction compares the Section 3.4 chunked
// delta-debugging loop against naive one-at-a-time removal, in
// interestingness queries, on synthetic 200-element sequences where 5
// scattered elements are needed. Chunking needs far fewer queries.
func BenchmarkAblationChunkedVsLinearReduction(b *testing.B) {
	const n = 200
	needed := []int{3, 41, 99, 150, 199}
	test := func(keep []int) bool {
		found := 0
		for _, k := range keep {
			for _, want := range needed {
				if k == want {
					found++
				}
			}
		}
		return found == len(needed)
	}
	var chunked, linear int
	for i := 0; i < b.N; i++ {
		// Every synthetic transformation applies: the effective set is the
		// candidate itself.
		_, st := ddmin(b, n, func(keep []int) ([]int, bool) { return keep, test(keep) })
		chunked = st.Queries
		// Naive linear: try removing each element once, repeatedly.
		keep := make([]int, n)
		for j := range keep {
			keep[j] = j
		}
		linear = 0
		for changed := true; changed; {
			changed = false
			for j := 0; j < len(keep); j++ {
				cand := append(append([]int{}, keep[:j]...), keep[j+1:]...)
				linear++
				if test(cand) {
					keep = cand
					changed = true
					j--
				}
			}
		}
	}
	b.ReportMetric(float64(chunked), "queries-chunked")
	b.ReportMetric(float64(linear), "queries-linear")
}

// BenchmarkRunnerParallelReduce measures the execution engine end to end: a
// spirv-fuzz campaign followed by ddmin reduction of its crash outcomes, on
// the pre-engine serial path (one worker, runner caching disabled) versus
// the engine (worker pool, content-addressed memoization). Both legs must
// produce bitwise-identical kept indices — the engine's determinism
// guarantee — and the wall-clock ratio and cache hit rate are reported as
// metrics.
func BenchmarkRunnerParallelReduce(b *testing.B) {
	refs := corpus.References()
	donors := corpus.Donors()
	tests := 50
	workers := runtime.GOMAXPROCS(0)
	if workers < 4 {
		workers = 4
	}

	spec := service.CampaignSpec{Tests: tests}
	if err := spec.Normalize(); err != nil {
		b.Fatal(err)
	}
	leg := func(eng *runner.Engine) (time.Duration, [][]int) {
		start := time.Now()
		env := service.Env{Eng: eng, Reng: new(replay.Engine), Blobs: &service.MemBlobs{}}
		camp, err := experiments.RunCampaign(context.Background(), env, spec, refs, donors)
		if err != nil {
			b.Fatal(err)
		}
		var kept [][]int
		perSig := map[string]int{}
		for i := 0; i < tests; i++ {
			item := refs[i%len(refs)]
			for _, bug := range camp.Tests[i] {
				key := bug.Target + "|" + bug.Signature
				if perSig[key] >= 1 {
					continue
				}
				ts := bugSequence(b, env.Blobs, bug)
				if len(ts) == 0 {
					continue
				}
				perSig[key]++
				tg := target.ByName(bug.Target)
				interesting := reduce.ForOutcomeOn(eng, tg, item.Mod, item.Inputs, bug.Signature)
				r, err := reduce.ReduceParallelReplayCtx(context.Background(), item.Mod, item.Inputs, ts, interesting, 1, env.Reng)
				if err != nil {
					b.Fatal(err)
				}
				kept = append(kept, r.Kept)
			}
		}
		if len(kept) == 0 {
			b.Fatal("campaign produced no reducible crash outcomes")
		}
		return time.Since(start), kept
	}

	var speedup, hitRate float64
	var reductions int
	for i := 0; i < b.N; i++ {
		// Take the best of two runs per leg so a CPU-contention spike during
		// either leg does not distort the ratio; each repetition gets a fresh
		// engine, so no state leaks between them.
		var serialTime, parTime time.Duration
		for rep := 0; rep < 2; rep++ {
			serialEng := runner.New(1)
			serialEng.SetCacheCap(0) // pre-engine baseline: no memoization
			st, sk := leg(serialEng)

			parEng := runner.New(workers)
			pt, pk := leg(parEng)

			if !reflect.DeepEqual(sk, pk) {
				b.Fatalf("parallel reduction diverged from serial:\n%v\nvs\n%v", pk, sk)
			}
			if rep == 0 || st < serialTime {
				serialTime = st
			}
			if rep == 0 || pt < parTime {
				parTime = pt
			}
			hitRate = parEng.Stats().HitRate()
			reductions = len(pk)
		}
		speedup = serialTime.Seconds() / parTime.Seconds()
	}
	b.ReportMetric(speedup, "speedup")
	b.ReportMetric(100*hitRate, "cache-hit-%")
	b.ReportMetric(float64(workers), "workers")
	b.ReportMetric(float64(reductions), "reductions")
}

// BenchmarkEngineRunAll measures the cross-target compile-sharing win on the
// paper's 9-target fan-out: classify a batch of fuzzed variants against every
// target, batched (RunAllCtx: module and inputs hashed once per batch, one
// shared compile per distinct mutation class, one render per distinct
// compiled module) versus the monolithic per-target loop (loopRunner: every
// target compiles for itself). Both legs run on identical worker pools and
// must produce bitwise-identical crash signatures and images; the
// wall-clock ratio and the shared-compile rate are reported.
func BenchmarkEngineRunAll(b *testing.B) {
	refs := corpus.References()
	donors := corpus.Donors()
	targets := target.All()
	workers := runtime.GOMAXPROCS(0)
	if workers < 4 {
		workers = 4
	}

	type variant struct {
		mod *spirv.Module
		in  interp.Inputs
	}
	type obs struct {
		Sig, Img string
	}
	nVariants := 96
	if testing.Short() {
		nVariants = 60
	}
	variants := make([]variant, nVariants)
	for i := range variants {
		item := refs[i%len(refs)]
		// Campaign-sized pass budgets produce realistic variant sizes, where
		// the compile (clone + mutate + 8-pass pipeline) is the dominant
		// per-target cost the batch amortizes.
		res, err := fuzz.Fuzz(item.Mod, item.Inputs, fuzz.Options{
			Seed:                  int64(5000 + i),
			Donors:                donors,
			EnableRecommendations: true,
			MinPasses:             12,
			MaxPasses:             20,
		})
		if err != nil {
			b.Fatal(err)
		}
		in := res.Inputs
		in.W, in.H = 4, 4 // the bench grid of the Figure 3 walkthrough
		variants[i] = variant{mod: res.Variant, in: in}
	}

	// Execution only is timed; images are hashed for the bitwise comparison
	// after the clock stops.
	leg := func(eng *runner.Engine, loop *loopRunner) (time.Duration, [][]obs) {
		raw := make([][]runner.TargetResult, len(variants))
		start := time.Now()
		eng.Do(len(variants), func(i int) {
			if loop == nil {
				all, err := eng.RunAllCtx(context.Background(), targets, variants[i].mod, variants[i].in)
				if err != nil {
					b.Error(err)
					return
				}
				raw[i] = all
			} else {
				row := make([]runner.TargetResult, len(targets))
				for j, tg := range targets {
					row[j] = loop.run(tg, variants[i].mod, variants[i].in)
				}
				raw[i] = row
			}
		})
		elapsed := time.Since(start)
		out := make([][]obs, len(raw))
		for i, row := range raw {
			out[i] = make([]obs, len(row))
			for j, r := range row {
				if r.Crash != nil {
					out[i][j].Sig = r.Crash.Signature
				}
				if r.Img != nil {
					out[i][j].Img = r.Img.Hash()
				}
			}
		}
		return elapsed, out
	}

	var speedup, sharedPct float64
	for i := 0; i < b.N; i++ {
		// Best of three runs per leg against CPU-contention spikes; fresh
		// engines per repetition so no cache state leaks between legs.
		var loopTime, batchTime time.Duration
		for rep := 0; rep < 3; rep++ {
			lt, lres := leg(runner.New(workers), newLoopRunner())

			batchEng := runner.New(workers)
			bt, bres := leg(batchEng, nil)

			if !reflect.DeepEqual(lres, bres) {
				b.Fatalf("batched results diverged from per-target loop")
			}
			if rep == 0 || lt < loopTime {
				loopTime = lt
			}
			if rep == 0 || bt < batchTime {
				batchTime = bt
			}
			st := batchEng.Stats()
			sharedPct = 100 * float64(st.CompileHits) / float64(st.CompileHits+st.CompileMisses)
		}
		speedup = loopTime.Seconds() / batchTime.Seconds()
	}
	b.ReportMetric(speedup, "speedup")
	b.ReportMetric(sharedPct, "shared-compile-%")
	b.ReportMetric(float64(workers), "workers")
	b.ReportMetric(float64(len(variants)), "variants")
}

// loopRunner is BenchmarkEngineRunAll's per-target baseline: a memoizing
// executor without cross-target compile sharing. Every call hashes a fresh
// encoding of the module and the inputs for its result key, every target
// runs tg.Compile for itself, and renders are memoized on a fresh hash of
// the compiled module's encoding plus the inputs, their register-VM plans
// on that hash alone. Results are bitwise identical to tg.Run.
type loopRunner struct {
	mu      sync.Mutex
	results map[loopKey]runner.TargetResult
	renders map[loopKey]loopRender
	plans   map[[sha256.Size]byte]*interp.Program
}

// loopKey is a result key (target, module hash, inputs hash) or, with an
// empty target, a render key (compiled-module hash, inputs hash).
type loopKey struct {
	target  string
	mod, in [sha256.Size]byte
}

type loopRender struct {
	img *interp.Image
	err string
}

func newLoopRunner() *loopRunner {
	return &loopRunner{
		results: map[loopKey]runner.TargetResult{},
		renders: map[loopKey]loopRender{},
		plans:   map[[sha256.Size]byte]*interp.Program{},
	}
}

func (l *loopRunner) run(tg *target.Target, m *spirv.Module, in interp.Inputs) runner.TargetResult {
	k := loopKey{target: tg.Name + "\x00" + tg.Version, mod: sha256.Sum256(m.EncodeBytes())}
	if data, err := interp.EncodeInputs(in); err == nil {
		k.in = sha256.Sum256(data)
	}
	l.mu.Lock()
	r, ok := l.results[k]
	l.mu.Unlock()
	if ok {
		return r
	}
	r = l.execute(tg, m, in, k.in)
	l.mu.Lock()
	l.results[k] = r
	l.mu.Unlock()
	return r
}

func (l *loopRunner) execute(tg *target.Target, m *spirv.Module, in interp.Inputs, inHash [sha256.Size]byte) runner.TargetResult {
	compiled, crash := tg.Compile(m)
	if crash != nil {
		return runner.TargetResult{Crash: crash}
	}
	if !tg.CanRender {
		return runner.TargetResult{}
	}
	rk := loopKey{mod: sha256.Sum256(compiled.EncodeBytes()), in: inHash}
	l.mu.Lock()
	r, ok := l.renders[rk]
	l.mu.Unlock()
	if !ok {
		img, err := l.render(compiled, rk.mod, in)
		r = loopRender{img: img}
		if err != nil {
			r.err = err.Error()
		}
		l.mu.Lock()
		l.renders[rk] = r
		l.mu.Unlock()
	}
	if r.err != "" {
		return runner.TargetResult{Crash: &target.Crash{Signature: tg.Name + ": device fault: " + r.err}}
	}
	return runner.TargetResult{Img: r.img}
}

// render renders compiled through a plan lowered once per compiled-module
// hash fp.
func (l *loopRunner) render(compiled *spirv.Module, fp [sha256.Size]byte, in interp.Inputs) (*interp.Image, error) {
	l.mu.Lock()
	prog, ok := l.plans[fp]
	l.mu.Unlock()
	if !ok {
		var err error
		if prog, err = interp.Compile(compiled); err != nil {
			return nil, err
		}
		l.mu.Lock()
		l.plans[fp] = prog
		l.mu.Unlock()
	}
	return prog.Render(in)
}

// benchWaitCampaign polls a service until the campaign leaves the running
// states (the in-process analogue of `spirvd client submit -wait`). It
// polls every 100 µs: a warm memo leg takes about 20 ms, which a coarser
// poll would round by several percent.
func benchWaitCampaign(b *testing.B, svc *service.Service, id string) service.CampaignStatus {
	b.Helper()
	deadline := time.Now().Add(5 * time.Minute)
	for {
		st, ok := svc.Campaign(id)
		if !ok {
			b.Fatalf("campaign %s disappeared", id)
		}
		if st.State == service.StateDone || st.State == service.StateFailed {
			if st.State != service.StateDone {
				b.Fatalf("campaign %s failed: %s", id, st.Error)
			}
			return st
		}
		if time.Now().After(deadline) {
			b.Fatalf("campaign %s stuck in %s", id, st.State)
		}
		time.Sleep(100 * time.Microsecond)
	}
}

// BenchmarkServiceResumeCampaign measures the cost of restarting the spirvd
// pipeline over a finished campaign's store. Three legs over one store:
// (1) fresh — full fuzz + classify + reduce + bucket, which only seeds the
// store; (2) journal resume — the bucket checkpoint is deleted, so a
// restarted service must re-drive the pipeline, but every fuzz and reduce
// step is journaled and skipped, leaving only the deterministic bucket
// rebuild; (3) checkpoint resume — the restarted service serves the bucket
// set straight from the checkpoint without submitting a single job. Shape
// targets: both resume legs reproduce the fresh buckets exactly. It reports
// each resume leg's wall time; bench-compare bounds "journal-resume-ms",
// which grows about tenfold if resume re-runs journaled work.
func BenchmarkServiceResumeCampaign(b *testing.B) {
	spec := service.CampaignSpec{Tests: 20}
	if testing.Short() {
		spec.Tests = 12
	}
	var journalMS, ckptMS float64
	for i := 0; i < b.N; i++ {
		var journalBest, ckptBest time.Duration
		for rep := 0; rep < 3; rep++ { // best-of-three against CPU-contention spikes
			journalTime, ckptTime := resumeLegs(b, spec)
			if rep == 0 || journalTime < journalBest {
				journalBest = journalTime
			}
			if rep == 0 || ckptTime < ckptBest {
				ckptBest = ckptTime
			}
		}
		journalMS = float64(journalBest.Microseconds()) / 1000
		ckptMS = float64(ckptBest.Microseconds()) / 1000
	}
	b.ReportMetric(journalMS, "journal-resume-ms")
	b.ReportMetric(ckptMS, "ckpt-resume-ms")
}

// resumeLegs drives one fresh campaign and the two resume paths over a
// single throwaway store, returning the wall time of each resume leg.
func resumeLegs(b *testing.B, spec service.CampaignSpec) (journal, ckpt time.Duration) {
	b.Helper()
	dir := b.TempDir()

	st1, err := store.Open(dir)
	if err != nil {
		b.Fatal(err)
	}
	svc1, err := service.New(st1, service.Options{})
	if err != nil {
		b.Fatal(err)
	}
	created, err := svc1.CreateCampaign(spec)
	if err != nil {
		b.Fatal(err)
	}
	benchWaitCampaign(b, svc1, created.ID)
	freshBuckets, err := svc1.Buckets(created.ID)
	if err != nil {
		b.Fatal(err)
	}
	if err := svc1.Close(context.Background()); err != nil {
		b.Fatal(err)
	}

	// Journal-resume leg: without the checkpoint the campaign reverts to
	// pending and the pipeline re-runs with every journaled step skipped.
	ckptFile := filepath.Join(dir, "checkpoints", "buckets-"+created.ID+".json")
	if err := os.Remove(ckptFile); err != nil {
		b.Fatal(err)
	}
	st2, err := store.Open(dir)
	if err != nil {
		b.Fatal(err)
	}
	start := time.Now()
	svc2, err := service.New(st2, service.Options{})
	if err != nil {
		b.Fatal(err)
	}
	resumed := benchWaitCampaign(b, svc2, created.ID)
	journal = time.Since(start)
	if resumed.SkippedTests != spec.Tests {
		b.Fatalf("journal resume re-ran tests: %+v", resumed)
	}
	resumedBuckets, err := svc2.Buckets(created.ID)
	if err != nil {
		b.Fatal(err)
	}
	if !reflect.DeepEqual(freshBuckets, resumedBuckets) {
		b.Fatalf("journal resume diverged:\n%+v\nvs fresh\n%+v", resumedBuckets, freshBuckets)
	}
	if err := svc2.Close(context.Background()); err != nil {
		b.Fatal(err)
	}

	// Checkpoint-resume leg: the rebuild above rewrote the checkpoint, so
	// a restart serves the buckets with zero jobs submitted.
	st3, err := store.Open(dir)
	if err != nil {
		b.Fatal(err)
	}
	start = time.Now()
	svc3, err := service.New(st3, service.Options{})
	if err != nil {
		b.Fatal(err)
	}
	ckptBuckets, err := svc3.Buckets(created.ID)
	if err != nil {
		b.Fatal(err)
	}
	ckpt = time.Since(start)
	if !reflect.DeepEqual(freshBuckets, ckptBuckets) {
		b.Fatalf("checkpoint resume diverged:\n%+v\nvs fresh\n%+v", ckptBuckets, freshBuckets)
	}
	if m := svc3.Metrics(); m.JobsSubmitted != 0 {
		b.Fatalf("checkpoint resume submitted jobs: %+v", m)
	}
	if err := svc3.Close(context.Background()); err != nil {
		b.Fatal(err)
	}
	return journal, ckpt
}

// BenchmarkMemoWarmCampaign measures the persistent memo store's
// cross-campaign payoff: the same campaign spec run twice over one daemon
// home (-memo-dir plus store), with a daemon restart in between. The warm
// leg's campaign has a fresh ID, so the journal skips nothing — the full
// fuzz/classify/reduce/bucket pipeline re-runs — but every execution it
// asks for is served by the memo tier instead of the toolchain. Reports
// the best-of-three warm leg per campaign test as "warm-us/test", the
// warm leg's MemoHits/(MemoHits+MemoMisses) as "warm-hit-frac", and
// cold-time/warm-time as "cold/warm". bench-compare guards the first two.
// A warm leg that runs its executions instead of reading them takes about
// 1.6x as long (fuzzing is most of the rest) and reads a warm-hit-frac of
// 0. The cold/warm ratio is not guarded: it moves with every cost the cold
// leg pays besides executions (memo and blob writes), so it reads noise as
// regressions. Buckets must be identical across the legs — memo
// temperature only ever moves time. Bisect jobs are deliberately not part of the workload: bisection probes
// already share compiles in-process, so they dilute the execution fraction
// the memo tier targets; the memo × bisect identity is pinned by
// TestMemoTemperatureIdentity.
func BenchmarkMemoWarmCampaign(b *testing.B) {
	spec := service.CampaignSpec{Tests: 300, CapPerSignature: 1}
	if testing.Short() {
		spec.Tests = 120
	}
	var coldOverWarm, warmPerTest, hitFrac float64
	for i := 0; i < b.N; i++ {
		var coldBest, warmBest time.Duration
		for rep := 0; rep < 3; rep++ { // best-of-three against CPU-contention spikes
			cold, warm, frac := memoLegs(b, spec)
			if rep == 0 || cold < coldBest {
				coldBest = cold
			}
			if rep == 0 || warm < warmBest {
				warmBest = warm
			}
			hitFrac = frac // deterministic executions: identical every rep
		}
		coldOverWarm = coldBest.Seconds() / warmBest.Seconds()
		warmPerTest = float64(warmBest.Nanoseconds()) / 1e3 / float64(spec.Tests)
	}
	b.ReportMetric(warmPerTest, "warm-us/test")
	b.ReportMetric(hitFrac, "warm-hit-frac")
	b.ReportMetric(coldOverWarm, "cold/warm")
}

// memoLegs runs the same campaign spec twice over one daemon home — cold
// (empty memo, empty store) then warm (daemon restarted over both) —
// returning the wall times and the warm leg's memo hit fraction. Sharing
// the store dir is the realistic repeat shape: a long-lived daemon keeps
// its blob store, so the warm campaign's content-addressed writes dedup
// against existing blobs the same way its executions dedup against the
// memo. The warm campaign still drives the entire pipeline — a fresh
// campaign ID means nothing is journal-skipped.
func memoLegs(b *testing.B, spec service.CampaignSpec) (cold, warm time.Duration, hitFrac float64) {
	b.Helper()
	dir := b.TempDir()
	memoDir := filepath.Join(dir, "memo")
	storeDir := filepath.Join(dir, "store")

	leg := func() (time.Duration, []service.BucketSet, service.Metrics) {
		runtime.GC() // level the heap left by earlier benchmarks across legs
		st, err := store.Open(storeDir)
		if err != nil {
			b.Fatal(err)
		}
		svc, err := service.New(st, service.Options{MemoDir: memoDir, Workers: 1})
		if err != nil {
			b.Fatal(err)
		}
		start := time.Now()
		created, err := svc.CreateCampaign(spec)
		if err != nil {
			b.Fatal(err)
		}
		benchWaitCampaign(b, svc, created.ID)
		elapsed := time.Since(start)
		buckets, err := svc.Buckets(created.ID)
		if err != nil {
			b.Fatal(err)
		}
		m := svc.Metrics()
		if err := svc.Close(context.Background()); err != nil {
			b.Fatal(err)
		}
		return elapsed, buckets, m
	}

	cold, coldBuckets, coldM := leg()
	if coldM.Runner.MemoMisses == 0 {
		b.Fatal("cold leg never consulted the memo store")
	}
	warm, warmBuckets, warmM := leg()
	if !reflect.DeepEqual(memoNormalize(coldBuckets), memoNormalize(warmBuckets)) {
		b.Fatalf("warm-memo buckets diverged from cold:\n%+v\nvs\n%+v", warmBuckets, coldBuckets)
	}
	hits, misses := warmM.Runner.MemoHits, warmM.Runner.MemoMisses
	if hits == 0 {
		b.Fatal("warm leg never hit the memo store")
	}
	return cold, warm, float64(hits) / float64(hits+misses)
}

// memoNormalize strips the campaign-scoped naming from bucket sets — the
// campaign ID, its prefix on case paths, and the report hashes derived
// from those paths — so two runs of the same spec compare on substance:
// targets, signatures, residual type sets, sequence lengths, deltas.
func memoNormalize(sets []service.BucketSet) []service.BucketSet {
	out := make([]service.BucketSet, len(sets))
	for i, s := range sets {
		s.Campaign = ""
		buckets := make([]service.Bucket, len(s.Buckets))
		for j, bkt := range s.Buckets {
			if k := strings.IndexByte(bkt.Case, '/'); k >= 0 {
				bkt.Case = bkt.Case[k+1:]
			}
			bkt.ReportHash = ""
			buckets[j] = bkt
		}
		s.Buckets = buckets
		out[i] = s
	}
	return out
}

// --- substrate performance benchmarks ---------------------------------------

// BenchmarkFuzzOneVariant measures one full spirv-fuzz run on a corpus
// reference (generation only).
func BenchmarkFuzzOneVariant(b *testing.B) {
	item := corpus.References()[3]
	donors := corpus.Donors()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := fuzz.Fuzz(item.Mod, item.Inputs, fuzz.Options{Seed: int64(i), Donors: donors, EnableRecommendations: true}); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkRenderLoop measures reference interpretation of the loop shader
// over an 8×8 grid.
func BenchmarkRenderLoop(b *testing.B) {
	m := testmod.Loop()
	in := interp.Inputs{W: 8, H: 8}
	for i := 0; i < b.N; i++ {
		if _, err := interp.Render(m, in); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkValidateVariant measures validation of a fuzzed variant.
func BenchmarkValidateVariant(b *testing.B) {
	item := corpus.References()[5]
	res, err := fuzz.Fuzz(item.Mod, item.Inputs, fuzz.Options{Seed: 1, Donors: corpus.Donors(), EnableRecommendations: true})
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := validate.Module(res.Variant); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkBinaryRoundTrip measures binary encode+decode of a variant.
func BenchmarkBinaryRoundTrip(b *testing.B) {
	m := testmod.Matrix()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := spirv.DecodeBytes(m.EncodeBytes()); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkTargetCompile measures one simulated target compile (pipeline +
// defect predicates).
func BenchmarkTargetCompile(b *testing.B) {
	m := testmod.Caller()
	tg := target.ByName("Mesa")
	for i := 0; i < b.N; i++ {
		if _, crash := tg.Compile(m); crash != nil {
			b.Fatal(crash)
		}
	}
}

// BenchmarkAblationSplitBlockIndependence quantifies the Section 2.3
// independence principle with the paper's own example: a bug needs a block
// split before instruction t but not the earlier split before s. With
// id-anchored SplitBlock the reducer drops the unnecessary split; with the
// flawed (block, offset) parameterisation the second split names the block
// the first created, so both must be kept.
func BenchmarkAblationSplitBlockIndependence(b *testing.B) {
	build := func() (*spirv.Module, spirv.ID, spirv.ID) {
		bld := spirv.NewBuilder()
		s := bld.BeginFragmentShell()
		m := bld.Mod
		one := m.EnsureConstantFloat(0.125)
		c := bld.Emit(spirv.OpLoad, s.Vec2, s.Coord)
		x := bld.EmitWords(spirv.OpCompositeExtract, s.Float, uint32(c), 0)
		cur := x
		var ids []spirv.ID
		for i := 0; i < 6; i++ {
			cur = bld.Emit(spirv.OpFAdd, s.Float, cur, one)
			ids = append(ids, cur)
		}
		col := bld.Emit(spirv.OpCompositeConstruct, s.Vec4, cur, cur, cur, one)
		bld.Store(s.Color, col)
		bld.FinishFragmentShell(s)
		return m, ids[1], ids[3] // s and t, with instructions between them
	}
	in := interp.Inputs{W: 2, H: 2}
	var keptFine, keptFlawed int
	for i := 0; i < b.N; i++ {
		// The "bug": some block starts with instruction t.
		mFine, _, tID := build()
		bugFine := func(m *spirv.Module) bool {
			for _, fn := range m.Functions {
				for _, blk := range fn.Blocks {
					if len(blk.Body) > 0 && blk.Body[0].Result == tID {
						return true
					}
				}
			}
			return false
		}
		sIDfine := tID - 2
		seqFine := []fuzz.Transformation{
			&fuzz.SplitBlock{Anchor: sIDfine, Fresh: mFine.Bound},
			&fuzz.SplitBlock{Anchor: tID, Fresh: mFine.Bound + 1},
		}
		kept, _ := ddmin(b, len(seqFine), func(keep []int) ([]int, bool) {
			ctx, applied := fuzz.ReplaySubsequenceContext(mFine, in, seqFine, keep)
			return applied, bugFine(ctx.Mod)
		})
		keptFine = len(kept)

		mFlawed, _, tID2 := build()
		entry := mFlawed.EntryPointFunction().Entry().Label
		// Offsets: t sits at body offset 5 (load, extract, 4 adds before it).
		seqFlawed := []fuzz.Transformation{
			&fuzz.SplitBlockAtOffset{Block: entry, Offset: 3, Fresh: mFlawed.Bound},
			&fuzz.SplitBlockAtOffset{Block: mFlawed.Bound, Offset: 2, Fresh: mFlawed.Bound + 1},
		}
		bugFlawed := func(m *spirv.Module) bool {
			for _, fn := range m.Functions {
				for _, blk := range fn.Blocks {
					if len(blk.Body) > 0 && blk.Body[0].Result == tID2 {
						return true
					}
				}
			}
			return false
		}
		kept2, _ := ddmin(b, len(seqFlawed), func(keep []int) ([]int, bool) {
			ctx, applied := fuzz.ReplaySubsequenceContext(mFlawed, in, seqFlawed, keep)
			return applied, bugFlawed(ctx.Mod)
		})
		keptFlawed = len(kept2)
	}
	b.ReportMetric(float64(keptFine), "kept-id-anchored")
	b.ReportMetric(float64(keptFlawed), "kept-offset-anchored")
	if keptFine != 1 || keptFlawed != 2 {
		b.Fatalf("ablation shape violated: fine=%d flawed=%d (want 1 and 2)", keptFine, keptFlawed)
	}
}

// BenchmarkInterpVM measures the compile-once register VM against the
// tree-walking reference evaluator on the reference corpus: every module is
// rendered on a 48x48 grid by both engines, and the wall-clock ratio is
// reported as "speedup" (shape target: >= 3x). The VM leg pays its plan
// compilation inside the timed region — one Compile per module, amortized
// over 2304 pixels, which is exactly the engine's usage pattern — and both
// legs must produce byte-identical images.
func BenchmarkInterpVM(b *testing.B) {
	refs := corpus.References()
	inputs := make([]interp.Inputs, len(refs))
	for i, item := range refs {
		in := item.Inputs
		in.W, in.H = 48, 48
		inputs[i] = in
	}

	var speedup float64
	for i := 0; i < b.N; i++ {
		// Best of two runs per leg so a CPU-contention spike during either
		// leg does not distort the ratio.
		var treeTime, vmTime time.Duration
		for rep := 0; rep < 2; rep++ {
			start := time.Now()
			treeImgs := make([]*interp.Image, len(refs))
			for j, item := range refs {
				img, err := interp.RenderTree(item.Mod, inputs[j])
				if err != nil {
					b.Fatalf("%s: %v", item.Name, err)
				}
				treeImgs[j] = img
			}
			tt := time.Since(start)

			start = time.Now()
			vmImgs := make([]*interp.Image, len(refs))
			for j, item := range refs {
				prog, err := interp.Compile(item.Mod)
				if err != nil {
					b.Fatalf("%s: %v", item.Name, err)
				}
				img, err := prog.Render(inputs[j])
				if err != nil {
					b.Fatalf("%s: %v", item.Name, err)
				}
				vmImgs[j] = img
			}
			vt := time.Since(start)

			for j := range refs {
				if !treeImgs[j].Equal(vmImgs[j]) {
					b.Fatalf("%s: VM image differs from tree walker", refs[j].Name)
				}
			}
			if rep == 0 || tt < treeTime {
				treeTime = tt
			}
			if rep == 0 || vt < vmTime {
				vmTime = vt
			}
		}
		speedup = treeTime.Seconds() / vmTime.Seconds()
	}
	b.ReportMetric(speedup, "speedup")
	b.ReportMetric(float64(len(refs)), "modules")
}

// BenchmarkBisectCampaign measures the second dedup signal end to end: every
// bug outcome of a fuzzing campaign is bisected against its target's release
// history, on a cold engine versus the same engine cache-warm. Bisection
// rides the campaign's compile sharing — a probe either crashes before
// compiling or hits a (module fingerprint, mutation fingerprint) compile key
// another release already populated — so even the cold pass must satisfy the
// almost-for-free claim: cache-hit fraction >= 0.5, far fewer compiles than
// probes. Verdicts must be identical across both passes; reported metrics:
// the guarded warm-pass time per case (a warm pass that stops reusing the
// compile cache slows several-fold) and cold hit fraction, the cold-over-warm
// ratio, probes per case, and the distinct (target, first-bad) bucket count
// the dedup signal yields. The ratio is not guarded: scan-decided crash
// probes compile nothing even cold, so a faster cold pass lowers it as
// surely as a slower warm one.
func BenchmarkBisectCampaign(b *testing.B) {
	refs := corpus.References()
	donors := corpus.Donors()
	tests := 40
	if testing.Short() {
		tests = 25
	}
	workers := runtime.GOMAXPROCS(0)
	if workers < 4 {
		workers = 4
	}
	spec := service.CampaignSpec{Tests: tests}
	if err := spec.Normalize(); err != nil {
		b.Fatal(err)
	}
	env := service.Env{Eng: runner.New(workers), Reng: new(replay.Engine), Blobs: &service.MemBlobs{}}
	camp, err := experiments.RunCampaign(context.Background(), env, spec, refs, donors)
	if err != nil {
		b.Fatal(err)
	}
	var cases []bisect.Case
	perSig := map[string]int{}
	for i := 0; i < tests; i++ {
		item := refs[i%len(refs)]
		for _, bug := range camp.Tests[i] {
			key := bug.Target + "|" + bug.Signature
			if perSig[key] >= 2 {
				continue
			}
			perSig[key]++
			// Replaying the sequence rebuilds the variant and its inputs.
			variant, _ := fuzz.ReplayContext(item.Mod, item.Inputs, bugSequence(b, env.Blobs, bug))
			cases = append(cases, bisect.Case{
				Target:         bug.Target,
				Signature:      bug.Signature,
				Original:       item.Mod,
				OriginalInputs: item.Inputs,
				Variant:        variant.Mod,
				Inputs:         variant.Inputs,
			})
		}
	}
	if len(cases) < 5 {
		b.Fatalf("campaign produced only %d bisectable cases", len(cases))
	}

	bisectAll := func(be *bisect.Engine) ([]bisect.Result, time.Duration) {
		out := make([]bisect.Result, len(cases))
		start := time.Now()
		for j, c := range cases {
			r, err := be.Bisect(c)
			if err != nil {
				b.Fatal(err)
			}
			out[j] = r
		}
		return out, time.Since(start)
	}

	var coldOverWarm, warmPerCase, coldHit, perCase float64
	buckets := map[string]bool{}
	for i := 0; i < b.N; i++ {
		var coldTime, warmTime time.Duration
		for rep := 0; rep < 3; rep++ { // best-of-three against CPU-contention spikes
			be := bisect.New(runner.New(workers))
			coldRes, ct := bisectAll(be)
			cold := be.Stats()
			warmRes, wt := bisectAll(be) // second pass: compile caches warm

			// Result equality across temperatures is the determinism contract:
			// CacheHits is deliberately self-relative to each bisection, so the
			// warm pass must reproduce the cold verdicts bitwise.
			if !reflect.DeepEqual(coldRes, warmRes) {
				b.Fatalf("warm verdicts diverged from cold:\n%+v\nvs\n%+v", warmRes, coldRes)
			}
			if cold.HitFraction() < 0.5 {
				b.Fatalf("cold cache-hit fraction %.2f, want >= 0.5 (%+v)", cold.HitFraction(), cold)
			}
			if rep == 0 || ct < coldTime {
				coldTime = ct
			}
			if rep == 0 || wt < warmTime {
				warmTime = wt
			}
			coldHit = cold.HitFraction()
			perCase = float64(cold.Queries) / float64(cold.Bisections)
			for _, r := range coldRes {
				buckets[r.Target+"@"+r.FirstBad] = true
			}
		}
		coldOverWarm = coldTime.Seconds() / warmTime.Seconds()
		warmPerCase = float64(warmTime.Nanoseconds()) / 1e3 / float64(len(cases))
	}
	b.ReportMetric(warmPerCase, "warm-us/case")
	b.ReportMetric(coldOverWarm, "cold/warm")
	b.ReportMetric(coldHit, "hit-frac")
	b.ReportMetric(perCase, "probes/case")
	b.ReportMetric(float64(len(cases)), "cases")
	b.ReportMetric(float64(len(buckets)), "bisect-buckets")
}

// clusterCampaignLeg runs one simulated cluster — a coordinator over
// loopback HTTP plus n single-threaded worker nodes — through spec and
// returns the campaign wall-clock, the marshaled bucket set, and the
// coordinator's merged metrics.
func clusterCampaignLeg(b *testing.B, nodes int, spec service.CampaignSpec) (time.Duration, string, cluster.Metrics) {
	b.Helper()
	st, err := store.Open(b.TempDir())
	if err != nil {
		b.Fatal(err)
	}
	defer st.Close()
	co, err := cluster.NewCoordinator(st, cluster.Options{ShardTests: 4, ShardCases: 1})
	if err != nil {
		b.Fatal(err)
	}
	defer co.Close()
	sim, err := cluster.StartSim(co, nodes, b.TempDir(), 1)
	if err != nil {
		b.Fatal(err)
	}
	defer sim.Stop()

	start := time.Now()
	created, err := co.CreateCampaign(spec)
	if err != nil {
		b.Fatal(err)
	}
	deadline := time.Now().Add(5 * time.Minute)
	for {
		cst, ok := co.Campaign(created.ID)
		if !ok {
			b.Fatalf("campaign %s disappeared", created.ID)
		}
		if cst.State == service.StateDone {
			break
		}
		if cst.State == service.StateFailed {
			b.Fatalf("campaign failed: %s", cst.Error)
		}
		if time.Now().After(deadline) {
			b.Fatalf("campaign stuck in %s", cst.State)
		}
		time.Sleep(2 * time.Millisecond)
	}
	elapsed := time.Since(start)
	sets, err := co.Buckets(created.ID)
	if err != nil {
		b.Fatal(err)
	}
	return elapsed, fmt.Sprintf("%+v", sets), co.Metrics()
}

// BenchmarkClusterCampaign measures the distributed speedup: the same
// campaign on a 1-node and a 3-node simulated cluster (every worker node
// runs a single-threaded engine, so added nodes are the only parallelism).
//
// The simulated toolchains answer an interestingness query in microseconds,
// which makes a campaign CPU-bound and erases the thing distribution is for
// — in real transformation-based compiler testing a query shells out to an
// actual compiler and costs milliseconds of latency. ReduceSlowdownMS
// restores that per-query latency (pacing only; results are bitwise
// unaffected), so shard wall-clock is latency-dominated exactly like the
// deployments the coordinator exists for, and the measured speedup reflects
// shard overlap across nodes rather than the host's core count.
//
// Shape targets: the two bucket sets are identical (merge soundness), the
// 3-node run is >= 2x faster, and the hash-negotiated blob sync moves at
// most a fifth of the referenced bytes (dedup fraction >= 0.8).
func BenchmarkClusterCampaign(b *testing.B) {
	spec := service.CampaignSpec{Tests: 36, ReduceSlowdownMS: 10}
	if testing.Short() {
		spec.Tests = 32
	}
	var speedup, dedup float64
	for i := 0; i < b.N; i++ {
		var t1, t3 time.Duration
		var buckets1, buckets3 string
		var m3 cluster.Metrics
		for rep := 0; rep < 2; rep++ { // best-of-two against CPU-contention spikes
			d1, bk1, _ := clusterCampaignLeg(b, 1, spec)
			d3, bk3, m := clusterCampaignLeg(b, 3, spec)
			if rep == 0 || d1 < t1 {
				t1, buckets1 = d1, bk1
			}
			if rep == 0 || d3 < t3 {
				t3, buckets3, m3 = d3, bk3, m
			}
		}
		if buckets1 != buckets3 {
			b.Fatalf("1-node and 3-node bucket sets differ:\n%s\nvs\n%s", buckets1, buckets3)
		}
		speedup = t1.Seconds() / t3.Seconds()
		dedup = m3.Cluster.BlobDedupFraction
		if speedup < 2 {
			b.Fatalf("3-node speedup %.2fx, want >= 2x (1 node %v, 3 nodes %v)", speedup, t1, t3)
		}
		if dedup < 0.8 {
			b.Fatalf("blob-sync dedup %.2f, want >= 0.8: %+v", dedup, m3.Cluster.Sync)
		}
	}
	b.ReportMetric(speedup, "speedup")
	b.ReportMetric(dedup, "dedup-frac")
}

// clusterPipelineLeg runs one simulated cluster with 20ms of injected wire
// latency on every worker-protocol request — the latency-bound regime the
// pipelined transport (shard prefetch, batched gzip sync, adaptive shards)
// exists for — and returns the campaign wall-clock, the marshaled buckets,
// the coordinator metrics, and the process-wide wire traffic the leg
// produced.
func clusterPipelineLeg(b testing.TB, nodes int, spec service.CampaignSpec) (time.Duration, string, cluster.Metrics, cluster.WireStats) {
	b.Helper()
	st, err := store.Open(b.TempDir())
	if err != nil {
		b.Fatal(err)
	}
	defer st.Close()
	co, err := cluster.NewCoordinator(st, cluster.Options{ShardTests: 4, ShardCases: 1, AdaptiveShards: true})
	if err != nil {
		b.Fatal(err)
	}
	defer co.Close()
	wireBefore := cluster.SnapshotWire()
	sim, err := cluster.StartSimCfg(co, cluster.SimConfig{
		Nodes: nodes, Dir: b.TempDir(), WorkersPer: 1,
		Latency: 20 * time.Millisecond,
		Worker: func(w *cluster.WorkerOptions) {
			// Cap the idle backoff so phase transitions measure the
			// transport, not the poll ladder.
			w.Poll, w.PollMax = 5*time.Millisecond, 40*time.Millisecond
		},
	})
	if err != nil {
		b.Fatal(err)
	}
	defer sim.Stop()

	start := time.Now()
	created, err := co.CreateCampaign(spec)
	if err != nil {
		b.Fatal(err)
	}
	deadline := time.Now().Add(5 * time.Minute)
	for {
		cst, ok := co.Campaign(created.ID)
		if !ok {
			b.Fatalf("campaign %s disappeared", created.ID)
		}
		if cst.State == service.StateDone {
			break
		}
		if cst.State == service.StateFailed {
			b.Fatalf("campaign failed: %s", cst.Error)
		}
		if time.Now().After(deadline) {
			b.Fatalf("campaign stuck in %s", cst.State)
		}
		time.Sleep(2 * time.Millisecond)
	}
	elapsed := time.Since(start)
	sets, err := co.Buckets(created.ID)
	if err != nil {
		b.Fatal(err)
	}
	return elapsed, fmt.Sprintf("%+v", sets), co.Metrics(), cluster.SnapshotWire().Sub(wireBefore)
}

// BenchmarkClusterPipeline runs the same campaign over 1- and 3-node
// clusters whose every worker-protocol round trip pays 20ms of injected
// latency, and reports the node scaling of the pipelined loop
// ("node-speedup", 1-node time over 3-node time) and the 3-node leg's bytes
// on the wire per test ("wire-B/test").
//
// Shape targets: both bucket sets bitwise-identical, shards arriving
// prefetched, and at most clusterWireBytesPerTest on the wire per test —
// batched gzip sync measures ~5.1–5.3 KB/test at -short scale, the
// per-request protocol it replaced ~18.5 KB, and uncompressed batched
// bodies ~18 KB, so the bound fails if gzip or batching stops working.
func BenchmarkClusterPipeline(b *testing.B) {
	spec := service.CampaignSpec{Tests: 24}
	if testing.Short() {
		spec.Tests = 16
	}
	var nodeSpeedup, wirePerTest float64
	for i := 0; i < b.N; i++ {
		var t3, t1 time.Duration
		var bk3, bk1 string
		var m3 cluster.Metrics
		var w3 cluster.WireStats
		for rep := 0; rep < 2; rep++ { // best-of-two against CPU-contention spikes
			d3, three, m, w := clusterPipelineLeg(b, 3, spec)
			d1, one, _, _ := clusterPipelineLeg(b, 1, spec)
			if rep == 0 || d3 < t3 {
				t3, bk3, m3, w3 = d3, three, m, w
			}
			if rep == 0 || d1 < t1 {
				t1, bk1 = d1, one
			}
		}
		if bk3 != bk1 {
			b.Fatalf("bucket sets differ across node counts:\n3-node %s\n1-node %s", bk3, bk1)
		}
		nodeSpeedup = t1.Seconds() / t3.Seconds()
		wirePerTest = float64(w3.WireBytesOut+w3.WireBytesIn) / float64(spec.Tests)
		if wirePerTest > clusterWireBytesPerTest {
			b.Fatalf("%.0f wire bytes per test, want <= %d: %+v", wirePerTest, clusterWireBytesPerTest, w3)
		}
		if m3.Cluster.Sync.Prefetched == 0 {
			b.Fatalf("no shard arrived prefetched: %+v", m3.Cluster.Sync)
		}
	}
	b.ReportMetric(nodeSpeedup, "node-speedup")
	b.ReportMetric(wirePerTest, "wire-B/test")
}

// clusterWireBytesPerTest bounds BenchmarkClusterPipeline's bytes on the
// wire per test, both directions.
const clusterWireBytesPerTest = 8 << 10
