// spirv-reduce minimizes a bug-inducing transformation sequence with delta
// debugging (Section 3.4):
//
//	spirv-reduce -in original.spvasm -inputs inputs.json \
//	    -transformations seq.json -target SwiftShader [-signature SIG] \
//	    -o reduced.spvasm -reduced-transformations reduced.json
//
// When -signature is omitted, the tool first classifies the variant (the
// sequence replayed onto the original, executed on the inputs that replay
// produces) against the target and uses whatever bug signature appears
// (crash signature or "miscompilation"). The reduction is the campaign
// pipeline's own step, service.ReduceStep, so a case reduces here exactly
// as it does in spirvd or gfauto.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"os"

	"spirvfuzz/internal/cli"
	"spirvfuzz/internal/core"
	"spirvfuzz/internal/corpus"
	"spirvfuzz/internal/fuzz"
	"spirvfuzz/internal/harness"
	"spirvfuzz/internal/replay"
	"spirvfuzz/internal/runner"
	"spirvfuzz/internal/service"
	"spirvfuzz/internal/spirv/asm"
	"spirvfuzz/internal/target"
)

func main() {
	in := flag.String("in", "", "original module")
	inputsPath := flag.String("inputs", "", "JSON inputs file (optional)")
	seqPath := flag.String("transformations", "", "bug-inducing transformation sequence (JSON)")
	targetName := flag.String("target", "", "target name (see gfauto -list-targets)")
	signature := flag.String("signature", "", "bug signature; auto-detected when empty")
	out := flag.String("o", "reduced.spvasm", "output reduced variant")
	seqOut := flag.String("reduced-transformations", "reduced.json", "output minimized sequence")
	reportDir := flag.String("report-dir", "", "also export a full bug-report bundle (Section 2.1) to this directory")
	workers := flag.Int("workers", 0, "concurrent target runs; 0 means GOMAXPROCS (results are identical for any value)")
	flag.Parse()

	if *in == "" || *seqPath == "" || *targetName == "" {
		fmt.Fprintln(os.Stderr, "spirv-reduce: -in, -transformations and -target are required")
		flag.Usage()
		os.Exit(2)
	}
	tg := target.ByName(*targetName)
	if tg == nil {
		fatal(fmt.Errorf("unknown target %q", *targetName))
	}
	mod, err := cli.LoadModule(*in)
	fatal(err)
	inputs, err := cli.LoadInputs(*inputsPath, *in)
	fatal(err)
	data, err := os.ReadFile(*seqPath)
	fatal(err)
	seq, err := fuzz.UnmarshalSequence(data)
	fatal(err)

	ctx := context.Background()
	env := service.Env{Eng: runner.New(*workers), Reng: replay.NewEngine(replay.DefaultBudget), Blobs: &service.MemBlobs{}}
	refs := []corpus.Item{{Name: *in, Mod: mod, Inputs: inputs}}
	sig := *signature
	if sig == "" {
		variant, _ := fuzz.ReplayContext(mod, inputs, seq)
		sigs, err := harness.ClassifyAllCtx(ctx, env.Eng, []*target.Target{tg}, mod, variant.Mod, inputs, variant.Inputs)
		fatal(err)
		if sig = sigs[0]; sig == "" {
			fatal(fmt.Errorf("variant triggers no bug on %s; nothing to reduce", tg.Name))
		}
		fmt.Printf("spirv-reduce: detected signature %q\n", sig)
	}

	seqHash, err := env.Blobs.PutBlob(data)
	fatal(err)
	bug := service.BugRef{Target: tg.Name, Signature: sig, Reference: *in, SeqHash: seqHash}
	rec, err := service.ReduceStep(ctx, env, "spirv-reduce", service.CampaignSpec{}, refs,
		service.ReduceCase{Name: service.CaseName("spirv-reduce", bug), Bug: bug})
	if errors.Is(err, core.ErrNotInteresting) {
		fatal(fmt.Errorf("full sequence does not trigger signature %q on %s; check -signature", sig, tg.Name))
	}
	fatal(err)
	st := env.Eng.Stats()
	fmt.Printf("spirv-reduce: %d -> %d transformations in %d queries; delta %d instructions\n",
		len(seq), rec.KeptLen, rec.Queries, rec.Delta)
	fmt.Printf("spirv-reduce: %d workers, %d target runs, %.0f%% cache hit rate\n",
		st.Workers, st.Misses, 100*st.HitRate())
	if rst := env.Reng.Stats(); rst.Queries > 0 {
		fmt.Printf("spirv-reduce: replay cache: %.0f%% prefix hits, mean suffix %.1f of %.1f transformations (%.0f%% replay work saved), %d snapshots (%.1f MiB), %d evictions\n",
			100*rst.HitRate(), rst.MeanSuffix(), rst.MeanRequested(), 100*rst.SavedFraction(),
			rst.Snapshots, float64(rst.Bytes)/(1<<20), rst.Evictions)
	}

	fc, _, err := service.MinimizedVariant(env, refs, rec)
	fatal(err)
	fatal(asm.SaveModule(fc.Mod, *out))
	_, reduced, err := service.LoadReport(env.Blobs, rec.ReportHash)
	fatal(err)
	outSeq, err := fuzz.MarshalSequence(reduced)
	fatal(err)
	fatal(os.WriteFile(*seqOut, outSeq, 0o644))
	if *reportDir != "" {
		fatal(service.ExportBugReport(*reportDir, env, refs, harness.ToolSpirvFuzz, rec))
		fmt.Printf("spirv-reduce: bug-report bundle written to %s\n", *reportDir)
	}
}

func fatal(err error) {
	if err != nil {
		fmt.Fprintln(os.Stderr, "spirv-reduce:", err)
		os.Exit(1)
	}
}
