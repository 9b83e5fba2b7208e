// spirv-reduce minimizes a bug-inducing transformation sequence with delta
// debugging (Section 3.4):
//
//	spirv-reduce -in original.spvasm -inputs inputs.json \
//	    -transformations seq.json -target SwiftShader [-signature SIG] \
//	    -o reduced.spvasm -reduced-transformations reduced.json
//
// When -signature is omitted, the tool first runs the full variant on the
// target and uses whatever bug signature appears (crash signature or
// "miscompilation").
package main

import (
	"flag"
	"fmt"
	"os"

	"spirvfuzz/internal/cli"
	"spirvfuzz/internal/fuzz"
	"spirvfuzz/internal/harness"
	"spirvfuzz/internal/reduce"
	"spirvfuzz/internal/replay"
	"spirvfuzz/internal/runner"
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
	workers := flag.Int("workers", 0, "concurrent ddmin queries; 0 means GOMAXPROCS (results are identical for any value)")
	replayMB := flag.Int64("replay-cache-mb", 64, "prefix-snapshot replay cache budget in MiB; 0 disables incremental replay (results are identical either way)")
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

	eng := runner.New(*workers)
	sig := *signature
	if sig == "" {
		variant, _ := fuzz.Replay(mod, inputs, seq)
		origImg, origCrash := eng.Run(tg, mod, inputs)
		if origCrash != nil {
			fatal(fmt.Errorf("original already crashes on %s: %s", tg.Name, origCrash.Signature))
		}
		img, crash := eng.Run(tg, variant, inputs)
		switch {
		case crash != nil:
			sig = crash.Signature
		case tg.CanRender && img != nil && !img.Equal(origImg):
			sig = target.MiscompilationSignature
		default:
			fatal(fmt.Errorf("variant triggers no bug on %s; nothing to reduce", tg.Name))
		}
		fmt.Printf("spirv-reduce: detected signature %q\n", sig)
	}

	interesting := reduce.ForOutcomeOn(eng, tg, mod, inputs, sig)
	full, _ := fuzz.Replay(mod, inputs, seq)
	if !interesting(full, inputs) {
		fatal(fmt.Errorf("full sequence does not trigger signature %q on %s; check -signature", sig, tg.Name))
	}
	reng := replay.NewEngine(*replayMB << 20)
	res := reduce.ReduceParallelReplay(mod, inputs, seq, interesting, eng.Workers(), reng)
	fatal(asm.SaveModule(res.Variant, *out))
	outSeq, err := fuzz.MarshalSequence(res.Sequence)
	fatal(err)
	fatal(os.WriteFile(*seqOut, outSeq, 0o644))
	st := eng.Stats()
	fmt.Printf("spirv-reduce: %d -> %d transformations in %d queries; delta %d instructions\n",
		len(seq), len(res.Sequence), res.Queries, res.Delta)
	fmt.Printf("spirv-reduce: %d workers, %d target runs, %.0f%% cache hit rate\n",
		st.Workers, st.Misses, 100*st.HitRate())
	if rst := reng.Stats(); rst.Queries > 0 {
		fmt.Printf("spirv-reduce: replay cache: %.0f%% prefix hits, mean suffix %.1f of %.1f transformations (%.0f%% replay work saved), %d snapshots (%.1f MiB), %d evictions\n",
			100*rst.HitRate(), rst.MeanSuffix(), rst.MeanRequested(), 100*rst.SavedFraction(),
			rst.Snapshots, float64(rst.Bytes)/(1<<20), rst.Evictions)
	}
	if *reportDir != "" {
		o := &harness.Outcome{
			Tool: harness.ToolSpirvFuzz, Target: tg.Name, Reference: *in, Seed: 0,
			Signature: sig, Original: mod, Inputs: inputs,
		}
		fatal(harness.ExportBugReport(*reportDir, o, res))
		fmt.Printf("spirv-reduce: bug-report bundle written to %s\n", *reportDir)
	}
}

func fatal(err error) {
	if err != nil {
		fmt.Fprintln(os.Stderr, "spirv-reduce:", err)
		os.Exit(1)
	}
}
