// spirv-dedup applies the deduplication heuristics of Section 3.5 to a
// directory of reduced test cases:
//
//	spirv-dedup -dir reduced-cases/ [-signal transform|bisect|both]
//
// Each *.json file in the directory must contain
//
//	{"signature": "...", "transformations": [...]}
//
// where transformations is a minimized sequence as written by spirv-reduce.
// The default transform signal is the Figure 6 heuristic: the tool prints
// the test cases recommended for manual investigation, and no two
// recommendations for one target share a (non-supporting) transformation
// type.
//
// Report-shaped files — the blobs spirvd serves under /reports/{hash} —
// additionally carry
//
//	{"target": "...", "reference": "...", "delta": N}
//
// naming the simulated target and the reference-corpus item the case was
// fuzzed from. Every signal deduplicates per target, exactly as spirvd
// buckets a campaign (service.BucketCases); files without a target form
// one group. The bisect signal buckets cases by (target, first bad release)
// instead: each case is replayed against its reference module and bisected
// over the target's release history, so it needs report-shaped files. The
// both signal intersects the two: the transform heuristic runs within each
// bisection bucket, suppressing a report only when both signals agree it is
// a duplicate.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strings"

	"spirvfuzz/internal/bisect"
	"spirvfuzz/internal/corpus"
	"spirvfuzz/internal/fuzz"
	"spirvfuzz/internal/runner"
	"spirvfuzz/internal/service"
)

type caseFile struct {
	Signature       string          `json:"signature"`
	Target          string          `json:"target"`
	Reference       string          `json:"reference"`
	Delta           int             `json:"delta"`
	Transformations json.RawMessage `json:"transformations"`
}

func main() {
	dir := flag.String("dir", "", "directory of reduced test-case JSON files")
	signalFlag := flag.String("signal", "transform", "dedup signal: transform, bisect, or both (intersection)")
	showTypes := flag.Bool("types", false, "print each recommendation's transformation-type set")
	asJSON := flag.Bool("json", false, "emit the result as JSON (the shape spirvd serves: a bucket set for the transform signal, a bisect set otherwise)")
	flag.Parse()
	if *dir == "" {
		fmt.Fprintln(os.Stderr, "spirv-dedup: -dir is required")
		flag.Usage()
		os.Exit(2)
	}
	signals := map[string]string{
		"transform": service.SignalTransform,
		"bisect":    service.SignalBisect,
		"both":      service.SignalIntersection,
	}
	signal, ok := signals[*signalFlag]
	if !ok {
		fatal(fmt.Errorf("unknown -signal %q: want transform, bisect or both", *signalFlag))
	}
	entries, err := os.ReadDir(*dir)
	fatal(err)
	// Each file is a case named by its file name, in name order (ReadDir
	// sorts), and stored in an in-memory blob store: its content hash is the
	// report hash spirvd would address it by.
	var blobs service.MemBlobs
	var recs []service.ReducedRec
	references := map[string]string{}
	for _, e := range entries {
		if e.IsDir() || !strings.HasSuffix(e.Name(), ".json") {
			continue
		}
		data, err := os.ReadFile(filepath.Join(*dir, e.Name()))
		fatal(err)
		var cf caseFile
		fatal(json.Unmarshal(data, &cf))
		seq, err := fuzz.UnmarshalSequence(cf.Transformations)
		fatal(err)
		hash, err := blobs.PutBlob(data)
		fatal(err)
		recs = append(recs, service.ReducedRec{
			Case:       e.Name(),
			Target:     cf.Target,
			Signature:  cf.Signature,
			ReportHash: hash,
			Types:      service.ResidualTypes(seq),
			KeptLen:    len(seq),
			Delta:      cf.Delta,
		})
		references[e.Name()] = cf.Reference
	}
	if len(recs) == 0 {
		fatal(fmt.Errorf("no .json test cases in %s", *dir))
	}

	var outcomes []service.BisectOutcome
	byCase := map[string]service.BisectOutcome{}
	if signal != service.SignalTransform {
		env := service.Env{Blobs: &blobs}
		beng := bisect.New(runner.New(0))
		corpusRefs := corpus.References()
		for _, rec := range recs {
			if rec.Target == "" || references[rec.Case] == "" {
				fatal(fmt.Errorf("%s: the bisect signal needs report-shaped cases with target and reference fields", rec.Case))
			}
			out, err := service.BisectStep(context.Background(), env, beng, corpusRefs, rec)
			if err != nil {
				fatal(fmt.Errorf("%s: %w", rec.Case, err))
			}
			outcomes = append(outcomes, out)
			byCase[rec.Case] = out
		}
	}
	bucketsOf := func(s string) []service.Bucket {
		buckets, err := service.BucketCases(s, recs, byCase)
		fatal(err)
		return buckets
	}
	recommended := bucketsOf(signal)

	if *asJSON {
		var v any = service.BucketSet{Campaign: filepath.Base(*dir), Buckets: recommended}
		if signal != service.SignalTransform {
			v = service.BisectSet{
				Job:                 *signalFlag,
				Campaign:            filepath.Base(*dir),
				Outcomes:            outcomes,
				TransformBuckets:    len(bucketsOf(service.SignalTransform)),
				BisectBuckets:       len(bucketsOf(service.SignalBisect)),
				IntersectionBuckets: len(bucketsOf(service.SignalIntersection)),
			}
		}
		out, err := json.MarshalIndent(v, "", "  ")
		fatal(err)
		fmt.Println(string(out))
		return
	}
	if signal == service.SignalTransform {
		fmt.Printf("spirv-dedup: %d test cases -> %d recommended for investigation\n", len(recs), len(recommended))
	} else {
		fmt.Printf("spirv-dedup: %d test cases -> %d recommended for investigation (%s signal)\n", len(recs), len(recommended), *signalFlag)
	}
	for _, b := range recommended {
		if signal == service.SignalTransform {
			fmt.Printf("  %s\n", b.Case)
		} else {
			fmt.Printf("  %s (first bad %s)\n", b.Case, service.BisectKey(b.Target, byCase[b.Case].FirstBad))
		}
		if *showTypes {
			fmt.Printf("    types: %s\n", strings.Join(b.Types, ", "))
		}
	}
}

func fatal(err error) {
	if err != nil {
		fmt.Fprintln(os.Stderr, "spirv-dedup:", err)
		os.Exit(1)
	}
}
