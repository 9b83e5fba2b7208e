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
// recommendations share a (non-supporting) transformation type.
//
// The bisect signal buckets cases by (target, first bad release) instead:
// each case is replayed against its reference module and bisected over the
// target's release history. It needs report-shaped files — the blobs spirvd
// serves under /reports/{hash} — which additionally carry
//
//	{"target": "...", "reference": "..."}
//
// naming the simulated target and the reference-corpus item the case was
// fuzzed from. The both signal intersects the two: the transform heuristic
// runs within each bisection bucket, suppressing a report only when both
// signals agree it is a duplicate.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strings"

	"spirvfuzz/internal/bisect"
	"spirvfuzz/internal/core"
	"spirvfuzz/internal/corpus"
	"spirvfuzz/internal/dedup"
	"spirvfuzz/internal/fuzz"
	"spirvfuzz/internal/runner"
	"spirvfuzz/internal/service"
	"spirvfuzz/internal/store"
)

type caseFile struct {
	Signature       string          `json:"signature"`
	Target          string          `json:"target"`
	Reference       string          `json:"reference"`
	Transformations json.RawMessage `json:"transformations"`
}

func main() {
	dir := flag.String("dir", "", "directory of reduced test-case JSON files")
	signal := flag.String("signal", "transform", "dedup signal: transform, bisect, or both (intersection)")
	showTypes := flag.Bool("types", false, "print each recommendation's transformation-type set")
	asJSON := flag.Bool("json", false, "emit the result as JSON (the shape spirvd serves: a bucket set for the transform signal, a bisect set otherwise)")
	flag.Parse()
	if *dir == "" {
		fmt.Fprintln(os.Stderr, "spirv-dedup: -dir is required")
		flag.Usage()
		os.Exit(2)
	}
	if *signal != "transform" && *signal != "bisect" && *signal != "both" {
		fatal(fmt.Errorf("unknown -signal %q: want transform, bisect or both", *signal))
	}
	entries, err := os.ReadDir(*dir)
	fatal(err)
	var cases []dedup.Case
	files := map[string]caseFile{}
	// Content addresses of the case files, keyed by case name; with -json
	// they are reported as report hashes, matching spirvd's blob addressing.
	hashes := map[string]string{}
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
		cases = append(cases, dedup.Case{Name: e.Name(), Sequence: seq, Signature: cf.Signature})
		files[e.Name()] = cf
		hashes[e.Name()] = store.HashBytes(data)
	}
	sort.Slice(cases, func(i, j int) bool { return cases[i].Name < cases[j].Name })
	if len(cases) == 0 {
		fatal(fmt.Errorf("no .json test cases in %s", *dir))
	}
	ignore := fuzz.SupportingTypes()

	if *signal == "transform" {
		recommended := dedup.Recommend(cases)
		if *asJSON {
			set := service.BucketSet{Campaign: filepath.Base(*dir), Buckets: []service.Bucket{}}
			for _, c := range recommended {
				set.Buckets = append(set.Buckets, service.Bucket{
					Case:        c.Name,
					Signature:   c.Signature,
					Types:       core.SortedTypes(core.TypeSet(c.Sequence, ignore)),
					SequenceLen: len(c.Sequence),
					ReportHash:  hashes[c.Name],
				})
			}
			out, err := json.MarshalIndent(set, "", "  ")
			fatal(err)
			fmt.Println(string(out))
			return
		}
		fmt.Printf("spirv-dedup: %d test cases -> %d recommended for investigation\n", len(cases), len(recommended))
		for _, c := range recommended {
			fmt.Printf("  %s\n", c.Name)
			if *showTypes {
				types := core.SortedTypes(core.TypeSet(c.Sequence, ignore))
				fmt.Printf("    types: %s\n", strings.Join(types, ", "))
			}
		}
		return
	}

	bcases, outcomes := bisectCases(cases, files)
	var recommended []dedup.BisectCase
	if *signal == "bisect" {
		recommended = dedup.RecommendBisect(bcases)
	} else {
		recommended = dedup.RecommendIntersection(bcases)
	}
	if *asJSON {
		plain := make([]dedup.Case, len(bcases))
		for i, bc := range bcases {
			plain[i] = bc.Case
		}
		set := service.BisectSet{
			Job:                 *signal,
			Campaign:            filepath.Base(*dir),
			Outcomes:            outcomes,
			TransformBuckets:    len(dedup.Recommend(plain)),
			BisectBuckets:       len(dedup.RecommendBisect(bcases)),
			IntersectionBuckets: len(dedup.RecommendIntersection(bcases)),
		}
		out, err := json.MarshalIndent(set, "", "  ")
		fatal(err)
		fmt.Println(string(out))
		return
	}
	fmt.Printf("spirv-dedup: %d test cases -> %d recommended for investigation (%s signal)\n", len(cases), len(recommended), *signal)
	for _, c := range recommended {
		fmt.Printf("  %s (first bad %s@%s)\n", c.Name, c.Target, c.FirstBad)
		if *showTypes {
			types := core.SortedTypes(core.TypeSet(c.Sequence, ignore))
			fmt.Printf("    types: %s\n", strings.Join(types, ", "))
		}
	}
}

// bisectCases replays every case against its reference module and bisects it
// over the target's release history. The input is sorted by name, bisection
// verdicts are deterministic, and both facts together make every downstream
// recommendation deterministic too.
func bisectCases(cases []dedup.Case, files map[string]caseFile) ([]dedup.BisectCase, []service.BisectOutcome) {
	refs := map[string]corpus.Item{}
	for _, it := range corpus.References() {
		refs[it.Name] = it
	}
	eng := runner.New(0)
	beng := bisect.New(eng)
	bcases := make([]dedup.BisectCase, 0, len(cases))
	outcomes := make([]service.BisectOutcome, 0, len(cases))
	for _, c := range cases {
		cf := files[c.Name]
		if cf.Target == "" || cf.Reference == "" {
			fatal(fmt.Errorf("%s: the bisect signal needs report-shaped cases with target and reference fields", c.Name))
		}
		item, ok := refs[cf.Reference]
		if !ok {
			fatal(fmt.Errorf("%s: unknown reference corpus item %q", c.Name, cf.Reference))
		}
		fc, _ := fuzz.ReplayContext(item.Mod, item.Inputs, c.Sequence)
		res, err := beng.Bisect(bisect.Case{
			Target:         cf.Target,
			Signature:      c.Signature,
			Original:       item.Mod,
			OriginalInputs: item.Inputs,
			Variant:        fc.Mod,
			Inputs:         fc.Inputs,
		})
		if err != nil {
			fatal(fmt.Errorf("%s: %w", c.Name, err))
		}
		bcases = append(bcases, dedup.BisectCase{Case: c, Target: cf.Target, FirstBad: res.FirstBad})
		outcomes = append(outcomes, service.BisectOutcome{
			Case:      c.Name,
			Target:    cf.Target,
			Signature: c.Signature,
			FirstBad:  res.FirstBad,
			Queries:   res.Queries,
			CacheHits: res.CacheHits,
		})
	}
	return bcases, outcomes
}

func fatal(err error) {
	if err != nil {
		fmt.Fprintln(os.Stderr, "spirv-dedup:", err)
		os.Exit(1)
	}
}
