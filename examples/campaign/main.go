// Campaign runs a miniature end-to-end evaluation on the campaign steps
// spirvd runs: a fuzzing campaign over all nine simulated targets,
// reduction of the crash bugs found, and transformation-type deduplication
// — the Table 4 pipeline at small scale, in-process.
//
//	go run ./examples/campaign
package main

import (
	"context"
	"fmt"
	"log"

	"spirvfuzz/internal/corpus"
	"spirvfuzz/internal/experiments"
	"spirvfuzz/internal/replay"
	"spirvfuzz/internal/runner"
	"spirvfuzz/internal/service"
	"spirvfuzz/internal/target"
)

func main() {
	ctx := context.Background()
	refs := corpus.References()
	env := service.Env{Eng: runner.New(0), Reng: new(replay.Engine), Blobs: &service.MemBlobs{}}
	spec := service.CampaignSpec{Tests: 60, CapPerSignature: 2}
	check(spec.Normalize())

	fmt.Printf("campaign: %d spirv-fuzz tests against %d targets...\n", spec.Tests, len(spec.Targets))
	camp, err := experiments.RunCampaign(ctx, env, spec, refs, corpus.Donors())
	check(err)
	sigs := map[string]map[string]bool{}
	for _, bugs := range camp.Tests {
		for _, bug := range bugs {
			if sigs[bug.Target] == nil {
				sigs[bug.Target] = map[string]bool{}
			}
			sigs[bug.Target][bug.Signature] = true
		}
	}
	for _, name := range spec.Targets {
		if n := len(sigs[name]); n > 0 {
			fmt.Printf("  %-14s %d distinct signatures\n", name, n)
		}
	}

	fmt.Println("\ncampaign: reducing crash bugs (capped at 2 per signature)...")
	var cases []service.ReduceCase
	reduced := map[string]service.ReducedRec{}
	for _, rc := range service.SelectReductions("example", spec, camp.Tests) {
		if rc.Bug.Signature == target.MiscompilationSignature {
			continue
		}
		rec, err := service.ReduceStep(ctx, env, "example", spec, refs, rc)
		check(err)
		fmt.Printf("  %-14s %-55q  %2d transformations kept in %3d queries, delta %d\n",
			rc.Bug.Target, clip(rc.Bug.Signature, 52), rec.KeptLen, rec.Queries, rec.Delta)
		cases = append(cases, rc)
		reduced[rc.Name] = rec
	}

	fmt.Println("\ncampaign: deduplication buckets per target (Figure 6):")
	buckets, err := service.BuildBuckets("example", spec, cases, reduced)
	check(err)
	covered := map[string]bool{}
	dups := 0
	for _, b := range buckets {
		fmt.Printf("  %-34s types=%v\n", b.Case, b.Types)
		key := b.Target + "|" + b.Signature
		if covered[key] {
			dups++
		}
		covered[key] = true
	}
	truth := map[string]bool{}
	for _, rc := range cases {
		truth[rc.Bug.Target+"|"+rc.Bug.Signature] = true
	}
	fmt.Printf("\ncampaign: %d cases, %d ground-truth signatures; %d reports covering %d distinct (%d duplicates)\n",
		len(cases), len(truth), len(buckets), len(covered), dups)
}

func clip(s string, n int) string {
	if len(s) <= n {
		return s
	}
	return s[:n-1] + "…"
}

func check(err error) {
	if err != nil {
		log.Fatal(err)
	}
}
