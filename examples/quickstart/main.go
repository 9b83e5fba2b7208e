// Quickstart: the full transformation-based testing loop in-process —
// fuzz a reference shader until a simulated target misbehaves, minimize the
// transformation sequence with delta debugging, and print the report.
//
//	go run ./examples/quickstart
package main

import (
	"context"
	"fmt"
	"log"

	"spirvfuzz/internal/corpus"
	"spirvfuzz/internal/fuzz"
	"spirvfuzz/internal/replay"
	"spirvfuzz/internal/runner"
	"spirvfuzz/internal/service"
	"spirvfuzz/internal/target"
)

func main() {
	refs := corpus.References()
	donors := corpus.Donors()
	targets := target.All()
	env := service.Env{Eng: runner.New(1), Reng: new(replay.Engine), Blobs: &service.MemBlobs{}}
	spec := service.CampaignSpec{Tests: 500}
	check(spec.Normalize())

	// Test i fuzzes reference i mod len(refs) with seed i; the campaign step
	// classifies the variant against every target and stores the bug's
	// sequence as a blob; replaying it rebuilds the variant.
	fmt.Println("quickstart: fuzzing references until a target misbehaves...")
	var bug *service.BugRef
	for i := 0; i < spec.Tests && bug == nil; i++ {
		bugs, err := service.FuzzStep(context.Background(), env, spec, targets, refs, donors, i)
		check(err)
		if len(bugs) > 0 {
			bug = &bugs[0]
		}
	}
	if bug == nil {
		log.Fatal("no bug found in 500 seeds (unexpected)")
	}
	item := refs[int(bug.Seed)%len(refs)]
	seqData, err := env.Blobs.GetBlob(bug.SeqHash)
	check(err)
	seq, err := fuzz.UnmarshalSequence(seqData)
	check(err)
	variant, _ := fuzz.Replay(item.Mod, item.Inputs, seq)
	fmt.Printf("  seed %d on reference %q triggers %q on target %s\n",
		bug.Seed, bug.Reference, bug.Signature, bug.Target)
	fmt.Printf("  variant: %d instructions (original %d), %d transformations\n\n",
		variant.InstructionCount(), item.Mod.InstructionCount(), len(seq))

	// The campaign's reduce step delta-debugs the sequence and stores the
	// minimized one in a report blob.
	fmt.Println("quickstart: reducing with delta debugging (Section 3.4)...")
	rec, err := service.ReduceStep(context.Background(), env, "quickstart", spec, refs,
		service.ReduceCase{Name: service.CaseName("quickstart", *bug), Bug: *bug})
	check(err)
	reduced, _, err := service.MinimizedVariant(env, refs, rec)
	check(err)
	_, minimized, err := service.LoadReport(env.Blobs, rec.ReportHash)
	check(err)
	fmt.Printf("  %d -> %d transformations in %d interestingness queries\n",
		len(seq), rec.KeptLen, rec.Queries)
	fmt.Printf("  reduced variant: %d instructions; delta vs original: %d instructions\n\n",
		reduced.Mod.InstructionCount(), rec.Delta)

	fmt.Println("quickstart: the minimized transformation sequence:")
	for i, t := range minimized {
		fmt.Printf("  T%d: %s\n", i+1, t.Type())
	}
	fmt.Printf("\nquickstart: deduplication type set (supporting types ignored): %v\n", rec.Types)
	fmt.Println("quickstart: report the bug as the pair (original, reduced variant) — both")
	fmt.Println("compute the same image, yet the target treats them differently.")
}

func check(err error) {
	if err != nil {
		log.Fatal(err)
	}
}
