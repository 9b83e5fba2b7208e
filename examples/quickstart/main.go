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

	"spirvfuzz/internal/core"
	"spirvfuzz/internal/corpus"
	"spirvfuzz/internal/fuzz"
	"spirvfuzz/internal/reduce"
	"spirvfuzz/internal/replay"
	"spirvfuzz/internal/runner"
	"spirvfuzz/internal/service"
	"spirvfuzz/internal/target"
)

func main() {
	refs := corpus.References()
	donors := corpus.Donors()
	targets := target.All()
	env := service.Env{Eng: runner.New(1), Reng: replay.NewEngine(0), Blobs: &service.MemBlobs{}}
	spec := service.CampaignSpec{Tests: 500}
	check(spec.Normalize())

	// Test i fuzzes reference i mod len(refs) with seed i; the campaign step
	// classifies the variant against every target and stores the bug's
	// sequence and variant as blobs.
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

	fmt.Println("quickstart: reducing with delta debugging (Section 3.4)...")
	tg := target.ByName(bug.Target)
	interesting := reduce.ForOutcome(tg, item.Mod, item.Inputs, bug.Signature)
	r := reduce.Reduce(item.Mod, item.Inputs, seq, interesting)
	fmt.Printf("  %d -> %d transformations in %d interestingness queries\n",
		len(seq), len(r.Sequence), r.Queries)
	fmt.Printf("  reduced variant: %d instructions; delta vs original: %d instructions\n\n",
		r.Variant.InstructionCount(), r.Delta)

	fmt.Println("quickstart: the minimized transformation sequence:")
	for i, t := range r.Sequence {
		fmt.Printf("  T%d: %s\n", i+1, t.Type())
	}
	types := core.SortedTypes(core.TypeSet(r.Sequence, fuzz.SupportingTypes()))
	fmt.Printf("\nquickstart: deduplication type set (supporting types ignored): %v\n", types)
	fmt.Println("quickstart: report the bug as the pair (original, reduced variant) — both")
	fmt.Println("compute the same image, yet the target treats them differently.")
}

func check(err error) {
	if err != nil {
		log.Fatal(err)
	}
}
