// Bugreport reproduces the Figure 3 scenario: a one-instruction delta
// between an original SPIR-V module and a reduced variant that crashes
// SwiftShader — the DontInline function-control bit. The example prints the
// unified delta a developer would attach to the bug report.
//
//	go run ./examples/bugreport
package main

import (
	"context"
	"fmt"
	"log"
	"strings"

	"spirvfuzz/internal/fuzz"
	"spirvfuzz/internal/interp"
	"spirvfuzz/internal/reduce"
	"spirvfuzz/internal/replay"
	"spirvfuzz/internal/runner"
	"spirvfuzz/internal/spirv"
	"spirvfuzz/internal/target"
	"spirvfuzz/internal/testmod"
)

func main() {
	original := testmod.Caller()
	in := interp.Inputs{W: 8, H: 8}
	sw := target.ByName("SwiftShader")

	// Build a noisy variant: DontInline plus a pile of unrelated
	// transformations, as a fuzzing run would produce.
	ctx := fuzz.NewContext(original.Clone(), in)
	seq := []fuzz.Transformation{
		&fuzz.CopyObject{Fresh: ctx.Mod.Bound, Source: firstConstant(ctx), Block: entryLabel(ctx)},
		&fuzz.SetFunctionControl{Function: ctx.Mod.Functions[0].ID(), Control: 2 /* DontInline */},
		&fuzz.AddTypeInt{Fresh: ctx.Mod.Bound + 1, Width: 32, Signed: false},
	}
	var applied []fuzz.Transformation
	for _, t := range seq {
		if t.Precondition(ctx) {
			t.Apply(ctx)
			applied = append(applied, t)
		}
	}
	variant := ctx.Mod

	if _, crash := sw.Run(original, in); crash != nil {
		log.Fatalf("original crashes: %v", crash)
	}
	_, crash := sw.Run(variant, in)
	if crash == nil {
		log.Fatal("variant does not crash (unexpected)")
	}
	fmt.Printf("SwiftShader crash: %s\n\n", crash.Signature)

	interesting := reduce.ForOutcomeOn(runner.New(1), sw, original, in, crash.Signature)
	r, err := reduce.ReduceParallelReplayCtx(context.Background(), original, in, applied, interesting, 1, replay.NewEngine(replay.DefaultBudget))
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("Reduced from %d to %d transformation(s); ", len(applied), len(r.Sequence))
	fmt.Printf("original %d instructions, reduced variant %d.\n\n",
		original.InstructionCount(), r.Variant.InstructionCount())

	fmt.Println("Delta between original (-) and reduced variant (+), Figure 3 style:")
	printDelta(original.String(), r.Variant.String())
	fmt.Println("\nIt is immediately apparent that the bug relates to the handling of")
	fmt.Println("function calls: the only change is the DontInline function control.")
}

// firstConstant returns some constant id from the module's globals section.
func firstConstant(c *fuzz.Context) spirv.ID {
	for _, ins := range c.Mod.TypesGlobals {
		if ins.Op.IsConstant() {
			return ins.Result
		}
	}
	return 0
}

// entryLabel returns the entry block label of the entry-point function.
func entryLabel(c *fuzz.Context) spirv.ID {
	return c.Mod.EntryPointFunction().Entry().Label
}

// printDelta prints a minimal line diff for listings that differ in-place.
func printDelta(a, b string) {
	al, bl := strings.Split(a, "\n"), strings.Split(b, "\n")
	n := len(al)
	if len(bl) < n {
		n = len(bl)
	}
	for i := 0; i < n; i++ {
		if al[i] != bl[i] {
			fmt.Printf("  - %s\n  + %s\n", al[i], bl[i])
		}
	}
	for i := n; i < len(al); i++ {
		fmt.Printf("  - %s\n", al[i])
	}
	for i := n; i < len(bl); i++ {
		fmt.Printf("  + %s\n", bl[i])
	}
}
