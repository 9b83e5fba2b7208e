// Inputsync demonstrates the paper's first future-work item, implemented as
// an extension: a transformation that modifies a SPIR-V module *and its
// input in sync*. ScaleUniform doubles a uniform's value in the input file
// and compensates every load in the module with an exact ×0.5, so the
// variant renders the same image — on its own inputs — as the original does
// on the original inputs.
//
//	go run ./examples/inputsync
package main

import (
	"context"
	"fmt"
	"log"

	"spirvfuzz/internal/cli"
	"spirvfuzz/internal/core"
	"spirvfuzz/internal/fuzz"
	"spirvfuzz/internal/interp"
	"spirvfuzz/internal/spirv"
)

func main() {
	item, err := cli.CorpusItem("matrix1")
	if err != nil {
		log.Fatal(err)
	}
	want, err := interp.Render(item.Mod, item.Inputs)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("original: uniform u_one = %v, image hash %s\n",
		item.Inputs.Uniforms["u_one"], want.Hash())

	ctx := fuzz.NewContext(item.Mod.Clone(), item.Inputs)
	m := ctx.Mod

	// Obfuscate a constant through the uniform first (so there is a load to
	// compensate), then scale.
	var uniformVar spirv.ID
	for _, ins := range m.TypesGlobals {
		if ins.Op == spirv.OpVariable && ins.Operands[0] == spirv.StorageUniformConstant {
			if v, ok := ctx.UniformValue(ins.Result); ok && v.Kind == interp.KindFloat && v.F == 1 {
				uniformVar = ins.Result
			}
		}
	}
	fn := m.EntryPointFunction()
	var user *spirv.Instruction
	var opIdx int
	for _, b := range fn.Blocks {
		for _, ins := range b.Body {
			for _, oi := range ins.IDOperandIndices() {
				if ins.Result != 0 && ctx.ConstantMatchesValue(spirv.ID(ins.Operands[oi]), interp.FloatVal(1)) {
					user, opIdx = ins, oi
				}
			}
		}
	}
	if user == nil || uniformVar == 0 {
		log.Fatal("no obfuscation opportunity found")
	}
	half := m.EnsureConstantFloat(0.5) // allocate before reserving fresh ids
	freshLoad := m.Bound
	seq := []fuzz.Transformation{
		&fuzz.ReplaceConstantWithUniform{User: user.Result, OperandIndex: opIdx, UniformVar: uniformVar, FreshLoad: freshLoad},
		&fuzz.ScaleUniform{UniformVar: uniformVar, HalfConst: half,
			FreshIDs: map[spirv.ID]spirv.ID{freshLoad: freshLoad + 1}},
	}
	applied := core.ApplySequence(ctx, seq)
	if len(applied) != 2 {
		log.Fatalf("applied %v", applied)
	}

	got, err := interp.Render(ctx.Mod, ctx.Inputs)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("variant:  uniform u_one = %v (doubled in the input), image hash %s\n",
		ctx.Inputs.Uniforms["u_one"], got.Hash())
	if !got.Equal(want) {
		log.Fatal("images differ — extension broken")
	}
	fmt.Println("images identical: the module and its input changed together,")
	fmt.Println("so Semantics(P', I') = Semantics(P, I) exactly (Definition 2.4).")

	// And the reducer can still strip the pair: if the bug only needs the
	// obfuscation, ScaleUniform is dropped; if it needs neither, both go.
	bug := func(mod *spirv.Module) bool { // pretend the obfuscated load is the trigger
		found := false
		mod.ForEachInstruction(func(ins *spirv.Instruction) {
			if ins.Op == spirv.OpLoad && ins.IDOperand(0) == uniformVar {
				found = true
			}
		})
		return found
	}
	kept, _, err := core.Reduce(context.Background(), len(seq), func(keep []int) bool {
		c2, _ := fuzz.ReplaySubsequenceContext(item.Mod, item.Inputs, seq, keep)
		return bug(c2.Mod)
	}, 1)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("reduction against a load-triggered bug keeps %d of %d transformations\n", len(kept), len(seq))
}
