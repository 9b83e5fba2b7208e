// Basicblocks walks through Section 2.1 of the paper on the toy "basic
// blocks" language: it applies the transformation sequence of Figure 4,
// shows that every step preserves the printed output, and then reduces the
// sequence against the hypothetical bug of Figure 5, recovering the
// 1-minimal subsequence T1, T2, T5.
//
//	go run ./examples/basicblocks
package main

import (
	"context"
	"fmt"
	"log"

	"spirvfuzz/internal/bblang"
	"spirvfuzz/internal/core"
)

func main() {
	prog := bblang.Figure4Program()
	input := bblang.Figure4Input()
	fmt.Println("Original program (Figure 4), input i=1 j=2 k=true:")
	fmt.Println(indent(prog.String()))
	out, err := bblang.Execute(prog, input)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("Output: %v\n\n", out)

	seq := bblang.Figure4Sequence()
	ctx := bblang.NewContext(prog.Clone(), input)
	names := []string{
		"T1 = SplitBlock(a, 1, b)",
		"T2 = AddDeadBlock(a, c, u)",
		"T3 = AddStore(c, 0, s, i)",
		"T4 = AddLoad(b, 0, v, s)",
		"T5 = ChangeRHS(a, 1, k)",
	}
	for i, t := range seq {
		if err := core.CheckedApply[*bblang.Context](ctx, t); err != nil {
			log.Fatal(err)
		}
		got, err := bblang.Execute(ctx.Prog, ctx.Input)
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("After %s (output still %v):\n%s\n", names[i], got, indent(ctx.Prog.String()))
	}

	fmt.Println("Suppose the final program triggers a compiler bug that needs a dead")
	fmt.Println("block whose deadness is obfuscated (Figure 5). Delta debugging over the")
	fmt.Println("transformation sequence finds the 1-minimal subsequence:")
	interesting := func(keep []int) ([]int, bool) {
		c := bblang.NewContext(prog.Clone(), input)
		applied := core.ApplySubsequence(c, seq, keep)
		return applied, bblang.Figure5Bug(c.Prog)
	}
	kept, st, err := core.Reduce(context.Background(), len(seq), interesting)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("  kept transformations: %v (after %d interestingness queries)\n", labels(kept), st.Queries)

	final := bblang.NewContext(prog.Clone(), input)
	core.ApplySubsequence(final, seq, kept)
	fmt.Println("\nReduced variant (P3 of Figure 5):")
	fmt.Println(indent(final.Prog.String()))
	got, _ := bblang.Execute(final.Prog, final.Input)
	fmt.Printf("Output: %v — still equivalent to the original.\n", got)
}

func labels(kept []int) []string {
	out := make([]string, len(kept))
	for i, k := range kept {
		out[i] = fmt.Sprintf("T%d", k+1)
	}
	return out
}

func indent(s string) string {
	out := ""
	for _, line := range splitLines(s) {
		out += "    " + line + "\n"
	}
	return out
}

func splitLines(s string) []string {
	var lines []string
	cur := ""
	for _, r := range s {
		if r == '\n' {
			lines = append(lines, cur)
			cur = ""
			continue
		}
		cur += string(r)
	}
	if cur != "" {
		lines = append(lines, cur)
	}
	return lines
}
