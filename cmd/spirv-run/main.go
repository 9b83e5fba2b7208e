// spirv-run executes a SPIR-V module on the reference interpreter and
// prints the rendered image:
//
//	spirv-run -in shader.spvasm [-inputs inputs.json] [-target Mesa] [-ascii]
//
// With -target, the module is run through the named simulated target's
// compiler first, so crashes and miscompilations can be observed directly.
package main

import (
	"flag"
	"fmt"
	"os"

	"spirvfuzz/internal/cli"
	"spirvfuzz/internal/interp"
	"spirvfuzz/internal/runner"
	"spirvfuzz/internal/target"
)

func main() {
	in := flag.String("in", "", "input module")
	inputsPath := flag.String("inputs", "", "JSON inputs file (optional)")
	targetName := flag.String("target", "", "run via a simulated target instead of the reference interpreter")
	ascii := flag.Bool("ascii", true, "print the image as ASCII art")
	compare := flag.String("compare", "", "second module: render both and exit 4 if the images differ (regression test)")
	workers := flag.Int("workers", 0, "execution-engine worker pool size; 0 means GOMAXPROCS")
	interpEngine := flag.String("interp", "vm", "interpreter engine: vm (compile-once register VM) or tree (tree-walking reference; results are identical)")
	flag.Parse()
	switch *interpEngine {
	case "vm":
		interp.SetTreeWalker(false)
	case "tree":
		interp.SetTreeWalker(true)
	default:
		fatal(fmt.Errorf("unknown -interp engine %q (want vm or tree)", *interpEngine))
	}
	if *in == "" {
		fmt.Fprintln(os.Stderr, "spirv-run: -in is required")
		os.Exit(2)
	}
	m, err := cli.LoadModule(*in)
	fatal(err)
	inputs, err := cli.LoadInputs(*inputsPath, *in)
	fatal(err)
	eng := runner.New(*workers)
	var img *interp.Image
	if *targetName != "" {
		tg := target.ByName(*targetName)
		if tg == nil {
			fatal(fmt.Errorf("unknown target %q", *targetName))
		}
		var crash *target.Crash
		img, crash = eng.Run(tg, m, inputs)
		if crash != nil {
			fmt.Printf("spirv-run: %s crashed: %s\n", tg.Name, crash.Signature)
			os.Exit(3)
		}
		if img == nil {
			fmt.Printf("spirv-run: %s compiled the module successfully (target does not render)\n", tg.Name)
			return
		}
	} else {
		img, err = interp.Render(m, inputs)
		fatal(err)
	}
	if *compare != "" {
		other, err := cli.LoadModule(*compare)
		fatal(err)
		var otherImg *interp.Image
		if *targetName != "" {
			tg := target.ByName(*targetName)
			var crash *target.Crash
			otherImg, crash = eng.Run(tg, other, inputs)
			if crash != nil {
				fmt.Printf("spirv-run: %s crashed on %s: %s\n", *targetName, *compare, crash.Signature)
				os.Exit(3)
			}
		} else {
			otherImg, err = interp.Render(other, inputs)
			fatal(err)
		}
		if !img.Equal(otherImg) {
			fmt.Printf("spirv-run: REGRESSION: images differ in %d pixels (%s vs %s)\n",
				img.DiffCount(otherImg), *in, *compare)
			os.Exit(4)
		}
		fmt.Printf("spirv-run: images identical (%s vs %s), hash %s\n", *in, *compare, img.Hash())
		return
	}
	fmt.Printf("spirv-run: %dx%d image, hash %s\n", img.W, img.H, img.Hash())
	if *ascii {
		fmt.Print(img.ASCII())
	}
}

func fatal(err error) {
	if err != nil {
		fmt.Fprintln(os.Stderr, "spirv-run:", err)
		os.Exit(1)
	}
}
