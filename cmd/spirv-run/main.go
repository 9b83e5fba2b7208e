// spirv-run executes a SPIR-V module on the reference interpreter and
// prints the rendered image:
//
//	spirv-run -in shader.spvasm [-inputs inputs.json] [-target Mesa] [-ascii] [-compare other.spvasm]
//
// With -target, the module is run through the named simulated target's
// compiler first, so crashes and miscompilations can be observed directly.
// With -compare, the second module runs the same way and the two images are
// compared; a target that does not render still compiles both modules.
package main

import (
	"flag"
	"fmt"
	"os"

	"spirvfuzz/internal/cli"
	"spirvfuzz/internal/interp"
	"spirvfuzz/internal/spirv"
	"spirvfuzz/internal/target"
)

func main() {
	in := flag.String("in", "", "input module")
	inputsPath := flag.String("inputs", "", "JSON inputs file (optional)")
	targetName := flag.String("target", "", "run via a simulated target instead of the reference interpreter")
	ascii := flag.Bool("ascii", true, "print the image as ASCII art")
	compare := flag.String("compare", "", "second module: render both and exit 4 if the images differ (regression test)")
	flag.Parse()
	if *in == "" {
		fmt.Fprintln(os.Stderr, "spirv-run: -in is required")
		os.Exit(2)
	}
	m, err := cli.LoadModule(*in)
	fatal(err)
	inputs, err := cli.LoadInputs(*inputsPath, *in)
	fatal(err)
	var tg *target.Target
	if *targetName != "" {
		if tg = target.ByName(*targetName); tg == nil {
			fatal(fmt.Errorf("unknown target %q", *targetName))
		}
	}
	// execute runs one module on the reference interpreter or through tg,
	// exiting 3 if tg crashes. The image is nil for a target that compiles
	// the module but does not render.
	execute := func(m *spirv.Module, crashedOn string) *interp.Image {
		if tg == nil {
			img, err := interp.Render(m, inputs)
			fatal(err)
			return img
		}
		img, crash := tg.Run(m, inputs)
		if crash != nil {
			fmt.Printf("spirv-run: %s crashed%s: %s\n", tg.Name, crashedOn, crash.Signature)
			os.Exit(3)
		}
		return img
	}
	img := execute(m, "")
	if *compare != "" {
		other, err := cli.LoadModule(*compare)
		fatal(err)
		otherImg := execute(other, " on "+*compare)
		if img == nil {
			fmt.Printf("spirv-run: %s compiled both modules successfully (target does not render; no images to compare)\n", tg.Name)
			return
		}
		if !img.Equal(otherImg) {
			fmt.Printf("spirv-run: REGRESSION: images differ in %d pixels (%s vs %s)\n",
				img.DiffCount(otherImg), *in, *compare)
			os.Exit(4)
		}
		fmt.Printf("spirv-run: images identical (%s vs %s), hash %s\n", *in, *compare, img.Hash())
		return
	}
	if img == nil {
		fmt.Printf("spirv-run: %s compiled the module successfully (target does not render)\n", tg.Name)
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
