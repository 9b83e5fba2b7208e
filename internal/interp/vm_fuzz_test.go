package interp_test

import (
	"testing"

	"spirvfuzz/internal/corpus"
	"spirvfuzz/internal/fuzz"
	"spirvfuzz/internal/target"
)

// FuzzVMMatchesTree extends the VM differential to fuzzer-chosen modules:
// it fuzzes a variant of corpus reference ref with the given seed, compiles
// it with target tgt the way that target's toolchain does (its injected
// miscompilations included), and requires the register VM (Compile +
// Program.Render) and the tree-walking reference (RenderTree) to agree on
// the variant and on the compiled module — byte-equal images or faults with
// equal messages. Indices wrap around the corpus and target lists. Seed
// corpus in testdata/fuzz/FuzzVMMatchesTree.
func FuzzVMMatchesTree(f *testing.F) {
	refs := corpus.References()
	donors := corpus.Donors()
	targets := target.All()
	f.Fuzz(func(t *testing.T, ref uint8, seed int64, tgt uint8) {
		item := refs[int(ref)%len(refs)]
		tg := targets[int(tgt)%len(targets)]
		res, err := fuzz.Fuzz(item.Mod, item.Inputs, fuzz.Options{
			Seed:                  seed,
			Donors:                donors,
			EnableRecommendations: true,
			MinPasses:             3,
			MaxPasses:             10,
		})
		if err != nil {
			t.Fatalf("fuzz %s seed %d: %v", item.Name, seed, err)
		}
		assertEnginesAgree(t, item.Name+"/variant", res.Variant, res.Inputs)
		compiled, err := target.SharedCompile(res.Variant, tg.Mutations(res.Variant))
		if err != nil {
			return // the target's compiler fails on it: nothing to render
		}
		assertEnginesAgree(t, item.Name+"/"+tg.Name, compiled, res.Inputs)
	})
}
