package opt_test

import (
	"bytes"
	"fmt"
	"testing"

	"spirvfuzz/internal/corpus"
	"spirvfuzz/internal/fuzz"
	"spirvfuzz/internal/interp"
	"spirvfuzz/internal/opt"
	"spirvfuzz/internal/spirv"
	"spirvfuzz/internal/target"
	"spirvfuzz/internal/testmod"
)

// referenceDCE is the recount-per-iteration DCE that opt.DCE replaced: it
// rebuilds the use counts of the whole module on every fixpoint iteration.
// opt.DCE counts once and decrements; both must reach the same module.
func referenceDCE(m *spirv.Module) bool {
	changedAny := false
	for {
		uses := make(map[spirv.ID]int)
		m.ForEachInstruction(func(ins *spirv.Instruction) {
			switch ins.Op {
			case spirv.OpName, spirv.OpMemberName, spirv.OpDecorate, spirv.OpMemberDecorate:
				return // debug info does not keep values alive
			}
			ins.Uses(func(id spirv.ID) { uses[id]++ })
		})
		changed := false
		for _, fn := range m.Functions {
			for _, b := range fn.Blocks {
				kept := b.Body[:0]
				for _, ins := range b.Body {
					dead := ins.Result != 0 && uses[ins.Result] == 0 &&
						!ins.Op.HasSideEffects() && ins.Op != spirv.OpVariable
					if dead {
						changed = true
						continue
					}
					kept = append(kept, ins)
				}
				b.Body = kept
				keptPhis := b.Phis[:0]
				for _, phi := range b.Phis {
					if uses[phi.Result] == 0 {
						changed = true
						continue
					}
					keptPhis = append(keptPhis, phi)
				}
				b.Phis = keptPhis
			}
		}
		changedAny = changedAny || changed
		if !changed {
			break
		}
	}
	if changedAny {
		exists := make(map[spirv.ID]bool)
		m.ForEachInstruction(func(ins *spirv.Instruction) {
			if ins.Result != 0 {
				exists[ins.Result] = true
			}
		})
		for _, fn := range m.Functions {
			for _, b := range fn.Blocks {
				exists[b.Label] = true
			}
		}
		filter := func(list []*spirv.Instruction) []*spirv.Instruction {
			kept := list[:0]
			for _, ins := range list {
				if exists[spirv.ID(ins.Operands[0])] {
					kept = append(kept, ins)
				}
			}
			return kept
		}
		m.Names = filter(m.Names)
		m.Decorations = filter(m.Decorations)
	}
	return changedAny
}

// checkedPipeline is opt.Standard with its DCE pass replaced by one that
// also runs referenceDCE on a clone of the same input and fails t unless
// the encoded modules and the changed flags agree. It returns how many DCE
// runs changed the module.
func checkedPipeline(t *testing.T, what string, m *spirv.Module) (runs, changed int) {
	t.Helper()
	dce := opt.DCE()
	passes := opt.Standard()
	for i, p := range passes {
		if p.Name != dce.Name {
			continue
		}
		passes[i].Run = func(m *spirv.Module) (bool, error) {
			ref := m.Clone()
			wantCh := referenceDCE(ref)
			gotCh, err := dce.Run(m)
			if err != nil {
				return false, err
			}
			if gotCh != wantCh || !bytes.Equal(m.EncodeBytes(), ref.EncodeBytes()) {
				t.Fatalf("%s: DCE run %d: changed=%v, reference changed=%v; modules equal: %v\ngot:\n%s\nreference:\n%s",
					what, runs, gotCh, wantCh, bytes.Equal(m.EncodeBytes(), ref.EncodeBytes()), m, ref)
			}
			runs++
			if gotCh {
				changed++
			}
			return gotCh, nil
		}
	}
	// A pipeline error is a simulated internal compiler error, which the
	// targets report as a crash; the DCE runs before it were still checked.
	_ = opt.Pipeline(m, passes, 0)
	return runs, changed
}

// TestDCEMatchesReference runs opt.DCE against referenceDCE on every DCE
// invocation of the standard pipeline, over fuzzed variants of the corpus
// references and testmod modules, both as fuzzed and after each simulated
// target's miscompiling rewrites.
func TestDCEMatchesReference(t *testing.T) {
	seeds := 8
	if testing.Short() {
		seeds = 2
	}
	type subject struct {
		name string
		mod  *spirv.Module
		in   interp.Inputs
	}
	var subjects []subject
	for _, item := range corpus.References() {
		subjects = append(subjects, subject{item.Name, item.Mod, item.Inputs})
	}
	for name, m := range testmod.All() {
		subjects = append(subjects, subject{"testmod:" + name, m, interp.Inputs{}})
	}
	donors := corpus.Donors()
	var runs, changed int
	for _, s := range subjects {
		for seed := 0; seed < seeds; seed++ {
			res, err := fuzz.Fuzz(s.mod, s.in, fuzz.Options{Seed: int64(seed), Donors: donors, EnableRecommendations: true})
			if err != nil {
				t.Fatalf("%s seed %d: %v", s.name, seed, err)
			}
			// DCE straight on the variant, then inside the pipeline.
			direct := res.Variant.Clone()
			ref := res.Variant.Clone()
			if got, want := mustRun(t, opt.DCE(), direct), referenceDCE(ref); got != want || !bytes.Equal(direct.EncodeBytes(), ref.EncodeBytes()) {
				t.Fatalf("%s seed %d: DCE on the variant differs from the reference (changed %v vs %v)", s.name, seed, got, want)
			}
			r, c := checkedPipeline(t, fmt.Sprintf("%s seed %d", s.name, seed), res.Variant.Clone())
			runs, changed = runs+r, changed+c
			for _, tg := range target.All() {
				m := res.Variant.Clone()
				for _, mu := range tg.Mutations(m) {
					mu.Apply(m)
				}
				r, c := checkedPipeline(t, fmt.Sprintf("%s seed %d on %s", s.name, seed, tg.Name), m)
				runs, changed = runs+r, changed+c
			}
		}
	}
	if changed == 0 || changed == runs {
		t.Fatalf("weak coverage: %d of %d DCE runs changed the module", changed, runs)
	}
	t.Logf("%d DCE runs, %d changed the module", runs, changed)
}

func mustRun(t *testing.T, p opt.Pass, m *spirv.Module) bool {
	t.Helper()
	ch, err := p.Run(m)
	if err != nil {
		t.Fatal(err)
	}
	return ch
}

// TestDCEIdsAboveBound runs opt.DCE on modules whose Bound understates
// their ids (invalid, but decodable): the id-indexed counts must grow, not
// panic, and reach the reference's module.
func TestDCEIdsAboveBound(t *testing.T) {
	donors := corpus.Donors()
	for _, item := range corpus.References() {
		res, err := fuzz.Fuzz(item.Mod, item.Inputs, fuzz.Options{Seed: 1, Donors: donors, EnableRecommendations: true})
		if err != nil {
			t.Fatal(err)
		}
		for _, bound := range []spirv.ID{0, 1, res.Variant.Bound / 2} {
			got, want := res.Variant.Clone(), res.Variant.Clone()
			got.Bound, want.Bound = bound, bound
			if ch, refCh := mustRun(t, opt.DCE(), got), referenceDCE(want); ch != refCh || !bytes.Equal(got.EncodeBytes(), want.EncodeBytes()) {
				t.Fatalf("%s at bound %d: DCE differs from the reference (changed %v vs %v)", item.Name, bound, ch, refCh)
			}
		}
	}
}
