package replay_test

import (
	"bytes"
	"math/rand"
	"sync"
	"testing"

	"spirvfuzz/internal/corpus"
	"spirvfuzz/internal/fuzz"
	"spirvfuzz/internal/interp"
	"spirvfuzz/internal/replay"
	"spirvfuzz/internal/spirv"
)

// sequences fuzzes a few corpus references into transformation sequences the
// tests replay. Built once: generation is the slow part.
var (
	seqOnce sync.Once
	seqs    []seqCase
)

type seqCase struct {
	mod    *spirv.Module
	inputs interp.Inputs
	ts     []fuzz.Transformation
}

func sequences(t *testing.T) []seqCase {
	t.Helper()
	seqOnce.Do(func() {
		donors := corpus.Donors()
		refs := corpus.References()
		for seed := int64(1); seed <= 4; seed++ {
			item := refs[int(seed)%len(refs)]
			res, err := fuzz.Fuzz(item.Mod, item.Inputs, fuzz.Options{
				Seed: seed, Donors: donors, EnableRecommendations: true,
				MinPasses: 20, MaxPasses: 30,
			})
			if err != nil {
				continue
			}
			if len(res.Transformations) >= 8 {
				seqs = append(seqs, seqCase{item.Mod, item.Inputs, res.Transformations})
			}
		}
	})
	if len(seqs) == 0 {
		t.Fatal("fuzzing produced no usable sequences")
	}
	return seqs
}

// randomKeep draws a sorted random subset of [0, n).
func randomKeep(rng *rand.Rand, n int) []int {
	var keep []int
	for i := 0; i < n; i++ {
		if rng.Intn(3) > 0 {
			keep = append(keep, i)
		}
	}
	return keep
}

// mustMatchFresh replays keep through the session and freshly and fails the
// test on any divergence: applied indices, module binary encoding, or inputs.
func mustMatchFresh(t *testing.T, sc seqCase, sess *replay.Session, keep []int) {
	t.Helper()
	got, gotApplied := sess.Replay(keep)
	// The fresh replay uses the session's current transformations so the
	// check also holds after Commit.
	cur := make([]fuzz.Transformation, sess.Len())
	for i := range cur {
		cur[i] = sess.At(i)
	}
	want, wantApplied := fuzz.ReplaySubsequenceContext(sc.mod, sc.inputs, cur, keep)
	if len(gotApplied) != len(wantApplied) {
		t.Fatalf("applied %v, want %v (keep %v)", gotApplied, wantApplied, keep)
	}
	for i := range gotApplied {
		if gotApplied[i] != wantApplied[i] {
			t.Fatalf("applied %v, want %v (keep %v)", gotApplied, wantApplied, keep)
		}
	}
	if !bytes.Equal(got.Mod.EncodeBytes(), want.Mod.EncodeBytes()) {
		t.Fatalf("module diverged for keep %v", keep)
	}
	ge, err1 := interp.EncodeInputs(got.Inputs)
	we, err2 := interp.EncodeInputs(want.Inputs)
	if err1 != nil || err2 != nil || !bytes.Equal(ge, we) {
		t.Fatalf("inputs diverged for keep %v (%v, %v)", keep, err1, err2)
	}
}

// TestReplayMatchesFreshRandomSubsets is the core bitwise-identity property:
// for random transformation sequences and random keep-subsets, a session's
// replay equals fresh ReplaySubsequenceContext exactly. NewEngine ignores its
// budget, so every budget callers pass — the default, a tiny one, zero —
// must replay the same.
func TestReplayMatchesFreshRandomSubsets(t *testing.T) {
	budgets := []struct {
		name   string
		budget int64
	}{
		{"default", replay.DefaultBudget},
		{"tiny", 64 << 10},
		{"disabled", 0},
	}
	for _, b := range budgets {
		t.Run(b.name, func(t *testing.T) {
			rng := rand.New(rand.NewSource(42))
			eng := replay.NewEngine(b.budget)
			for _, sc := range sequences(t) {
				sess := eng.NewSession(sc.mod, sc.inputs, sc.ts)
				for trial := 0; trial < 25; trial++ {
					mustMatchFresh(t, sc, sess, randomKeep(rng, len(sc.ts)))
				}
				// Repeating a keep-set exactly must agree both times.
				keep := randomKeep(rng, len(sc.ts))
				mustMatchFresh(t, sc, sess, keep)
				mustMatchFresh(t, sc, sess, keep)
			}
		})
	}
}

// TestReplayConcurrentMatchesFresh hammers one shared session from many
// goroutines (run under -race) and checks every result against a fresh
// replay computed in the same goroutine.
func TestReplayConcurrentMatchesFresh(t *testing.T) {
	sc := sequences(t)[0]
	eng := new(replay.Engine)
	sess := eng.NewSession(sc.mod, sc.inputs, sc.ts)
	var wg sync.WaitGroup
	errs := make(chan string, 64)
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(100 + g)))
			for trial := 0; trial < 15; trial++ {
				keep := randomKeep(rng, len(sc.ts))
				got, _ := sess.Replay(keep)
				want, _ := fuzz.ReplaySubsequenceContext(sc.mod, sc.inputs, sc.ts, keep)
				if !bytes.Equal(got.Mod.EncodeBytes(), want.Mod.EncodeBytes()) {
					errs <- "module diverged under concurrency"
					return
				}
			}
		}(g)
	}
	wg.Wait()
	close(errs)
	for e := range errs {
		t.Fatal(e)
	}
	if st := eng.Stats(); st.Queries != 8*15 {
		t.Fatalf("counted %d queries, want %d", st.Queries, 8*15)
	}
}

// TestReplayOverrideAndCommit checks the shrink-probe path: overriding one
// slot for a query equals a fresh replay of the modified sequence, the
// override does not leak into subsequent plain replays, and Commit makes it
// permanent.
func TestReplayOverrideAndCommit(t *testing.T) {
	sc := sequences(t)[0]
	eng := new(replay.Engine)
	sess := eng.NewSession(sc.mod, sc.inputs, sc.ts)
	rng := rand.New(rand.NewSource(7))

	keep := make([]int, len(sc.ts))
	for i := range keep {
		keep[i] = i
	}
	mustMatchFresh(t, sc, sess, keep)
	mustMatchFresh(t, sc, sess, randomKeep(rng, len(sc.ts)))

	slot := len(sc.ts) / 2
	override := &fuzz.AddConstantBoolean{Fresh: sc.mod.Bound + 7000, Value: true}

	// Probe with the override: equals fresh replay of the modified sequence.
	got, _ := sess.ReplayOverride(keep, slot, override)
	mod := append([]fuzz.Transformation(nil), sc.ts...)
	mod[slot] = override
	want, _ := fuzz.ReplaySubsequenceContext(sc.mod, sc.inputs, mod, keep)
	if !bytes.Equal(got.Mod.EncodeBytes(), want.Mod.EncodeBytes()) {
		t.Fatal("override probe diverged from fresh replay of modified sequence")
	}

	// The probe must not leak into the unmodified sequence.
	mustMatchFresh(t, sc, sess, keep)

	// Commit, then plain replays must reflect the new transformation.
	sess.Commit(slot, override)
	got2, _ := sess.Replay(keep)
	if !bytes.Equal(got2.Mod.EncodeBytes(), want.Mod.EncodeBytes()) {
		t.Fatal("post-commit replay does not reflect the committed override")
	}
	mustMatchFresh(t, sc, sess, randomKeep(rng, len(sc.ts)))

	// An override at a slot absent from keep degrades to a plain replay.
	partial := keep[:slot]
	got3, _ := sess.ReplayOverride(partial, len(sc.ts)-1, override)
	want3, _ := sess.Replay(partial)
	if !bytes.Equal(got3.Mod.EncodeBytes(), want3.Mod.EncodeBytes()) {
		t.Fatal("override outside keep changed the result")
	}
}

// TestReplayStats checks the counters: every query counts once and adds its
// keep-set size to Applied, override probes included; a nil engine counts
// nothing and still replays.
func TestReplayStats(t *testing.T) {
	sc := sequences(t)[0]
	eng := new(replay.Engine)
	sess := eng.NewSession(sc.mod, sc.inputs, sc.ts)
	rng := rand.New(rand.NewSource(3))
	var want uint64
	for trial := 0; trial < 40; trial++ {
		keep := randomKeep(rng, len(sc.ts))
		want += uint64(len(keep))
		if trial%2 == 0 {
			sess.Replay(keep)
		} else {
			sess.ReplayOverride(keep, len(sc.ts)/2, sc.ts[0])
		}
	}
	st := eng.Stats()
	if st.Queries != 40 || st.Applied != want {
		t.Fatalf("stats %+v, want 40 queries and %d applied", st, want)
	}
	if st.HitRate() != 0 || st.SavedFraction() != 0 {
		t.Fatalf("hit rate %v, saved fraction %v; want 0 without a cache", st.HitRate(), st.SavedFraction())
	}
	var none *replay.Engine
	mustMatchFresh(t, sc, none.NewSession(sc.mod, sc.inputs, sc.ts), randomKeep(rng, len(sc.ts)))
	if st := none.Stats(); st != (replay.Stats{}) {
		t.Fatalf("nil engine stats %+v", st)
	}
}
