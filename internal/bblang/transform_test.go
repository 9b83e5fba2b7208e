package bblang_test

import (
	"context"
	"math/rand"
	"reflect"
	"testing"

	"spirvfuzz/internal/bblang"
	"spirvfuzz/internal/core"
)

// checkEquivalent asserts that applying ts to a fresh Figure 4 context
// preserves the printed output after every single transformation.
func checkEquivalent(t *testing.T, ts []bblang.Transformation) *bblang.Context {
	t.Helper()
	c := figure4Ctx()
	want := mustRun(t, c)
	for i, tr := range ts {
		if !tr.Precondition(c) {
			t.Fatalf("T%d (%s): precondition does not hold", i+1, tr.Type())
		}
		tr.Apply(c)
		got := mustRun(t, c)
		if !bblang.OutputsEqual(got, want) {
			t.Fatalf("after T%d (%s): output %v, want %v\n%s", i+1, tr.Type(), got, want, c.Prog)
		}
	}
	return c
}

func TestFigure4SequencePreservesOutput(t *testing.T) {
	c := checkEquivalent(t, bblang.Figure4Sequence())

	// Structural checks against the final program of Figure 4.
	p := c.Prog
	if len(p.Blocks) != 3 {
		t.Fatalf("blocks = %d, want 3 (a, c, b)\n%s", len(p.Blocks), p)
	}
	a, b, cBlk := p.Block("a"), p.Block("b"), p.Block("c")
	if a == nil || b == nil || cBlk == nil {
		t.Fatalf("missing blocks:\n%s", p)
	}
	// a: s := i + j; u := k  — T5 rewrote u := true into u := k.
	if got := a.Instrs[1].String(); got != "u := k" {
		t.Errorf("a[1] = %q, want \"u := k\"", got)
	}
	if a.CondVar != "u" || a.True != "b" || a.False != "c" {
		t.Errorf("a terminator = %s ? %s : %s", a.CondVar, a.True, a.False)
	}
	// c: s := i — the store added by T3 into the dead block.
	if got := cBlk.Instrs[0].String(); got != "s := i" {
		t.Errorf("c[0] = %q, want \"s := i\"", got)
	}
	// b: v := s; t := s + s; print(t) — the load added by T4.
	if got := b.Instrs[0].String(); got != "v := s" {
		t.Errorf("b[0] = %q, want \"v := s\"", got)
	}
	if !c.Facts.DeadBlocks["c"] {
		t.Error("fact \"c is dead\" not recorded")
	}
}

func TestSubsequenceSkipsDependents(t *testing.T) {
	// Section 2.1: applying T1,T3,T4,T5 leads to only T1 and T4 applying —
	// T3 needs block c (from T2), T5 needs the u := true assignment.
	ts := bblang.Figure4Sequence()
	c := figure4Ctx()
	applied := core.ApplySubsequence(c, ts, []int{0, 2, 3, 4})
	if !reflect.DeepEqual(applied, []int{0, 3}) {
		t.Fatalf("applied = %v, want [0 3] (T1 and T4)", applied)
	}
	out := mustRun(t, c)
	if !bblang.OutputsEqual(out, []bblang.Value{bblang.Int(6)}) {
		t.Fatalf("output = %v", out)
	}
}

func TestFigure5Reduction(t *testing.T) {
	// Reduce T1..T5 against the Figure 5 bug; the 1-minimal subsequence is
	// T1, T2, T5 (indices 0, 1, 4).
	ts := bblang.Figure4Sequence()
	interesting := func(keep []int) ([]int, bool) {
		c := figure4Ctx()
		applied := core.ApplySubsequence(c, ts, keep)
		return applied, bblang.Figure5Bug(c.Prog)
	}
	got, _, err := core.Reduce(context.Background(), len(ts), interesting)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, []int{0, 1, 4}) {
		t.Fatalf("Reduce = %v, want [0 1 4] (T1, T2, T5)", got)
	}

	// The reduced variant is the program P3 of Figure 5: three blocks, no
	// store in c, no load in b.
	c := figure4Ctx()
	core.ApplySubsequence(c, ts, got)
	p := c.Prog
	if len(p.Block("c").Instrs) != 0 {
		t.Errorf("dead block c should be empty in P3:\n%s", p)
	}
	if got := p.Block("b").Instrs[0].String(); got != "t := s + s" {
		t.Errorf("b[0] = %q, want \"t := s + s\"", got)
	}
	out := mustRun(t, c)
	if !bblang.OutputsEqual(out, []bblang.Value{bblang.Int(6)}) {
		t.Fatalf("reduced variant output = %v", out)
	}
}

func TestSplitBlockPreconditions(t *testing.T) {
	c := figure4Ctx()
	cases := []struct {
		name string
		tr   bblang.SplitBlock
		ok   bool
	}{
		{"valid", bblang.SplitBlock{Block: "a", Offset: 1, Fresh: "b"}, true},
		{"offset at end", bblang.SplitBlock{Block: "a", Offset: 3, Fresh: "b"}, true},
		{"offset beyond end", bblang.SplitBlock{Block: "a", Offset: 4, Fresh: "b"}, false},
		{"negative offset", bblang.SplitBlock{Block: "a", Offset: -1, Fresh: "b"}, false},
		{"missing block", bblang.SplitBlock{Block: "zz", Offset: 0, Fresh: "b"}, false},
		{"non-fresh name", bblang.SplitBlock{Block: "a", Offset: 1, Fresh: "a"}, false},
		{"empty fresh name", bblang.SplitBlock{Block: "a", Offset: 1, Fresh: ""}, false},
	}
	for _, tc := range cases {
		if got := tc.tr.Precondition(c); got != tc.ok {
			t.Errorf("%s: Precondition = %t, want %t", tc.name, got, tc.ok)
		}
	}
}

func TestSplitBlockPropagatesDeadFact(t *testing.T) {
	c := figure4Ctx()
	seq := []bblang.Transformation{
		bblang.SplitBlock{Block: "a", Offset: 1, Fresh: "b"},
		bblang.AddDeadBlock{Block: "a", FreshBlock: "c", FreshVar: "u"},
		bblang.AddStore{Block: "c", Offset: 0, Dst: "s", Src: "i"},
		bblang.SplitBlock{Block: "c", Offset: 1, Fresh: "c2"},
	}
	for _, tr := range seq {
		if err := core.CheckedApply[*bblang.Context](c, tr); err != nil {
			t.Fatal(err)
		}
	}
	if !c.Facts.DeadBlocks["c2"] {
		t.Error("splitting a dead block must mark the tail dead")
	}
	out := mustRun(t, c)
	if !bblang.OutputsEqual(out, []bblang.Value{bblang.Int(6)}) {
		t.Fatalf("output = %v", out)
	}
}

func TestAddDeadBlockPreconditions(t *testing.T) {
	c := figure4Ctx()
	// Original block a halts: no single successor, so AddDeadBlock fails.
	tr := bblang.AddDeadBlock{Block: "a", FreshBlock: "c", FreshVar: "u"}
	if tr.Precondition(c) {
		t.Fatal("AddDeadBlock should require a single-successor block")
	}
	bblang.SplitBlock{Block: "a", Offset: 1, Fresh: "b"}.Apply(c)
	if !tr.Precondition(c) {
		t.Fatal("AddDeadBlock applicable after split")
	}
	if (bblang.AddDeadBlock{Block: "a", FreshBlock: "x", FreshVar: "x"}).Precondition(c) {
		t.Error("fresh block and var must be distinct")
	}
	if (bblang.AddDeadBlock{Block: "a", FreshBlock: "b", FreshVar: "u"}).Precondition(c) {
		t.Error("block name must be fresh")
	}
	if (bblang.AddDeadBlock{Block: "a", FreshBlock: "c", FreshVar: "s"}).Precondition(c) {
		t.Error("variable name must be fresh")
	}
	if (bblang.AddDeadBlock{Block: "a", FreshBlock: "c", FreshVar: "i"}).Precondition(c) {
		t.Error("input names are not fresh")
	}
}

func TestAddLoadRequiresDefiniteAssignment(t *testing.T) {
	c := figure4Ctx()
	// Loading t at a[0] would read an undefined variable: rejected.
	if (bblang.AddLoad{Block: "a", Offset: 0, Fresh: "v", Src: "t"}).Precondition(c) {
		t.Error("load of not-yet-assigned variable must be rejected")
	}
	// Loading input i at a[0] is fine.
	tr := bblang.AddLoad{Block: "a", Offset: 0, Fresh: "v", Src: "i"}
	if !tr.Precondition(c) {
		t.Fatal("load of input variable should be accepted")
	}
	tr.Apply(c)
	out := mustRun(t, c)
	if !bblang.OutputsEqual(out, []bblang.Value{bblang.Int(6)}) {
		t.Fatalf("output = %v", out)
	}
}

func TestAddStoreRequiresDeadFact(t *testing.T) {
	c := figure4Ctx()
	if (bblang.AddStore{Block: "a", Offset: 0, Dst: "s", Src: "i"}).Precondition(c) {
		t.Error("store into a live block must be rejected")
	}
	bblang.SplitBlock{Block: "a", Offset: 1, Fresh: "b"}.Apply(c)
	bblang.AddDeadBlock{Block: "a", FreshBlock: "c", FreshVar: "u"}.Apply(c)
	st := bblang.AddStore{Block: "c", Offset: 0, Dst: "s", Src: "i"}
	if !st.Precondition(c) {
		t.Fatal("store into dead block should be accepted")
	}
	if (bblang.AddStore{Block: "c", Offset: 0, Dst: "nosuch", Src: "i"}).Precondition(c) {
		t.Error("destination variable must exist")
	}
	if (bblang.AddStore{Block: "c", Offset: 5, Dst: "s", Src: "i"}).Precondition(c) {
		t.Error("offset beyond block must be rejected")
	}
}

func TestChangeRHSPreconditions(t *testing.T) {
	c := figure4Ctx()
	bblang.SplitBlock{Block: "a", Offset: 1, Fresh: "b"}.Apply(c)
	bblang.AddDeadBlock{Block: "a", FreshBlock: "c", FreshVar: "u"}.Apply(c)
	// a[1] is u := true; input k is true: applicable.
	tr := bblang.ChangeRHS{Block: "a", Offset: 1, NewVar: "k"}
	if !tr.Precondition(c) {
		t.Fatal("ChangeRHS(a,1,k) should hold")
	}
	// i = 1 is an int, not true: not equal.
	if (bblang.ChangeRHS{Block: "a", Offset: 1, NewVar: "i"}).Precondition(c) {
		t.Error("value mismatch must be rejected")
	}
	// a[0] is s := i + j, not a plain assignment.
	if (bblang.ChangeRHS{Block: "a", Offset: 0, NewVar: "k"}).Precondition(c) {
		t.Error("non-assignment instruction must be rejected")
	}
	tr.Apply(c)
	if got := c.Prog.Block("a").Instrs[1].String(); got != "u := k" {
		t.Fatalf("a[1] = %q", got)
	}
	out := mustRun(t, c)
	if !bblang.OutputsEqual(out, []bblang.Value{bblang.Int(6)}) {
		t.Fatalf("output = %v", out)
	}
}

func TestChangeRHSRejectsReassignedInput(t *testing.T) {
	// If the program assigns to k anywhere, the "guaranteed equal" condition
	// is conservatively rejected.
	p := bblang.Figure4Program()
	p.Blocks[0].Instrs = append(p.Blocks[0].Instrs,
		bblang.Instr{Kind: bblang.Assign, Dst: "k", A: bblang.LitBool(false)},
		bblang.Instr{Kind: bblang.Assign, Dst: "u", A: bblang.LitBool(true)},
	)
	c := bblang.NewContext(p, bblang.Figure4Input())
	if (bblang.ChangeRHS{Block: "a", Offset: 4, NewVar: "k"}).Precondition(c) {
		t.Error("reassigned input variable must be rejected")
	}
}

// TestRandomSequencesPreserveSemantics is the central invariant of the whole
// approach (Definition 2.4): any sequence of transformations whose
// preconditions hold preserves the program's output. It applies hundreds of
// randomly parameterised transformations to the Figure 4 program via
// ApplySequence and checks the output after the fact.
func TestRandomSequencesPreserveSemantics(t *testing.T) {
	for seed := int64(0); seed < 30; seed++ {
		rng := rand.New(rand.NewSource(seed))
		c := figure4Ctx()
		want := mustRun(t, c)
		var applied int
		for step := 0; step < 120; step++ {
			tr := randomTransformation(rng, c, step)
			if tr.Precondition(c) {
				tr.Apply(c)
				applied++
			}
		}
		got, err := bblang.Execute(c.Prog, c.Input)
		if err != nil {
			t.Fatalf("seed %d: variant faults after %d transformations: %v\n%s", seed, applied, err, c.Prog)
		}
		if !bblang.OutputsEqual(got, want) {
			t.Fatalf("seed %d: output %v, want %v after %d transformations\n%s", seed, got, want, applied, c.Prog)
		}
		if applied == 0 {
			t.Fatalf("seed %d: no transformations applied", seed)
		}
	}
}

// randomTransformation builds a transformation with random parameters drawn
// from the current program. Parameters may be invalid; the precondition
// filters them, exactly as the fuzzer's probabilistic passes do.
func randomTransformation(rng *rand.Rand, c *bblang.Context, step int) bblang.Transformation {
	blocks := c.Prog.Blocks
	pick := func() *bblang.Block { return blocks[rng.Intn(len(blocks))] }
	freshB := func() string { return "fb" + itoa(step) }
	freshV := func() string { return "fv" + itoa(step) }
	varNames := []string{"s", "t", "i", "j", "k", "u"}
	anyVar := func() string { return varNames[rng.Intn(len(varNames))] }
	switch rng.Intn(5) {
	case 0:
		b := pick()
		return bblang.SplitBlock{Block: b.Name, Offset: rng.Intn(len(b.Instrs) + 1), Fresh: freshB()}
	case 1:
		return bblang.AddDeadBlock{Block: pick().Name, FreshBlock: freshB(), FreshVar: freshV()}
	case 2:
		b := pick()
		return bblang.AddLoad{Block: b.Name, Offset: rng.Intn(len(b.Instrs) + 1), Fresh: freshV(), Src: anyVar()}
	case 3:
		b := pick()
		return bblang.AddStore{Block: b.Name, Offset: rng.Intn(len(b.Instrs) + 1), Dst: anyVar(), Src: anyVar()}
	default:
		b := pick()
		off := 0
		if len(b.Instrs) > 0 {
			off = rng.Intn(len(b.Instrs))
		}
		return bblang.ChangeRHS{Block: b.Name, Offset: off, NewVar: []string{"i", "j", "k"}[rng.Intn(3)]}
	}
}

func itoa(n int) string {
	if n == 0 {
		return "0"
	}
	var buf [8]byte
	i := len(buf)
	for n > 0 {
		i--
		buf[i] = byte('0' + n%10)
		n /= 10
	}
	return string(buf[i:])
}
