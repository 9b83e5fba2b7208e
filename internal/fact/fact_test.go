package fact_test

import (
	"testing"
	"testing/quick"

	"spirvfuzz/internal/fact"
	"spirvfuzz/internal/spirv"
)

func TestSimpleFacts(t *testing.T) {
	s := fact.NewSet()
	if s.IsDeadBlock(5) || s.IsIrrelevant(5) || s.IsIrrelevantPointee(5) || s.IsLiveSafe(5) {
		t.Fatal("empty set must hold no facts")
	}
	s.MarkDeadBlock(5)
	s.MarkIrrelevant(6)
	s.MarkIrrelevantPointee(7)
	s.MarkLiveSafe(8)
	if !s.IsDeadBlock(5) || !s.IsIrrelevant(6) || !s.IsIrrelevantPointee(7) || !s.IsLiveSafe(8) {
		t.Fatal("facts not recorded")
	}
	if s.IsDeadBlock(6) {
		t.Fatal("fact kinds must not bleed into each other")
	}
	if got := s.DeadBlocks(); len(got) != 1 || got[0] != 5 {
		t.Fatalf("DeadBlocks = %v", got)
	}
	if got := s.IrrelevantIDs(); len(got) != 1 || got[0] != 6 {
		t.Fatalf("IrrelevantIDs = %v", got)
	}
	if got := s.IrrelevantPointees(); len(got) != 1 || got[0] != 7 {
		t.Fatalf("IrrelevantPointees = %v", got)
	}
}

func TestSynonymClasses(t *testing.T) {
	s := fact.NewSet()
	a, b, c := fact.A(1), fact.A(2), fact.A(3)
	if s.AreSynonymous(a, b) {
		t.Fatal("no facts yet")
	}
	if !s.AreSynonymous(a, a) {
		t.Fatal("synonymy is reflexive")
	}
	s.AddSynonym(a, b)
	s.AddSynonym(b, c)
	if !s.AreSynonymous(a, c) {
		t.Fatal("synonymy is transitive")
	}
	if !s.AreSynonymous(c, a) {
		t.Fatal("synonymy is symmetric")
	}
	d := fact.A(9)
	if s.AreSynonymous(a, d) {
		t.Fatal("unrelated access")
	}
	syns := s.WholeSynonymsOf(1)
	if len(syns) != 2 {
		t.Fatalf("WholeSynonymsOf(1) = %v", syns)
	}
}

func TestComponentSynonyms(t *testing.T) {
	s := fact.NewSet()
	// Synonymous(v[0], x): component accesses are distinct from whole-value
	// accesses of the same id.
	s.AddSynonym(fact.At(10, 0), fact.A(11))
	if s.AreSynonymous(fact.A(10), fact.A(11)) {
		t.Fatal("whole value must not inherit component synonymy")
	}
	if !s.AreSynonymous(fact.At(10, 0), fact.A(11)) {
		t.Fatal("component synonym lost")
	}
	if s.AreSynonymous(fact.At(10, 1), fact.A(11)) {
		t.Fatal("wrong component")
	}
	// Matrix-style nested paths: Synonymous(a, m[0][1]).
	s.AddSynonym(fact.A(20), fact.At(21, 0, 1))
	if !s.AreSynonymous(fact.At(21, 0, 1), fact.A(20)) {
		t.Fatal("nested path synonym lost")
	}
	if got := s.WholeSynonymsOf(10); len(got) != 0 {
		t.Fatalf("WholeSynonymsOf(10) = %v; component synonyms are not whole", got)
	}
	// SynonymsOf includes components.
	if got := s.SynonymsOf(fact.A(11)); len(got) != 1 || got[0].Key() != "%10[0]" {
		t.Fatalf("SynonymsOf = %v", got)
	}
}

func TestAccessKey(t *testing.T) {
	if fact.A(3).Key() != "%3" {
		t.Fatalf("key = %q", fact.A(3).Key())
	}
	if fact.At(3, 1, 2).Key() != "%3[1][2]" {
		t.Fatalf("key = %q", fact.At(3, 1, 2).Key())
	}
}

func TestCloneIndependence(t *testing.T) {
	s := fact.NewSet()
	s.MarkDeadBlock(1)
	s.AddSynonym(fact.A(2), fact.A(3))
	c := s.Clone()
	c.MarkDeadBlock(4)
	c.AddSynonym(fact.A(3), fact.A(5))
	if s.IsDeadBlock(4) {
		t.Fatal("clone shares dead-block state")
	}
	if s.AreSynonymous(fact.A(2), fact.A(5)) {
		t.Fatal("clone shares synonym state")
	}
	if !c.AreSynonymous(fact.A(2), fact.A(5)) {
		t.Fatal("clone lost its own synonym")
	}
}

// TestSynonymUnionFindProperty: any chain of AddSynonym calls produces an
// equivalence relation (symmetric, transitive, reflexive).
func TestSynonymUnionFindProperty(t *testing.T) {
	prop := func(pairs []uint8) bool {
		s := fact.NewSet()
		for i := 0; i+1 < len(pairs); i += 2 {
			s.AddSynonym(fact.A(spirv.ID(pairs[i]%16+1)), fact.A(spirv.ID(pairs[i+1]%16+1)))
		}
		// Check symmetry and transitivity over the small id universe.
		for x := spirv.ID(1); x <= 16; x++ {
			for y := spirv.ID(1); y <= 16; y++ {
				if s.AreSynonymous(fact.A(x), fact.A(y)) != s.AreSynonymous(fact.A(y), fact.A(x)) {
					return false
				}
				for z := spirv.ID(1); z <= 16; z++ {
					if s.AreSynonymous(fact.A(x), fact.A(y)) && s.AreSynonymous(fact.A(y), fact.A(z)) &&
						!s.AreSynonymous(fact.A(x), fact.A(z)) {
						return false
					}
				}
			}
		}
		return true
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 30}); err != nil {
		t.Fatal(err)
	}
}

// TestStringCanonical: the same facts render the same whatever order they
// were added in, and a differing fact shows.
func TestStringCanonical(t *testing.T) {
	a, b := fact.NewSet(), fact.NewSet()
	a.MarkDeadBlock(7)
	a.MarkLiveSafe(9)
	a.AddSynonym(fact.A(2), fact.A(3))
	a.AddSynonym(fact.A(3), fact.At(4, 1))
	b.AddSynonym(fact.At(4, 1), fact.A(2))
	b.AddSynonym(fact.A(2), fact.A(3))
	b.MarkLiveSafe(9)
	b.MarkDeadBlock(7)
	b.AreSynonymous(fact.A(3), fact.At(4, 1)) // compresses b's paths
	if a.String() != b.String() {
		t.Fatalf("same facts render differently:\n%s\nvs\n%s", a, b)
	}
	want := "dead [7]\nirrelevant []\nirrelevant-pointee []\nlive-safe [9]\nsynonyms %2 %3 %4[1]\n"
	if a.String() != want {
		t.Fatalf("String() = %q, want %q", a, want)
	}
	b.MarkIrrelevant(5)
	if a.String() == b.String() {
		t.Fatal("an added fact does not show")
	}
}
