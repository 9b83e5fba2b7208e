package core_test

import (
	"context"
	"errors"
	"reflect"
	"sort"
	"testing"
	"testing/quick"

	"spirvfuzz/internal/core"
)

// counter is a trivial context: a slice of applied labels.
type counter struct{ applied []string }

// labelT appends its label when its guard passes.
type labelT struct {
	label string
	guard func(*counter) bool
}

func (t labelT) Type() string { return t.label }
func (t labelT) Precondition(c *counter) bool {
	if t.guard == nil {
		return true
	}
	return t.guard(c)
}
func (t labelT) Apply(c *counter) { c.applied = append(c.applied, t.label) }

func always(label string) core.Transformation[*counter] { return labelT{label: label} }

// after returns a transformation applicable only once dep has been applied,
// modelling a precondition that depends on an earlier transformation.
func after(label, dep string) core.Transformation[*counter] {
	return labelT{label: label, guard: func(c *counter) bool {
		for _, l := range c.applied {
			if l == dep {
				return true
			}
		}
		return false
	}}
}

func TestApplySequenceAppliesAll(t *testing.T) {
	c := &counter{}
	ts := []core.Transformation[*counter]{always("a"), always("b"), always("c")}
	applied := core.ApplySequence(c, ts)
	if !reflect.DeepEqual(applied, []int{0, 1, 2}) {
		t.Fatalf("applied = %v, want [0 1 2]", applied)
	}
	if !reflect.DeepEqual(c.applied, []string{"a", "b", "c"}) {
		t.Fatalf("labels = %v", c.applied)
	}
}

func TestApplySequenceSkipsFailedPreconditions(t *testing.T) {
	// Definition 2.5: transformations whose preconditions fail are skipped,
	// not errors. "b after z" can never fire since z never appears.
	c := &counter{}
	ts := []core.Transformation[*counter]{always("a"), after("b", "z"), after("d", "a")}
	applied := core.ApplySequence(c, ts)
	if !reflect.DeepEqual(applied, []int{0, 2}) {
		t.Fatalf("applied = %v, want [0 2]", applied)
	}
}

func TestApplySubsequenceRespectsDependencies(t *testing.T) {
	// The Section 2.1 reducer example: applying the subsequence T1,T3,T4,T5
	// leads to only T1 and T4 being applied when T3 and T5 depend on T2.
	ts := []core.Transformation[*counter]{
		always("T1"),
		after("T2", "T1"),
		after("T3", "T2"),
		after("T4", "T1"),
		after("T5", "T2"),
	}
	c := &counter{}
	applied := core.ApplySubsequence(c, ts, []int{0, 2, 3, 4})
	if !reflect.DeepEqual(applied, []int{0, 3}) {
		t.Fatalf("applied = %v, want [0 3]", applied)
	}
}

func TestCheckedApply(t *testing.T) {
	c := &counter{}
	if err := core.CheckedApply(c, always("a")); err != nil {
		t.Fatalf("CheckedApply(always) = %v", err)
	}
	if err := core.CheckedApply(c, after("b", "zzz")); err == nil {
		t.Fatal("CheckedApply on failed precondition: want error, got nil")
	}
}

func TestTypeSet(t *testing.T) {
	ts := []core.Transformation[*counter]{always("a"), always("b"), always("a"), always("c")}
	got := core.TypeSet(ts, map[string]bool{"c": true})
	want := map[string]bool{"a": true, "b": true}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("TypeSet = %v, want %v", got, want)
	}
}

func TestReduceFindsMinimalSubset(t *testing.T) {
	// Bug triggers iff indices 3, 82 and 105 are all present (the Figure 2
	// example). Reduce must return exactly those.
	needed := []int{3, 82, 105}
	test := func(keep []int) bool {
		found := 0
		for _, k := range keep {
			for _, n := range needed {
				if k == n {
					found++
				}
			}
		}
		return found == len(needed)
	}
	got, stats := reduce(t, 120, test)
	if !reflect.DeepEqual(got, needed) {
		t.Fatalf("Reduce = %v, want %v", got, needed)
	}
	if stats.Queries == 0 {
		t.Fatal("stats.Queries = 0")
	}
}

// reduce runs core.Reduce serially and fails the test on an error.
func reduce(t *testing.T, n int, test core.Interestingness) ([]int, core.ReduceStats) {
	t.Helper()
	kept, stats, err := core.Reduce(context.Background(), n, test, 1)
	if err != nil {
		t.Fatal(err)
	}
	return kept, stats
}

func TestReduceEmptyAndSingleton(t *testing.T) {
	got, stats := reduce(t, 0, func(keep []int) bool { return true })
	if len(got) != 0 || stats.Queries != 1 {
		t.Fatalf("Reduce(0) = %v after %d queries", got, stats.Queries)
	}
	// A single necessary transformation is kept.
	got, _ = reduce(t, 1, func(keep []int) bool { return len(keep) == 1 })
	if !reflect.DeepEqual(got, []int{0}) {
		t.Fatalf("Reduce(1) = %v", got)
	}
	// A single unnecessary transformation is removed.
	got, _ = reduce(t, 1, func(keep []int) bool { return true })
	if len(got) != 0 {
		t.Fatalf("Reduce(1, always) = %v", got)
	}
}

// TestReduceRejectsUninterestingInput: a full sequence that fails the test
// is an error after exactly one query, at every length and worker count,
// the empty sequence included.
func TestReduceRejectsUninterestingInput(t *testing.T) {
	for _, n := range []int{0, 1, 4} {
		for _, workers := range []int{1, 4} {
			queries := 0
			kept, stats, err := core.Reduce(context.Background(), n, func(keep []int) bool {
				queries++
				return false
			}, workers)
			if !errors.Is(err, core.ErrNotInteresting) {
				t.Fatalf("n=%d workers=%d: err = %v, want ErrNotInteresting", n, workers, err)
			}
			if queries != 1 || stats.Queries != 1 || kept != nil {
				t.Fatalf("n=%d workers=%d: %d queries (stats %d), kept %v", n, workers, queries, stats.Queries, kept)
			}
		}
	}
}

func TestReduceOneMinimalProperty(t *testing.T) {
	// Property: for a monotone interestingness test (a random required
	// subset), the result equals the required subset and is 1-minimal.
	prop := func(seed uint32, size uint8) bool {
		n := int(size%50) + 1
		req := map[int]bool{}
		s := seed
		for i := 0; i < n; i++ {
			s = s*1664525 + 1013904223
			if s%4 == 0 {
				req[i] = true
			}
		}
		test := func(keep []int) bool {
			have := map[int]bool{}
			for _, k := range keep {
				have[k] = true
			}
			for r := range req {
				if !have[r] {
					return false
				}
			}
			return true
		}
		got, _ := reduce(t, n, test)
		if len(got) != len(req) {
			return false
		}
		for _, g := range got {
			if !req[g] {
				return false
			}
		}
		// 1-minimality: removing any single kept index breaks the test.
		for i := range got {
			cand := append(append([]int{}, got[:i]...), got[i+1:]...)
			if test(cand) {
				return false
			}
		}
		return sort.IntsAreSorted(got)
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func TestReduceNonMonotone(t *testing.T) {
	// A non-monotone test (parity) must still terminate with a 1-minimal
	// result, even though it is not globally minimal.
	test := func(keep []int) bool { return len(keep)%2 == 1 }
	got, _ := reduce(t, 7, test)
	if len(got)%2 != 1 {
		t.Fatalf("result %v does not satisfy the test", got)
	}
	for i := range got {
		cand := append(append([]int{}, got[:i]...), got[i+1:]...)
		if test(cand) {
			t.Fatalf("result %v is not 1-minimal: removing %d still passes", got, got[i])
		}
	}
}
