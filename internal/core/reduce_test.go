package core

import (
	"context"
	"math/rand"
	"reflect"
	"testing"
)

// contains reports whether sorted keep contains all of want.
func containsAll(keep, want []int) bool {
	set := map[int]bool{}
	for _, k := range keep {
		set[k] = true
	}
	for _, w := range want {
		if !set[w] {
			return false
		}
	}
	return true
}

// chain models a sequence of synthetic transformations with dependencies:
// transformation i applies only if every index in deps[i] applied before
// it, as a transformation that uses a fresh id defined by an earlier one.
type chain struct{ deps map[int][]int }

// effective returns E(keep): the indices of keep that apply.
func (c chain) effective(keep []int) []int {
	applied := map[int]bool{}
	out := []int{}
	for _, k := range keep {
		ok := true
		for _, d := range c.deps[k] {
			ok = ok && applied[d]
		}
		if ok {
			applied[k] = true
			out = append(out, k)
		}
	}
	return out
}

// test builds an Interestingness whose verdict is verdict(E(keep)), as a
// real oracle's verdict is a function of the replayed context, and counts
// its calls in *calls.
func (c chain) test(verdict func(applied []int) bool, calls *int) Interestingness {
	return func(keep []int) ([]int, bool) {
		*calls++
		applied := c.effective(keep)
		return applied, verdict(applied)
	}
}

// TestReduceExactQueryCounts pins the chunk-scan query schedule on crafted
// interestingness functions, guarding the rescan restructure: a successful
// removal must resume the backwards scan directly below the removed chunk,
// neither re-testing the removed region nor skipping the chunk before it.
// queries counts every candidate decided; tests counts the calls the memo
// did not answer, which must equal the calls the test observes.
func TestReduceExactQueryCounts(t *testing.T) {
	cases := []struct {
		name    string
		n       int
		deps    map[int][]int
		keep    []int // test passes iff the effective set contains all of these
		queries int
		tests   int
		final   int
	}{
		// Everything removable, n=4, want={}: initial(1). c=2 removes [2,4)
		// (2) and, resuming directly below the removed chunk, [0,2) (3);
		// keep is empty so the rescan and the c=1 pass issue no queries.
		{"all-removable", 4, nil, nil, 3, 3, 0},
		// Nothing removable: initial(1). c=2: [2,4) and [0,2) fail (3).
		// c=1: four singletons fail (7); no removal, so no rescans.
		{"none-removable", 4, nil, []int{0, 1, 2, 3}, 7, 7, 4},
		// Single needed element at the front, n=4, want={0}:
		// initial(1). c=2: [2,4) passes (2), scan resumes below the removed
		// chunk, [0,2) fails (3); rescan fails (4, the empty candidate again,
		// answered by the memo). c=1 on {0,1}: [1,2) passes (5), [0,1) fails
		// (6, memo); rescan fails (7, memo). final {0}, 4 tests.
		{"front-singleton", 4, nil, []int{0}, 7, 4, 1},
		// want={3}: initial(1). c=2: [2,4) fails (2), [0,2) passes (3);
		// rescan on {2,3} fails (4). c=1: [1,2)={2} fails (5), [0,1)
		// passes (6); rescan fails (7, memo). final {3}, 6 tests.
		{"back-singleton", 4, nil, []int{3}, 7, 6, 1},
		// Odd length with a short leading chunk: n=5, c starts at 2, leading
		// chunk is [0,1). Its candidate {1,2,3,4} comes back as the last
		// c=1 candidate and is answered by the memo: 8 tests.
		{"odd-none-removable", 5, nil, []int{0, 1, 2, 3, 4}, 9, 8, 5},
		// 3 uses what 1 defines; the bug needs 1 and 2. initial(1). c=2:
		// {0,1} fails (2); {2,3} replays as {2} and fails (3). c=1: {0,1,2}
		// passes (4); {0,1} fails (5, memo); {0,2} fails (6); {1,2} passes
		// (7). Rescan on {1,2}: {1} fails (8); {2} fails (9), answered by
		// the memo because {2} ⊆ {2} ⊆ {2,3}. final {1,2}, 7 tests.
		{"skip-sandwich", 4, map[int][]int{3: {1}}, []int{1, 2}, 9, 7, 2},
		// 1, 2 and 3 all use what 0 defines, and the bug needs 3.
		// initial(1). c=2: {0,1} fails (2); {2,3} replays as {} and fails
		// (3). c=1: {0,1,2} fails (4); {0,1,3} passes (5); {0,3} passes
		// (6); {3} fails (7, memo: {} ⊆ {3} ⊆ {2,3}). Rescan on {0,3}: {0}
		// fails (8); {3} fails (9, memo). final {0,3}, 7 tests.
		{"chain-root", 4, map[int][]int{1: {0}, 2: {0}, 3: {0}}, []int{3}, 9, 7, 2},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			calls := 0
			seq := chain{tc.deps}
			test := seq.test(func(applied []int) bool { return containsAll(applied, tc.keep) }, &calls)
			kept, st := serial(t, tc.n, test)
			if len(kept) != tc.final {
				t.Errorf("final length %d, want %d (kept %v)", len(kept), tc.final, kept)
			}
			if st.Tests != calls {
				t.Errorf("stats.Tests=%d but test ran %d times", st.Tests, calls)
			}
			if st.Queries != tc.queries || st.Tests != tc.tests {
				t.Errorf("queries=%d tests=%d, want %d and %d", st.Queries, st.Tests, tc.queries, tc.tests)
			}
			if !containsAll(kept, tc.keep) {
				t.Errorf("kept %v lost required %v", kept, tc.keep)
			}
		})
	}
}

// TestReduceRescanReachesOneMinimality reduces against randomized required
// subsets and checks the fixed-point property directly: removing any single
// kept element breaks the test.
func TestReduceRescanReachesOneMinimality(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for trial := 0; trial < 60; trial++ {
		n := 1 + rng.Intn(24)
		var want []int
		for i := 0; i < n; i++ {
			if rng.Intn(3) == 0 {
				want = append(want, i)
			}
		}
		calls := 0
		test := chain{}.test(func(applied []int) bool { return containsAll(applied, want) }, &calls)
		kept, _ := serial(t, n, test)
		if !reflect.DeepEqual(kept, append([]int{}, want...)) && len(kept) != len(want) {
			t.Fatalf("n=%d want %v got %v", n, want, kept)
		}
		for drop := range kept {
			cand := append(append([]int{}, kept[:drop]...), kept[drop+1:]...)
			if _, ok := test(cand); ok {
				t.Fatalf("n=%d: not 1-minimal, index %d removable from %v", n, kept[drop], kept)
			}
		}
	}
}

// referenceReduce is Reduce without the memo: every candidate is tested,
// and every interesting one is committed as its effective set. Reduce must
// match it in kept indices and Queries while calling the test at most as
// often.
func referenceReduce(n int, test Interestingness) ([]int, int) {
	keep := initial(n)
	queries := 1
	applied, ok := test(keep)
	if !ok {
		return nil, queries
	}
	keep = applied
	for c := max(len(keep)/2, 1); c >= 1; c /= 2 {
		for removedAny := true; removedAny; {
			removedAny = false
			for end := len(keep); end > 0; {
				start := max(end-c, 0)
				cand := append(append([]int{}, keep[:start]...), keep[end:]...)
				queries++
				if applied, ok := test(cand); ok {
					keep = applied
					removedAny = true
				}
				end = start
			}
		}
	}
	return keep, queries
}

// TestReduceMatchesEffectiveReference is the memo's exactness property: on
// random dependency chains and monotone and non-monotone verdicts over the
// effective set, Reduce keeps exactly what the memo-free reference keeps
// after exactly as many decided candidates, calls the test once per
// Tests and never more than Queries times, and returns a 1-minimal
// keep-set that is its own effective set.
func TestReduceMatchesEffectiveReference(t *testing.T) {
	rng := rand.New(rand.NewSource(22))
	verdicts := []func(n int) func(applied []int) bool{
		// Random required subset (monotone).
		func(n int) func([]int) bool {
			var want []int
			for i := 0; i < n; i++ {
				if rng.Intn(4) == 0 {
					want = append(want, i)
				}
			}
			return func(applied []int) bool { return containsAll(applied, want) }
		},
		// Non-monotone: element 0 present and an even sum.
		func(n int) func([]int) bool {
			return func(applied []int) bool {
				sum := 0
				for _, k := range applied {
					sum += k
				}
				return len(applied) > 0 && applied[0] == 0 && sum%2 == 0
			}
		},
		// Size plateau with parity.
		func(n int) func([]int) bool {
			return func(applied []int) bool { return len(applied)%3 != 1 || len(applied) >= n-1 }
		},
	}
	hits := 0
	for trial := 0; trial < 300; trial++ {
		n := 1 + rng.Intn(40)
		deps := map[int][]int{}
		for i := 1; i < n; i++ {
			for d := 0; d < 2; d++ {
				if rng.Intn(3) == 0 {
					deps[i] = append(deps[i], rng.Intn(i))
				}
			}
		}
		seq := chain{deps}
		verdict := verdicts[trial%len(verdicts)](n)
		var refCalls, calls int
		wantKept, wantQueries := referenceReduce(n, seq.test(verdict, &refCalls))
		if wantKept == nil {
			continue
		}
		test := seq.test(verdict, &calls)
		kept, st := serial(t, n, test)
		if !reflect.DeepEqual(kept, wantKept) || st.Queries != wantQueries {
			t.Fatalf("trial %d n=%d deps=%v: kept %v after %d queries, reference %v after %d",
				trial, n, deps, kept, st.Queries, wantKept, wantQueries)
		}
		if st.Tests != calls || st.Tests > st.Queries {
			t.Fatalf("trial %d: stats %+v, test called %d times", trial, st, calls)
		}
		hits += st.Queries - st.Tests
		if got := seq.effective(kept); !reflect.DeepEqual(got, kept) {
			t.Fatalf("trial %d: kept %v is not its own effective set %v", trial, kept, got)
		}
		for drop := range kept {
			cand := append(append([]int{}, kept[:drop]...), kept[drop+1:]...)
			if _, ok := test(cand); ok {
				t.Fatalf("trial %d: not 1-minimal, index %d removable from %v", trial, kept[drop], kept)
			}
		}
	}
	if hits == 0 {
		t.Fatal("the memo answered no candidate in any trial")
	}
}

// serial runs Reduce and fails the test on an error.
func serial(t *testing.T, n int, test Interestingness) ([]int, ReduceStats) {
	t.Helper()
	kept, st, err := Reduce(context.Background(), n, test)
	if err != nil {
		t.Fatal(err)
	}
	return kept, st
}

func initial(n int) []int {
	keep := make([]int, n)
	for i := range keep {
		keep[i] = i
	}
	return keep
}

// TestReduceParallelCtxCancellation: a canceled context stops the reduction
// before its next query, and the returned keep-set is still interesting
// (best-effort, not 1-minimal).
func TestReduceParallelCtxCancellation(t *testing.T) {
	needed := []int{2, 17, 40, 77}
	verdict := func(applied []int) bool { return containsAll(applied, needed) }
	var calls int
	_, wantSt := serial(t, 100, chain{}.test(verdict, &calls))

	// Cancel after a fixed query budget: the reduction must issue no query
	// after the one that canceled, and return a still-interesting keep-set.
	ctx, cancel := context.WithCancel(context.Background())
	budget := wantSt.Tests / 3
	calls = 0
	inner := chain{}.test(verdict, &calls)
	kept, st, err := Reduce(ctx, 100, func(keep []int) ([]int, bool) {
		applied, ok := inner(keep)
		if calls == budget {
			cancel()
		}
		return applied, ok
	})
	if err == nil {
		t.Fatal("cancellation not reported")
	}
	if !containsAll(kept, needed) {
		t.Fatalf("best-effort keep-set %v lost needed indices", kept)
	}
	if calls != budget || st.Tests != budget {
		t.Fatalf("%d calls (stats %+v) for a budget of %d", calls, st, budget)
	}

	// Canceled before the start: full keep-set, error, no queries.
	pre, preCancel := context.WithCancel(context.Background())
	preCancel()
	kept, st, err = Reduce(pre, 10, func(keep []int) ([]int, bool) { return keep, true })
	if err == nil || len(kept) != 10 || st.Queries != 0 {
		t.Fatalf("pre-canceled: kept=%v queries=%d err=%v", kept, st.Queries, err)
	}
}
