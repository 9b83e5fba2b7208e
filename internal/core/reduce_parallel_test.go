package core

import (
	"context"
	"math/rand"
	"reflect"
	"sync"
	"sync/atomic"
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

// TestReduceExactQueryCounts pins the chunk-scan query schedule on crafted
// interestingness functions, guarding the rescan restructure: a successful
// removal must resume the backwards scan directly below the removed chunk,
// neither re-testing the removed region nor skipping the chunk before it.
func TestReduceExactQueryCounts(t *testing.T) {
	cases := []struct {
		name    string
		n       int
		keep    []int // test passes iff candidate contains all of these
		queries int
		final   int
	}{
		// Everything removable, n=4, want={}: initial(1). c=2 removes [2,4)
		// (2) and, resuming directly below the removed chunk, [0,2) (3);
		// keep is empty so the rescan and the c=1 pass issue no queries.
		{"all-removable", 4, nil, 3, 0},
		// Nothing removable: initial(1). c=2: [2,4) and [0,2) fail (3).
		// c=1: four singletons fail (7); no removal, so no rescans.
		{"none-removable", 4, []int{0, 1, 2, 3}, 7, 4},
		// Single needed element at the front, n=4, want={0}:
		// initial(1). c=2: [2,4) passes (2), scan resumes below the removed
		// chunk, [0,2) fails (3); rescan fails (4). c=1 on {0,1}: [1,2)
		// passes (5), [0,1) fails (6); rescan fails (7). final {0}.
		{"front-singleton", 4, []int{0}, 7, 1},
		// want={3}: initial(1). c=2: [2,4) fails (2), [0,2) passes (3);
		// rescan on {2,3} fails (4). c=1: [1,2)={2} fails (5), [0,1)
		// passes (6); rescan fails (7). final {3}.
		{"back-singleton", 4, []int{3}, 7, 1},
		// Odd length with a short leading chunk: n=5, c starts at 2, leading
		// chunk is [0,1).
		{"odd-none-removable", 5, []int{0, 1, 2, 3, 4}, 9, 5},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			queries := 0
			test := func(keep []int) bool {
				queries++
				return containsAll(keep, tc.keep)
			}
			kept, st := serial(t, tc.n, test)
			if len(kept) != tc.final {
				t.Errorf("final length %d, want %d (kept %v)", len(kept), tc.final, kept)
			}
			if st.Queries != queries {
				t.Errorf("stats.Queries=%d but test ran %d times", st.Queries, queries)
			}
			if queries != tc.queries {
				t.Errorf("queries=%d, want %d", queries, tc.queries)
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
		test := func(keep []int) bool { return containsAll(keep, want) }
		kept, _ := serial(t, n, test)
		if !reflect.DeepEqual(kept, append([]int{}, want...)) && len(kept) != len(want) {
			t.Fatalf("n=%d want %v got %v", n, want, kept)
		}
		for drop := range kept {
			cand := append(append([]int{}, kept[:drop]...), kept[drop+1:]...)
			if test(cand) {
				t.Fatalf("n=%d: not 1-minimal, index %d removable from %v", n, kept[drop], kept)
			}
		}
	}
}

// TestReduceParallelMatchesSerial is the determinism guarantee of the
// speculative mode: for every worker count the kept indices and Queries are
// bitwise-identical to a serial reduction, including on non-monotone tests where
// speculative evaluation observes states serial reduction never visits.
func TestReduceParallelMatchesSerial(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	tests := []func(n int) Interestingness{
		// Random required subset (monotone).
		func(n int) Interestingness {
			var want []int
			for i := 0; i < n; i++ {
				if rng.Intn(4) == 0 {
					want = append(want, i)
				}
			}
			return func(keep []int) bool { return containsAll(keep, want) }
		},
		// Non-monotone: passes when the kept sum is even and element 0
		// present (supersets of a passing set can fail).
		func(n int) Interestingness {
			return func(keep []int) bool {
				if len(keep) == 0 || keep[0] != 0 {
					return false
				}
				sum := 0
				for _, k := range keep {
					sum += k
				}
				return sum%2 == 0
			}
		},
		// Size-threshold with parity: keeps an awkward plateau shape.
		func(n int) Interestingness {
			return func(keep []int) bool { return len(keep)%3 != 1 || len(keep) >= n-1 }
		},
	}
	for ti, mk := range tests {
		for _, n := range []int{1, 2, 5, 13, 24, 40} {
			test := mk(n)
			if !test(initial(n)) {
				continue
			}
			serialKept, serialSt := serial(t, n, test)
			for _, workers := range []int{1, 4, 16} {
				var mu sync.Mutex // the crafted tests share no state, but be explicit
				concTest := func(keep []int) bool {
					mu.Lock()
					defer mu.Unlock()
					return test(keep)
				}
				kept, st, err := Reduce(context.Background(), n, concTest, workers)
				if err != nil {
					t.Fatal(err)
				}
				if !reflect.DeepEqual(kept, serialKept) {
					t.Fatalf("test %d n=%d workers=%d: kept %v, serial %v", ti, n, workers, kept, serialKept)
				}
				if st.Queries != serialSt.Queries {
					t.Fatalf("test %d n=%d workers=%d: %d queries, serial %d", ti, n, workers, st.Queries, serialSt.Queries)
				}
			}
		}
	}
}

// TestReduceParallelQueryOverhead pins the reported-count determinism and
// bounds the speculative waste: Queries is exactly the serial count at every
// worker count (reports embed it, so it must not depend on scheduling), and
// the scheduling-dependent extras land in Speculative, at most workers-1 per
// committed removal.
func TestReduceParallelQueryOverhead(t *testing.T) {
	n := 32
	want := []int{3, 17}
	test := func(keep []int) bool { return containsAll(keep, want) }
	_, serialSt := serial(t, n, test)
	if serialSt.Speculative != 0 {
		t.Fatalf("serial reduction reported %d speculative queries", serialSt.Speculative)
	}
	for _, workers := range []int{4, 16} {
		kept, par, err := Reduce(context.Background(), n, test, workers)
		if err != nil {
			t.Fatal(err)
		}
		if len(kept) != len(want) {
			t.Fatalf("workers=%d kept %v", workers, kept)
		}
		if par.Queries != serialSt.Queries {
			t.Fatalf("workers=%d: parallel reported %d queries, serial %d — report hashes would diverge",
				workers, par.Queries, serialSt.Queries)
		}
		removals := n - len(want) // upper bound on committed removals
		if par.Speculative > removals*(workers-1) {
			t.Fatalf("workers=%d: %d speculative queries exceeds bound %d",
				workers, par.Speculative, removals*(workers-1))
		}
	}
}

// serial runs Reduce with one worker and fails the test on an error.
func serial(t *testing.T, n int, test Interestingness) ([]int, ReduceStats) {
	t.Helper()
	kept, st, err := Reduce(context.Background(), n, test, 1)
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
// between waves, and the returned keep-set is still interesting (best-effort,
// not 1-minimal).
func TestReduceParallelCtxCancellation(t *testing.T) {
	needed := []int{2, 17, 40, 77}
	test := func(keep []int) bool { return containsAll(keep, needed) }
	_, wantSt := serial(t, 100, test)

	// Cancel after a fixed query budget: the reduction must stop issuing
	// queries almost immediately and return a still-interesting keep-set.
	ctx, cancel := context.WithCancel(context.Background())
	var queries atomic.Int64
	budget := int64(wantSt.Queries / 3)
	kept, st, err := Reduce(ctx, 100, func(keep []int) bool {
		if queries.Add(1) == budget {
			cancel()
		}
		return containsAll(keep, needed)
	}, 3)
	if err == nil {
		t.Fatal("cancellation not reported")
	}
	if !containsAll(kept, needed) {
		t.Fatalf("best-effort keep-set %v lost needed indices", kept)
	}
	// At most one in-flight wave (workers queries) may land after cancel.
	if int64(st.Queries) > budget+3 {
		t.Fatalf("%d queries issued for a budget of %d", st.Queries, budget)
	}

	// Canceled before the start: full keep-set, error, no queries.
	pre, preCancel := context.WithCancel(context.Background())
	preCancel()
	kept, st, err = Reduce(pre, 10, func(keep []int) bool { return true }, 2)
	if err == nil || len(kept) != 10 || st.Queries != 0 {
		t.Fatalf("pre-canceled: kept=%v queries=%d err=%v", kept, st.Queries, err)
	}
}
