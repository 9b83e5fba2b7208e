package fuzz

import (
	"math"
	"math/rand"
	"slices"
	"testing"
)

// randEdgeSeeds are the seeds where math/rand's normalization branches:
// zero, its substitute and other multiples of the modulus, the modulus's
// neighbours, negatives, and the int64 extremes.
var randEdgeSeeds = []int64{
	0, 1, -1, int32max - 1, int32max, 1 << 31, 2 * int32max, -int32max, -(1 << 31),
	89482311, math.MinInt64, math.MaxInt64, math.MinInt64 + 1,
}

// compareSeededRand draws n values of each rand.Rand method from NewRand(seed)
// and from math/rand's own seeded source, and reports the first difference.
func compareSeededRand(t *testing.T, seed int64, n int) {
	t.Helper()
	got, want := NewRand(seed), rand.New(rand.NewSource(seed))
	for i := 0; i < n; i++ {
		if g, w := got.Int63(), want.Int63(); g != w {
			t.Fatalf("seed %d: Int63 #%d = %d, math/rand %d", seed, i, g, w)
		}
	}
	for i := 0; i < n; i++ {
		if g, w := got.Uint64(), want.Uint64(); g != w {
			t.Fatalf("seed %d: Uint64 #%d = %d, math/rand %d", seed, i, g, w)
		}
	}
	for i := 0; i < n; i++ {
		// Bounds on both sides of Intn's 32-bit fast path.
		bound := 1 + i*i*7919
		if i%2 == 1 {
			bound = 1<<40 + i
		}
		if g, w := got.Intn(bound), want.Intn(bound); g != w {
			t.Fatalf("seed %d: Intn(%d) #%d = %d, math/rand %d", seed, bound, i, g, w)
		}
	}
	for i := 0; i < n; i++ {
		if g, w := got.Float64(), want.Float64(); g != w {
			t.Fatalf("seed %d: Float64 #%d = %v, math/rand %v", seed, i, g, w)
		}
	}
	if g, w := got.Perm(n), want.Perm(n); !slices.Equal(g, w) {
		t.Fatalf("seed %d: Perm(%d) differs from math/rand", seed, n)
	}
	g, w := make([]int, n), make([]int, n)
	for i := range g {
		g[i], w[i] = i, i
	}
	got.Shuffle(n, func(i, j int) { g[i], g[j] = g[j], g[i] })
	want.Shuffle(n, func(i, j int) { w[i], w[j] = w[j], w[i] })
	if !slices.Equal(g, w) {
		t.Fatalf("seed %d: Shuffle(%d) differs from math/rand", seed, n)
	}
}

// TestSeededRandMatchesMathRand pins NewRand to math/rand's seeded stream:
// every fuzzing run's transformation sequence depends on it.
func TestSeededRandMatchesMathRand(t *testing.T) {
	seeds := append([]int64(nil), randEdgeSeeds...)
	pick := rand.New(rand.NewSource(20210620))
	for len(seeds) < 10_000 {
		switch len(seeds) % 3 {
		case 0:
			seeds = append(seeds, int64(len(seeds)))
		case 1:
			seeds = append(seeds, pick.Int63n(1<<32)-1<<31)
		default:
			seeds = append(seeds, int64(pick.Uint64()))
		}
	}
	for _, seed := range seeds {
		compareSeededRand(t, seed, 1000)
	}
}

func FuzzSeededRandMatchesMathRand(f *testing.F) {
	for _, seed := range randEdgeSeeds {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, seed int64) {
		compareSeededRand(t, seed, 1000)
	})
}

var benchRand *rand.Rand

func BenchmarkSeedRand(b *testing.B) {
	b.Run("math-rand", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			benchRand = rand.New(rand.NewSource(int64(i)))
		}
	})
	b.Run("NewRand", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			benchRand = NewRand(int64(i))
		}
	})
}
