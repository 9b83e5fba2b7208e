package core

import (
	"context"
	"errors"
	"sync"
	"sync/atomic"
)

// Interestingness reports whether the subsequence of an implicit
// transformation sequence selected by keep (sorted indices into the original
// sequence) still triggers the bug under investigation. Implementations
// replay the subsequence from the original context per Definition 2.5 and
// re-run the interestingness test of Section 3.4 (crash-signature match or
// image mismatch).
type Interestingness func(keep []int) bool

// ErrNotInteresting is returned by Reduce when the full sequence fails the
// interestingness test: there is no bug to reduce. Callers wrap it with the
// name of the case they reduce.
var ErrNotInteresting = errors.New("core: the full sequence does not pass the interestingness test")

// ReduceStats records the work performed by a reduction.
type ReduceStats struct {
	// Queries is the serial-equivalent number of interestingness-test
	// invocations: the candidates a serial scan would have evaluated. It is
	// deterministic for a given (n, test) at every worker count, which lets
	// reports embed it and still hash identically across runs and nodes.
	Queries int
	// Speculative counts extra queries the parallel scan actually issued past
	// a committed removal before noticing it was superseded. Scheduling-
	// dependent; kept out of Queries so Queries stays deterministic.
	Speculative int
}

// Reduce runs the delta-debugging loop of Section 3.4 over a transformation
// sequence of length n, returning a 1-minimal list of kept indices: removing
// any single remaining transformation makes the interestingness test fail.
//
// The algorithm maintains a chunk size c initialised to ⌊n/2⌋. The sequence
// is divided into chunks of size c starting from the last transformation and
// working backwards (so the chunk at the start is smaller than c when c does
// not divide the length). Each chunk is considered in turn and removed if the
// test still passes without it. When no chunk of size c can be removed, c is
// halved; reduction terminates when no chunk of size 1 can be removed.
//
// The full sequence is always tested first, also when n is 0. If it fails,
// Reduce returns ErrNotInteresting after that one query.
//
// Within one backwards scan, up to workers candidate chunks are tested
// concurrently, and the successful removal earliest in scan order is
// committed. Later speculative results were computed against a sequence that
// the commit just changed, so they are discarded and the scan resumes exactly
// where a serial scan would: the kept indices and Queries are identical for
// every worker count. test must be safe for concurrent calls when
// workers > 1. At most workers-1 extra queries are spent per committed
// removal; a speculative candidate whose wave already holds a success earlier
// in scan order is skipped without a query, since its result would be
// discarded either way.
//
// Once ctx is done, no further query is issued, and Reduce returns the
// keep-set as reduced so far together with ctx.Err(). That keep-set is still
// interesting, merely not 1-minimal.
func Reduce(ctx context.Context, n int, test Interestingness, workers int) ([]int, ReduceStats, error) {
	if workers < 1 {
		workers = 1
	}
	var stats ReduceStats
	keep := make([]int, n)
	for i := range keep {
		keep[i] = i
	}
	if err := ctx.Err(); err != nil {
		return keep, stats, err
	}
	stats.Queries++
	if !test(keep) {
		return nil, stats, ErrNotInteresting
	}
	for c := max(n/2, 1); c >= 1; c /= 2 {
		for removedAny := true; removedAny; {
			removedAny = false
			// Chunks are laid out backwards from the end of the current
			// sequence; the leading chunk may be short. end is the exclusive
			// upper bound of the next chunk to consider, in the coordinates
			// of the current keep slice.
			for end := len(keep); end > 0; {
				if err := ctx.Err(); err != nil {
					return keep, stats, err
				}
				ends := waveEnds(end, c, workers)
				cands := make([][]int, len(ends))
				okay := make([]bool, len(ends))
				issued := runWave(ctx, keep, ends, c, test, cands, okay)
				committed := -1
				for i, ok := range okay {
					if ok {
						committed = i
						break
					}
				}
				// Queries counts the serial-equivalent wave cost: candidates
				// up to and including the committed success are always fully
				// evaluated (a skip requires a strictly earlier success), so
				// this count is deterministic at every worker count and equal
				// to what a serial scan would have spent. Queries issued past
				// the commit depend on goroutine scheduling — a later
				// candidate may or may not observe the success in time to
				// skip — so they are tracked separately as Speculative and
				// must never leak into results that are compared bitwise
				// across runs or nodes.
				det := len(ends)
				if committed >= 0 {
					det = committed + 1
				}
				stats.Queries += det
				if issued > det {
					stats.Speculative += issued - det
				}
				if committed >= 0 {
					// Speculative results past the commit were computed
					// against a sequence the commit just changed; their
					// outcomes are discarded (their queries still count).
					keep = cands[committed]
					removedAny = true
					// Resume scanning below the removed chunk: indices before
					// its start are unchanged in the new keep.
					end = chunkStart(ends[committed], c)
				} else {
					end = chunkStart(ends[len(ends)-1], c)
				}
			}
		}
	}
	return keep, stats, ctx.Err()
}

// waveEnds lists the exclusive upper bounds of the next chunks in scan order
// (decreasing), at most workers of them.
func waveEnds(end, c, workers int) []int {
	ends := make([]int, 0, workers)
	for e := end; e > 0 && len(ends) < workers; e = chunkStart(e, c) {
		ends = append(ends, e)
	}
	return ends
}

// chunkStart is the inclusive lower bound of the chunk ending at end.
func chunkStart(end, c int) int {
	if end < c {
		return 0
	}
	return end - c
}

// runWave evaluates the candidate for each chunk bound concurrently (serially
// when there is only one) and returns the number of queries issued.
//
// The committed removal is the success earliest in scan order, so once some
// position succeeds, every candidate later in the wave is doomed to be
// discarded; goroutines that have not started their query yet observe this
// and skip it. Positions before the eventual commit are never skipped — a
// skip requires a strictly earlier success, and the commit is the earliest —
// so the candidates that decide the outcome are always fully evaluated,
// exactly as in a serial scan. A done ctx likewise skips queries that have
// not started (the caller returns ctx.Err() right after the wave).
func runWave(ctx context.Context, keep []int, ends []int, c int, test Interestingness, cands [][]int, okay []bool) int {
	eval := func(i int) {
		end := ends[i]
		start := chunkStart(end, c)
		candidate := make([]int, 0, len(keep)-(end-start))
		candidate = append(candidate, keep[:start]...)
		candidate = append(candidate, keep[end:]...)
		cands[i] = candidate
		okay[i] = test(candidate)
	}
	if len(ends) == 1 {
		if ctx.Err() != nil {
			return 0
		}
		eval(0)
		return 1
	}
	var wg sync.WaitGroup
	var queries atomic.Int64
	var firstOK atomic.Int64 // lowest successful wave position so far
	firstOK.Store(int64(len(ends)))
	for i := range ends {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			if firstOK.Load() < int64(i) {
				return // superseded: an earlier candidate already succeeded
			}
			if ctx.Err() != nil {
				return // canceled before the query started
			}
			queries.Add(1)
			eval(i)
			if okay[i] {
				for {
					cur := firstOK.Load()
					if int64(i) >= cur || firstOK.CompareAndSwap(cur, int64(i)) {
						break
					}
				}
			}
		}(i)
	}
	wg.Wait()
	return int(queries.Load())
}
