package core

import (
	"context"
	"errors"
)

// Interestingness replays the subsequence of an implicit transformation
// sequence selected by keep (sorted indices into the original sequence)
// from the original context per Definition 2.5, and re-runs the
// interestingness test of Section 3.4 (crash-signature match or image
// mismatch) on the result. It returns the effective set E(keep) — the
// indices of keep that actually applied, in order, as ApplySubsequence
// reports them — and whether the bug is still triggered.
//
// Reduce relies on the verdict being a function of the replayed context
// alone: a deterministic test over a context built by pure preconditions
// and skips that leave the context untouched. Under those conditions any K
// with E(K') ⊆ K ⊆ K' replays to the same context as K' (see
// effectiveMemo), which is what lets Reduce commit effective sets and
// answer such candidates without calling the test.
type Interestingness func(keep []int) (applied []int, ok bool)

// ErrNotInteresting is returned by Reduce when the full sequence fails the
// interestingness test: there is no bug to reduce. Callers wrap it with the
// name of the case they reduce.
var ErrNotInteresting = errors.New("core: the full sequence does not pass the interestingness test")

// ReduceStats records the work performed by a reduction. Both counts are
// deterministic for a given (n, test).
type ReduceStats struct {
	// Queries counts the candidates ddmin decided, whether by calling the
	// test or from the memo. Reports embed it.
	Queries int
	// Tests counts the calls of the test: Queries minus the candidates the
	// memo answered.
	Tests int
}

// Reduce runs the delta-debugging loop of Section 3.4 over a transformation
// sequence of length n, returning a 1-minimal list of kept indices: removing
// any single remaining transformation makes the interestingness test fail.
//
// The algorithm maintains a chunk size c initialised to half the effective
// length of the full sequence. The sequence is divided into chunks of size c
// starting from the last transformation and working backwards (so the chunk
// at the start is smaller than c when c does not divide the length). Each
// chunk is considered in turn and removed if the test still passes without
// it. When no chunk of size c can be removed, c is halved; reduction
// terminates when no chunk of size 1 can be removed.
//
// Every interesting candidate, the full sequence included, is committed as
// its effective set: transformations that were skipped on replay changed
// nothing, so dropping them keeps the context and the verdict. The keep-set
// is therefore always its own effective set, which is what lets the scan
// resume directly below a removed chunk: the transformations before it
// replay exactly as before and all still apply. The returned keep-set is
// its own effective set too.
//
// The full sequence is always tested first, also when n is 0. If it fails,
// Reduce returns ErrNotInteresting after that one query.
//
// Once ctx is done, no further query is issued, and Reduce returns the
// keep-set as reduced so far together with ctx.Err(). That keep-set is still
// interesting, merely not 1-minimal.
func Reduce(ctx context.Context, n int, test Interestingness) ([]int, ReduceStats, error) {
	var stats ReduceStats
	keep := make([]int, n)
	for i := range keep {
		keep[i] = i
	}
	if err := ctx.Err(); err != nil {
		return keep, stats, err
	}
	memo := newEffectiveMemo(n)
	query := func(cand []int) ([]int, bool) {
		stats.Queries++
		if applied, ok, hit := memo.lookup(cand); hit {
			return applied, ok
		}
		stats.Tests++
		applied, ok := test(cand)
		memo.add(cand, applied, ok)
		return applied, ok
	}
	applied, ok := query(keep)
	if !ok {
		return nil, stats, ErrNotInteresting
	}
	keep = applied
	for c := max(len(keep)/2, 1); c >= 1; c /= 2 {
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
				start := chunkStart(end, c)
				cand := make([]int, 0, len(keep)-(end-start))
				cand = append(append(cand, keep[:start]...), keep[end:]...)
				if applied, ok := query(cand); ok {
					keep = applied
					removedAny = true
				}
				// keep[:start] is unchanged by a commit, so the scan goes on
				// below the chunk either way.
				end = start
			}
		}
	}
	return keep, stats, ctx.Err()
}

// chunkStart is the inclusive lower bound of the chunk ending at end.
func chunkStart(end, c int) int {
	if end < c {
		return 0
	}
	return end - c
}

// effectiveMemo answers a ddmin candidate from an earlier test of the same
// reduction without a replay. It rests on the sandwich lemma: if K' was
// tested and K satisfies E(K') ⊆ K ⊆ K', then K differs from K' only by
// transformations that K' skipped. A skip leaves the context untouched and
// a precondition reads it without writing, so K's replay passes through the
// same contexts as K', skips the same transformations it keeps, and ends
// in the same context: E(K) = E(K'), and a deterministic test returns the
// same verdict. The lemma needs no knowledge of what a transformation
// defines or uses, so it is exact for every transformation type.
//
// Only tested candidates are recorded: a candidate the memo answered is
// sandwiched by the entry that answered it, so it would answer nothing new.
type effectiveMemo struct {
	words   int
	entries []memoEntry
}

type memoEntry struct {
	tested, effective []uint64 // K' and E(K') as bitsets over 0..n-1
	applied           []int    // E(K') as the test returned it
	ok                bool
}

func newEffectiveMemo(n int) *effectiveMemo {
	return &effectiveMemo{words: (n + 63) / 64}
}

func (m *effectiveMemo) bits(idx []int) []uint64 {
	b := make([]uint64, m.words)
	for _, i := range idx {
		b[i/64] |= 1 << (i % 64)
	}
	return b
}

// lookup returns the effective set and verdict of the first recorded test
// whose candidate sandwiches cand. Every sandwiching entry gives the same
// answer, so the scan order does not matter.
func (m *effectiveMemo) lookup(cand []int) (applied []int, ok, hit bool) {
	k := m.bits(cand)
outer:
	for _, e := range m.entries {
		for w := range k {
			if e.effective[w]&^k[w] != 0 || k[w]&^e.tested[w] != 0 {
				continue outer
			}
		}
		return e.applied, e.ok, true
	}
	return nil, false, false
}

func (m *effectiveMemo) add(cand, applied []int, ok bool) {
	m.entries = append(m.entries, memoEntry{
		tested:    m.bits(cand),
		effective: m.bits(applied),
		applied:   applied,
		ok:        ok,
	})
}
