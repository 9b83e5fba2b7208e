package runner_test

import (
	"bytes"
	"context"
	"os"
	"path/filepath"
	"sort"
	"testing"

	"spirvfuzz/internal/corpus"
	"spirvfuzz/internal/memostore"
	"spirvfuzz/internal/runner"
	"spirvfuzz/internal/target"
)

// outcome flattens a run for byte comparison across engines.
type outcome struct {
	crash string
	w, h  int
	pix   []byte
}

func runCorpus(t *testing.T, eng *runner.Engine) []outcome {
	t.Helper()
	targets := target.All()
	var out []outcome
	for _, item := range corpus.References() {
		all, err := eng.RunAllCtx(context.Background(), targets, item.Mod, item.Inputs)
		if err != nil {
			t.Fatal(err)
		}
		for _, res := range all {
			o := outcome{}
			if res.Crash != nil {
				o.crash = res.Crash.Signature
			}
			if res.Img != nil {
				o.w, o.h, o.pix = res.Img.W, res.Img.H, res.Img.Pix
			}
			out = append(out, o)
		}
	}
	return out
}

func sameOutcomes(a, b []outcome) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i].crash != b[i].crash || a[i].w != b[i].w || a[i].h != b[i].h || !bytes.Equal(a[i].pix, b[i].pix) {
			return false
		}
	}
	return true
}

// A fresh engine over a warm memo store must serve every execution from
// disk — zero toolchain runs — with results bitwise-identical to the
// cold engine's.
func TestMemoWarmStartIdentical(t *testing.T) {
	dir := t.TempDir()
	ms, err := memostore.Open(dir, 0)
	if err != nil {
		t.Fatal(err)
	}
	cold := runner.New(4)
	cold.SetMemoStore(ms)
	want := runCorpus(t, cold)
	coldStats := cold.Stats()
	if coldStats.MemoMisses == 0 || coldStats.MemoSpills == 0 {
		t.Fatalf("cold run never touched the memo: %+v", coldStats)
	}
	if err := ms.Close(); err != nil {
		t.Fatal(err)
	}

	ms2, err := memostore.Open(dir, 0)
	if err != nil {
		t.Fatal(err)
	}
	defer ms2.Close()
	warm := runner.New(4)
	warm.SetMemoStore(ms2)
	got := runCorpus(t, warm)
	if !sameOutcomes(want, got) {
		t.Fatal("warm results differ from cold results")
	}
	st := warm.Stats()
	if st.Misses != 0 || st.CompileMisses != 0 {
		t.Fatalf("warm engine executed the toolchain: %+v", st)
	}
	if st.MemoHits == 0 || st.MemoMisses != 0 {
		t.Fatalf("warm engine missed the memo: %+v", st)
	}
	if st.HitRate() <= 0.99 {
		t.Fatalf("warm hit rate %v", st.HitRate())
	}
}

// The degraded baseline must stay a baseline: with caching disabled the
// memo tier is bypassed entirely.
func TestMemoRespectsDegradedModes(t *testing.T) {
	ms, err := memostore.Open(t.TempDir(), 0)
	if err != nil {
		t.Fatal(err)
	}
	defer ms.Close()
	eng := runner.New(2)
	eng.SetMemoStore(ms)
	eng.SetCacheCap(0)
	runCorpus(t, eng)
	st := eng.Stats()
	if st.MemoHits != 0 || st.MemoMisses != 0 || st.MemoSpills != 0 {
		t.Fatalf("memo tier active with caching disabled: %+v", st)
	}
	if st.Misses == 0 {
		t.Fatal("nothing executed")
	}
}

// A truncated (torn-tail) memo store stays correct: some keys re-execute,
// every result matches the cold reference bit for bit.
func TestMemoTruncatedStoreIdentical(t *testing.T) {
	dir := t.TempDir()
	ms, err := memostore.Open(dir, 0)
	if err != nil {
		t.Fatal(err)
	}
	cold := runner.New(4)
	cold.SetMemoStore(ms)
	want := runCorpus(t, cold)
	ms.Flush()
	if err := ms.Compact(); err != nil { // compacted temperature, while at it
		t.Fatal(err)
	}
	ms.Close()

	// Chop bytes off the largest segment to fake a torn spill: the
	// checkpoint now promises more than the file holds, which recovery
	// treats as an index/segment mismatch and rescans.
	segs, err := filepath.Glob(filepath.Join(dir, "seg-*.log"))
	if err != nil || len(segs) == 0 {
		t.Fatalf("no segments on disk: %v", err)
	}
	sort.Slice(segs, func(i, j int) bool {
		fi, _ := os.Stat(segs[i])
		fj, _ := os.Stat(segs[j])
		return fi.Size() > fj.Size()
	})
	fi, err := os.Stat(segs[0])
	if err != nil {
		t.Fatal(err)
	}
	if err := os.Truncate(segs[0], fi.Size()/2); err != nil {
		t.Fatal(err)
	}

	warm := runner.New(4)
	ms3, err := memostore.Open(dir, 0)
	if err != nil {
		t.Fatal(err)
	}
	defer ms3.Close()
	warm.SetMemoStore(ms3)
	got := runCorpus(t, warm)
	if !sameOutcomes(want, got) {
		t.Fatal("results over a recovered store differ from cold")
	}
}

// SetMemoStore attaches a store that later misses consult, and nil
// detaches it again.
func TestMemoStoreAccessor(t *testing.T) {
	eng := runner.New(1)
	tg := target.ByName("Mesa")
	refs := corpus.References()
	eng.Run(tg, refs[0].Mod, refs[0].Inputs)
	if st := eng.Stats(); st.MemoMisses != 0 {
		t.Fatalf("fresh engine consulted a memo store: %+v", st)
	}
	ms, err := memostore.Open(t.TempDir(), 0)
	if err != nil {
		t.Fatal(err)
	}
	defer ms.Close()
	eng.SetMemoStore(ms)
	eng.Run(tg, refs[1].Mod, refs[1].Inputs)
	if st := eng.Stats(); st.MemoMisses == 0 {
		t.Fatalf("attached store was not consulted: %+v", st)
	}
	before := eng.Stats().MemoMisses
	eng.SetMemoStore(nil)
	eng.Run(tg, refs[2].Mod, refs[2].Inputs)
	if st := eng.Stats(); st.MemoMisses != before {
		t.Fatalf("detached store was consulted: %+v", st)
	}
	// HitRate folds memo counters in: a pure-memo warm lookup counts.
	st := runner.Stats{MemoHits: 3, MemoMisses: 1}
	if got := st.HitRate(); got != 0.75 {
		t.Fatalf("memo hit rate %v", got)
	}
}
