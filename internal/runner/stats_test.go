package runner_test

import (
	"testing"

	"spirvfuzz/internal/opt"
	"spirvfuzz/internal/runner"
)

// TestMergeStatsSharedProcess pins the double-counting fix: two engines in
// the same process (same token) each see the whole process-wide OptPasses
// profile, so within a group it merges by max, while
// per-engine cache counters — including render-cache hits — genuinely sum.
func TestMergeStatsSharedProcess(t *testing.T) {
	a := runner.Stats{
		Hits: 10, Misses: 4, RenderHits: 6, RenderMisses: 2, Workers: 2,
		OptPasses: []opt.PassStat{{Name: "dce", Runs: 30, Changed: 5, Nanos: 900}},
	}
	// Engine b read the process-wide profile later, so it is >= a's.
	b := runner.Stats{
		Hits: 1, Misses: 2, RenderHits: 3, RenderMisses: 1, Workers: 2,
		OptPasses: []opt.PassStat{{Name: "dce", Runs: 40, Changed: 7, Nanos: 1200}},
	}
	m := runner.MergeStats(map[string][]runner.Stats{"proc": {a, b}})
	if m.Hits != 11 || m.Misses != 6 {
		t.Fatalf("per-engine counters must sum: got hits=%d misses=%d", m.Hits, m.Misses)
	}
	if m.RenderHits != 9 || m.RenderMisses != 3 {
		t.Fatalf("render-cache counters must sum per engine: got %d/%d", m.RenderHits, m.RenderMisses)
	}
	if m.Workers != 4 {
		t.Fatalf("workers must sum: got %d", m.Workers)
	}
	// Process-wide profile: the max is the latest reading, not the sum.
	if len(m.OptPasses) != 1 || m.OptPasses[0].Runs != 40 || m.OptPasses[0].Nanos != 1200 {
		t.Fatalf("opt passes double-counted: %+v", m.OptPasses)
	}
}

// TestMergeStatsDistinctProcesses checks the cross-node half: different
// tokens are different processes, so everything sums, including the
// process-wide profile.
func TestMergeStatsDistinctProcesses(t *testing.T) {
	a := runner.Stats{
		RenderHits: 5,
		OptPasses:  []opt.PassStat{{Name: "dce", Runs: 10, Nanos: 100}, {Name: "cfg", Runs: 2, Nanos: 20}},
	}
	b := runner.Stats{
		RenderHits: 7,
		OptPasses:  []opt.PassStat{{Name: "dce", Runs: 4, Nanos: 40}},
	}
	m := runner.MergeStats(map[string][]runner.Stats{"p1": {a}, "p2": {b}})
	if m.RenderHits != 12 {
		t.Fatalf("render hits across processes must sum: got %d", m.RenderHits)
	}
	want := map[string]uint64{"cfg": 2, "dce": 14}
	if len(m.OptPasses) != 2 {
		t.Fatalf("opt passes: %+v", m.OptPasses)
	}
	for i := 1; i < len(m.OptPasses); i++ {
		if m.OptPasses[i-1].Name >= m.OptPasses[i].Name {
			t.Fatalf("merged opt passes not sorted by name: %+v", m.OptPasses)
		}
	}
	for _, ps := range m.OptPasses {
		if ps.Runs != want[ps.Name] {
			t.Fatalf("pass %s runs=%d, want %d", ps.Name, ps.Runs, want[ps.Name])
		}
	}
}

// TestMergeStatsMixed exercises the full shape at once: two same-process
// snapshots plus one remote process.
func TestMergeStatsMixed(t *testing.T) {
	dce := func(runs uint64) []opt.PassStat { return []opt.PassStat{{Name: "dce", Runs: runs}} }
	m := runner.MergeStats(map[string][]runner.Stats{
		"local":  {{Misses: 3, OptPasses: dce(10)}, {Misses: 2, OptPasses: dce(15)}},
		"remote": {{Misses: 7, OptPasses: dce(4)}},
	})
	if m.Misses != 12 {
		t.Fatalf("misses: got %d, want 12", m.Misses)
	}
	if len(m.OptPasses) != 1 || m.OptPasses[0].Runs != 19 {
		t.Fatalf("dce runs: got %+v, want 15+4", m.OptPasses)
	}
}

func TestProcessTokenStable(t *testing.T) {
	tok := runner.ProcessToken()
	if tok == "" {
		t.Fatal("empty process token")
	}
	if runner.ProcessToken() != tok {
		t.Fatal("process token changed between calls")
	}
}
