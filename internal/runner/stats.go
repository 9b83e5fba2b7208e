package runner

import (
	"crypto/rand"
	"encoding/hex"
	"sort"
	"sync"
)

// Stats mixes two kinds of counters: the cache/worker fields are owned by one
// Engine, but OptPasses is a process-wide profile that every Engine.Stats
// call in the same process re-reads from shared package state. Summing
// snapshots from two engines in one process — or two snapshots of the same
// engine taken as a shard stream progresses — therefore double-counts the
// shared profile (and, for repeated snapshots, everything). MergeStats is
// the aggregation that gets this right; cluster metrics use it.

// AddEngine accumulates the per-engine cache and worker counters of o into s,
// leaving the process-wide OptPasses profile untouched. Use it to combine
// engines that share a process.
func (s *Stats) AddEngine(o Stats) {
	s.Hits += o.Hits
	s.Misses += o.Misses
	s.CompileHits += o.CompileHits
	s.CompileMisses += o.CompileMisses
	s.RenderHits += o.RenderHits
	s.RenderMisses += o.RenderMisses
	s.PlanCompileNanos += o.PlanCompileNanos
	s.Evictions += o.Evictions
	s.Entries += o.Entries
	s.Workers += o.Workers
	s.MemoHits += o.MemoHits
	s.MemoMisses += o.MemoMisses
	s.MemoSpills += o.MemoSpills
}

// mergeShared folds the process-wide fields of o into s element-wise by max.
// Counters only grow, so the max of several snapshots from one process is the
// latest reading rather than a multiple of it.
func (s *Stats) mergeShared(o Stats) {
	byName := make(map[string]int, len(s.OptPasses))
	for i := range s.OptPasses {
		byName[s.OptPasses[i].Name] = i
	}
	for _, p := range o.OptPasses {
		i, ok := byName[p.Name]
		if !ok {
			s.OptPasses = append(s.OptPasses, p)
			continue
		}
		q := &s.OptPasses[i]
		q.Runs = max(q.Runs, p.Runs)
		q.Changed = max(q.Changed, p.Changed)
		q.Nanos = max(q.Nanos, p.Nanos)
	}
}

// addShared folds the process-wide fields of o into s by summation — correct
// across distinct processes, whose shared counters are independent.
func (s *Stats) addShared(o Stats) {
	byName := make(map[string]int, len(s.OptPasses))
	for i := range s.OptPasses {
		byName[s.OptPasses[i].Name] = i
	}
	for _, p := range o.OptPasses {
		i, ok := byName[p.Name]
		if !ok {
			s.OptPasses = append(s.OptPasses, p)
			continue
		}
		q := &s.OptPasses[i]
		q.Runs += p.Runs
		q.Changed += p.Changed
		q.Nanos += p.Nanos
	}
}

// MergeStats aggregates engine snapshots grouped by the process that produced
// them (key = ProcessToken of the reporting process). Within one group the
// per-engine counters sum and the process-wide profile takes the latest
// (element-wise max) reading; across groups everything sums. The result is an
// honest cluster-wide view: render-cache hits from N engines in one worker
// process are each counted once, and the shared optimizer profile of that
// process appears once no matter how many shard snapshots it reported.
func MergeStats(groups map[string][]Stats) Stats {
	keys := make([]string, 0, len(groups))
	for k := range groups {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	var out Stats
	for _, k := range keys {
		var g Stats
		for _, st := range groups[k] {
			g.AddEngine(st)
			g.mergeShared(st)
		}
		out.AddEngine(g)
		out.addShared(g)
	}
	sort.Slice(out.OptPasses, func(i, j int) bool {
		return out.OptPasses[i].Name < out.OptPasses[j].Name
	})
	return out
}

var (
	procTokenOnce sync.Once
	procToken     string
)

// ProcessToken returns a random identifier minted once per process. Workers
// report it alongside Stats snapshots so an aggregator can tell which
// snapshots share process-wide counters and group them for MergeStats.
func ProcessToken() string {
	procTokenOnce.Do(func() {
		var b [8]byte
		if _, err := rand.Read(b[:]); err != nil {
			// Fall back to a fixed token; grouping degrades to "one process",
			// which over-merges (undercounts) rather than double-counts.
			procToken = "proc-fallback"
			return
		}
		procToken = "proc-" + hex.EncodeToString(b[:])
	})
	return procToken
}
