// gfauto is the campaign framework (Section 3.2): it runs the three fuzzer
// configurations against the nine simulated targets and regenerates the
// paper's tables and figures.
//
//	gfauto -list-targets
//	gfauto -tests 1000 -groups 10 -table3 -venn -rq2 -table4
//	gfauto -tests 10000 -groups 10 -all        # paper-scale
//
// All experiments derive from one set of campaigns, so combining flags
// amortizes the fuzzing cost.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"time"

	"spirvfuzz/internal/bisect"
	"spirvfuzz/internal/cluster"
	"spirvfuzz/internal/corpus"
	"spirvfuzz/internal/experiments"
	"spirvfuzz/internal/interp"
	"spirvfuzz/internal/memostore"
	"spirvfuzz/internal/runner"
	"spirvfuzz/internal/service"
	"spirvfuzz/internal/store"
)

func main() {
	tests := flag.Int("tests", 300, "tests per tool configuration (paper: 10000)")
	groups := flag.Int("groups", 10, "disjoint groups for medians and MWU (paper: 10)")
	capPerSig := flag.Int("cap-per-signature", 6, "reductions per bug signature (paper: 100 / 20)")
	workers := flag.Int("workers", 0, "execution-engine worker pool size; 0 means GOMAXPROCS (results are identical for any value)")
	memoDir := flag.String("memo-dir", "", "persistent execution memo store directory; repeat runs warm-start from it (results are identical either way)")
	memoMaxMB := flag.Int("memo-max-mb", 256, "memo store size budget in MiB before the oldest segments are evicted")
	listTargets := flag.Bool("list-targets", false, "print Table 2 and exit")
	listRefs := flag.Bool("list-references", false, "print the reference corpus and exit")
	table3 := flag.Bool("table3", false, "regenerate Table 3 (bug-finding ability)")
	venn := flag.Bool("venn", false, "regenerate Figure 7 (complementarity)")
	rq2 := flag.Bool("rq2", false, "regenerate the RQ2 reduction-quality medians")
	table4 := flag.Bool("table4", false, "regenerate Table 4 (deduplication)")
	bisectRQ := flag.Bool("bisect", false, "run the bisection RQ: transform vs bisect vs intersection dedup on the Table 4 corpus")
	exportReports := flag.String("export-reports", "", "reduce and export a bug-report bundle per distinct signature (Section 5 mode)")
	all := flag.Bool("all", false, "regenerate everything")
	asJSON := flag.Bool("json", false, "emit per-tool campaign summaries as JSON (the shape spirvd serves) instead of tables")
	clusterProbe := flag.Int("cluster-probe", 0, "run a small probe campaign over this many in-process cluster nodes and report transfer/prefetch/shard-sizing counters")
	flag.Parse()

	if *listTargets {
		fmt.Print(experiments.Table2())
		return
	}
	if *listRefs {
		for _, item := range corpus.References() {
			img, err := interp.Render(item.Mod, item.Inputs)
			if err != nil {
				fatal(err)
			}
			fmt.Printf("%-12s %4d instructions  image %s\n", item.Name, item.Mod.InstructionCount(), img.Hash())
		}
		return
	}
	if *all {
		*table3, *venn, *rq2, *table4, *bisectRQ = true, true, true, true, true
	}
	if !*table3 && !*venn && !*rq2 && !*table4 && !*bisectRQ && *exportReports == "" && !*asJSON && *clusterProbe <= 0 {
		fmt.Fprintln(os.Stderr, "gfauto: nothing to do; pass -table3/-venn/-rq2/-table4/-bisect/-cluster-probe/-all/-json or -list-targets")
		flag.Usage()
		os.Exit(2)
	}

	start := time.Now()
	if !*asJSON {
		fmt.Printf("gfauto: running 3 campaigns of %d tests each over 9 targets...\n", *tests)
	}
	c, err := experiments.RunCampaigns(experiments.Config{
		Tests: *tests, Groups: *groups, CapPerSignature: *capPerSig,
		Workers: *workers,
		MemoDir: *memoDir, MemoMaxMB: *memoMaxMB,
	})
	fatal(err)
	if c.Memo != nil {
		defer func() { fatal(c.Memo.Close()) }()
	}
	if !*asJSON {
		st := c.Env.Eng.Stats()
		fmt.Printf("gfauto: campaigns done in %v (%d workers, %d target runs, %.0f%% cache hit rate)\n",
			time.Since(start).Round(time.Millisecond), st.Workers, st.Misses, 100*st.HitRate())
		fmt.Printf("gfauto: shared compiles: %d compiled, %d shared (%.0f%% of compile lookups)\n",
			st.CompileMisses, st.CompileHits, 100*ratio(st.CompileHits, st.CompileHits+st.CompileMisses))
		if st.MemoHits+st.MemoMisses > 0 {
			fmt.Printf("gfauto: memo store: %d disk hits, %d misses, %d spilled (%.0f%% warm)\n",
				st.MemoHits, st.MemoMisses, st.MemoSpills,
				100*ratio(st.MemoHits, st.MemoHits+st.MemoMisses))
		}
		fmt.Printf("gfauto: interp plans: %d modules lowered in %v\n",
			st.RenderMisses, time.Duration(st.PlanCompileNanos).Round(time.Millisecond))
		for _, p := range st.OptPasses {
			fmt.Printf("gfauto: opt pass %-18s %7d runs  %7d changed  %8v\n",
				p.Name, p.Runs, p.Changed, time.Duration(p.Nanos).Round(time.Millisecond))
		}
		fmt.Println()
	}

	// The bisection RQ runs before the -json dump so its counters are
	// included when both flags are set.
	var bisectRes *experiments.BisectRQResult
	if *bisectRQ {
		bisectRes, err = experiments.BisectRQ(c)
		fatal(err)
	}

	// The cluster probe is a real measurement, not a replay of counters: a
	// small campaign runs over N in-process nodes (loopback HTTP, pipelined
	// transport) and the transfer/prefetch/shard-sizing counters that
	// produced are reported.
	var probeCluster *cluster.ClusterStats
	var probeWire *cluster.WireStats
	if *clusterProbe > 0 {
		cs, ws, err := clusterProbeRun(*clusterProbe)
		fatal(err)
		probeCluster, probeWire = &cs, &ws
		if !*asJSON {
			fmt.Printf("gfauto: cluster probe (%d nodes): %d shards done (%d prefetched, %d requeued, %d duplicate), %d round trips, %d wire / %d raw bytes, blob dedup %.0f%%\n",
				*clusterProbe, cs.ShardsCompleted, cs.Sync.Prefetched, cs.ShardsRequeued, cs.ShardsDuplicate,
				ws.RoundTrips, ws.WireBytesOut+ws.WireBytesIn, ws.RawBytesOut+ws.RawBytesIn,
				100*cs.BlobDedupFraction)
			for _, sz := range cs.Sizing {
				fmt.Printf("gfauto: cluster probe sizing: %-6s shard size %d/%d (unit %.1fms, sync %.1fms, %d resizes)\n",
					sz.Phase, sz.Size, sz.MaxSize, sz.UnitMS, sz.SyncMS, sz.Resizes)
			}
		}
	}

	if *asJSON {
		var memoStats *memostore.Stats
		if c.Memo != nil {
			ms := c.Memo.Stats()
			memoStats = &ms
		}
		out, err := json.MarshalIndent(struct {
			Campaigns []service.CampaignStatus `json:"campaigns"`
			Runner    runner.Stats             `json:"runner"`
			Bisect    bisect.Stats             `json:"bisect"`
			Memo      *memostore.Stats         `json:"memo,omitempty"`
			Cluster   *cluster.ClusterStats    `json:"cluster,omitempty"`
			Wire      *cluster.WireStats       `json:"wire,omitempty"`
		}{campaignSummaries(c), c.Env.Eng.Stats(), c.Bisect.Stats(), memoStats, probeCluster, probeWire}, "", "  ")
		fatal(err)
		fmt.Println(string(out))
	}

	if *table3 {
		fmt.Println(experiments.RenderTable3(experiments.Table3(c)))
	}
	if *venn {
		fmt.Println(experiments.RenderFigure7(experiments.Figure7(c)))
	}
	if *rq2 {
		fmt.Println(experiments.RenderRQ2(experiments.RQ2(c)))
	}
	if *table4 {
		fmt.Println(experiments.RenderTable4(experiments.Table4(c)))
	}
	if bisectRes != nil {
		fmt.Println(experiments.RenderBisectRQ(bisectRes))
	}
	if *exportReports != "" {
		rep, err := experiments.ExportWildReports(c, *exportReports)
		fatal(err)
		fmt.Println(experiments.RenderWild(rep))
	}
	if rst := c.Env.Reng.Stats(); rst.Queries > 0 {
		fmt.Printf("gfauto: replay: %d queries, %d transformations applied\n", rst.Queries, rst.Applied)
	}
}

// campaignSummaries renders the three experiment campaigns in the shape the
// spirvd daemon serves (service.CampaignStatus), one entry per tool
// configuration, so scripted consumers can treat one-shot gfauto runs and
// daemon campaigns uniformly.
func campaignSummaries(c *experiments.Campaigns) []service.CampaignStatus {
	var out []service.CampaignStatus
	for _, camp := range []*experiments.Campaign{c.Fuzz, c.Simple, c.Glsl} {
		out = append(out, service.CampaignStatus{
			ID:        camp.Spec.Tool,
			State:     service.StateDone,
			Spec:      camp.Spec,
			TestsDone: camp.Spec.Tests,
			Bugs:      camp.Bugs(),
		})
	}
	return out
}

// clusterProbeRun runs a small fixed campaign over an n-node in-process
// cluster — temp stores, loopback HTTP, pipelined transport, adaptive
// shards — and returns the coordinator's cluster counters plus the
// process-wide wire-transfer delta the probe produced.
func clusterProbeRun(n int) (cluster.ClusterStats, cluster.WireStats, error) {
	var zero cluster.ClusterStats
	var zw cluster.WireStats
	dir, err := os.MkdirTemp("", "gfauto-cluster-*")
	if err != nil {
		return zero, zw, err
	}
	defer os.RemoveAll(dir)
	st, err := store.Open(filepath.Join(dir, "hub"))
	if err != nil {
		return zero, zw, err
	}
	defer st.Close()
	co, err := cluster.NewCoordinator(st, cluster.Options{AdaptiveShards: true})
	if err != nil {
		return zero, zw, err
	}
	defer co.Close()
	before := cluster.SnapshotWire()
	sim, err := cluster.StartSim(co, n, dir, 2)
	if err != nil {
		return zero, zw, err
	}
	defer sim.Stop()
	status, err := co.CreateCampaign(service.CampaignSpec{Tests: 24})
	if err != nil {
		return zero, zw, err
	}
	deadline := time.Now().Add(120 * time.Second)
	for {
		cs, ok := co.Campaign(status.ID)
		if ok && cs.State == service.StateDone {
			break
		}
		if ok && cs.State == service.StateFailed {
			return zero, zw, fmt.Errorf("cluster probe campaign failed: %s", cs.Error)
		}
		if time.Now().After(deadline) {
			return zero, zw, fmt.Errorf("cluster probe campaign timed out")
		}
		time.Sleep(50 * time.Millisecond)
	}
	return co.Metrics().Cluster, cluster.SnapshotWire().Sub(before), nil
}

// ratio is a/b guarding the empty case.
func ratio(a, b uint64) float64 {
	if b == 0 {
		return 0
	}
	return float64(a) / float64(b)
}

func fatal(err error) {
	if err != nil {
		fmt.Fprintln(os.Stderr, "gfauto:", err)
		os.Exit(1)
	}
}
