// Package experiments regenerates the paper's tables and figures (Section
// 4): Table 3 and Figure 7 (bug-finding ability, RQ1), the reduction-quality
// medians (RQ2), Table 4 (deduplication effectiveness, RQ3), the bisection
// RQ and the Section 5 report export. The absolute numbers depend on the
// simulated targets' injected defects; the comparative shape is what
// reproduces the paper's findings.
//
// The campaigns run on internal/service's step functions, the ones spirvd
// journals: FuzzStep per test, SelectReductions, ReduceStep and BisectStep,
// over an in-memory blob store. gfauto is one-shot, so it shares the steps
// but not the daemon's journal.
package experiments

import (
	"context"
	"errors"
	"fmt"
	"strings"
	"sync"

	"spirvfuzz/internal/bisect"
	"spirvfuzz/internal/corpus"
	"spirvfuzz/internal/dedup"
	"spirvfuzz/internal/glslfuzz"
	"spirvfuzz/internal/harness"
	"spirvfuzz/internal/memostore"
	"spirvfuzz/internal/replay"
	"spirvfuzz/internal/runner"
	"spirvfuzz/internal/service"
	"spirvfuzz/internal/spirv"
	"spirvfuzz/internal/stats"
	"spirvfuzz/internal/target"
)

// Config scales the experiments. The paper uses 10,000 tests per tool in 10
// groups of 1,000; the default here is laptop-scale and adjustable.
type Config struct {
	Tests  int // tests per tool configuration (default 300)
	Groups int // disjoint groups for medians/MWU (default 10)
	// CapPerSignature caps reductions per bug signature (paper: 100 for
	// RQ2, 20 for the extra RQ3 targets; default 6).
	CapPerSignature int
	// Workers sizes the execution engine's worker pool (0: GOMAXPROCS).
	Workers int
	// MemoDir, when non-empty, attaches a persistent execution memo store:
	// a repeat run of the same experiments warm-starts from it, serving
	// previously-executed (module, target, inputs) results from disk.
	// Results are bitwise-identical with or without it.
	MemoDir string
	// MemoMaxMB bounds the memo store in MiB; <= 0 selects the default.
	MemoMaxMB int
}

func (c Config) withDefaults() Config {
	if c.Tests == 0 {
		c.Tests = 300
	}
	if c.Groups == 0 {
		c.Groups = 10
	}
	if c.CapPerSignature == 0 {
		c.CapPerSignature = 6
	}
	return c
}

// Campaign is one tool configuration's campaign in the journal's shape: the
// spec it ran and, per test index, the bugs the test found, in target order.
type Campaign struct {
	Spec  service.CampaignSpec
	Tests map[int][]service.BugRef
}

// Bugs counts the campaign's (test, target) bug findings.
func (c *Campaign) Bugs() int {
	n := 0
	for _, bugs := range c.Tests {
		n += len(bugs)
	}
	return n
}

// groupSignatures returns the distinct signatures found on target tg within
// each of groups disjoint, consecutive test groups (Table 3's median/MWU
// populations); one group gives the campaign's whole signature set.
func (c *Campaign) groupSignatures(tg string, groups int) []map[string]bool {
	if groups <= 0 {
		groups = 1
	}
	sets := make([]map[string]bool, groups)
	for g := range sets {
		sets[g] = map[string]bool{}
	}
	size := (c.Spec.Tests + groups - 1) / groups
	for i := 0; i < c.Spec.Tests; i++ {
		g := min(i/size, groups-1)
		for _, bug := range c.Tests[i] {
			if bug.Target == tg {
				sets[g][bug.Signature] = true
			}
		}
	}
	return sets
}

// signatures returns the distinct signatures the campaign found on tg.
func (c *Campaign) signatures(tg string) map[string]bool {
	return c.groupSignatures(tg, 1)[0]
}

// Campaigns holds the three tool configurations' campaigns over all targets
// and the reductions the experiments made of them.
type Campaigns struct {
	Config Config
	// Env is what the service's steps run on: the execution engine every
	// campaign, reduction and bisection shares, the replay engine that
	// counts every reduction's replays, and the in-memory blob store holding
	// the sequences, variants and reports.
	Env service.Env
	// Bisect is the bisection engine; its probes route through Env.Eng.
	Bisect *bisect.Engine
	// Memo is the persistent execution memo store attached to Env.Eng when
	// Config.MemoDir is set; nil otherwise. The caller that finished with
	// the campaigns closes it (gfauto does).
	Memo   *memostore.Store
	Fuzz   *Campaign // spirv-fuzz
	Simple *Campaign // spirv-fuzz-simple
	Glsl   *Campaign // glsl-fuzz
	refs   []corpus.Item

	mu      sync.Mutex
	reduced map[string]service.ReducedRec // by case name
}

// seedBases offsets each tool's test seeds so the configurations draw from
// disjoint seed ranges, as in the paper.
var seedBases = map[harness.Tool]int64{
	harness.ToolSpirvFuzzSimple: 1 << 32,
	harness.ToolGlslFuzz:        2 << 32,
}

// RunCampaigns executes the three campaigns of Section 4.1. The campaigns are
// independent (disjoint seed ranges) and run concurrently on one shared
// engine, whose content-addressed cache also deduplicates the work they share
// — every campaign runs the same reference originals on the same targets.
func RunCampaigns(cfg Config) (*Campaigns, error) {
	cfg = cfg.withDefaults()
	eng := runner.New(cfg.Workers)
	c := &Campaigns{
		Config:  cfg,
		Env:     service.Env{Eng: eng, Reng: new(replay.Engine), Blobs: &service.MemBlobs{}},
		Bisect:  bisect.New(eng),
		refs:    corpus.References(),
		reduced: map[string]service.ReducedRec{},
	}
	if cfg.MemoDir != "" {
		memo, err := memostore.Open(cfg.MemoDir, int64(cfg.MemoMaxMB)<<20)
		if err != nil {
			return nil, err
		}
		c.Memo = memo
		eng.SetMemoStore(memo)
	}
	var names []string
	for _, tg := range target.All() {
		names = append(names, tg.Name)
	}
	donors := corpus.Donors()
	tools := []harness.Tool{harness.ToolSpirvFuzz, harness.ToolSpirvFuzzSimple, harness.ToolGlslFuzz}
	camps := make([]*Campaign, len(tools))
	errs := make([]error, len(tools))
	var wg sync.WaitGroup
	for i, tool := range tools {
		spec := service.CampaignSpec{
			Tool:            string(tool),
			Tests:           cfg.Tests,
			SeedBase:        seedBases[tool],
			Targets:         names,
			CapPerSignature: cfg.CapPerSignature,
		}
		wg.Add(1)
		go func() {
			defer wg.Done()
			camps[i], errs[i] = RunCampaign(context.TODO(), c.Env, spec, c.refs, donors)
		}()
	}
	wg.Wait()
	if err := errors.Join(errs...); err != nil {
		return nil, err
	}
	c.Fuzz, c.Simple, c.Glsl = camps[0], camps[1], camps[2]
	return c, nil
}

// RunCampaign runs spec's tests on env's engine pool and keeps each test's
// bugs by index. spirv-fuzz tests run service.FuzzStep, exactly as spirvd
// runs them; glsl-fuzz, which the service refuses, runs glslStep. Every step
// is deterministic in its test index, so results are identical for any
// worker count.
func RunCampaign(ctx context.Context, env service.Env, spec service.CampaignSpec, refs []corpus.Item, donors []*spirv.Module) (*Campaign, error) {
	targets, err := service.ResolveTargets(spec.Targets)
	if err != nil {
		return nil, err
	}
	step := func(i int) ([]service.BugRef, error) {
		return service.FuzzStep(ctx, env, spec, targets, refs, donors, i)
	}
	if spec.Tool == string(harness.ToolGlslFuzz) {
		step = func(i int) ([]service.BugRef, error) {
			return glslStep(ctx, env.Eng, spec, targets, refs, i)
		}
	}
	bugs := make([][]service.BugRef, spec.Tests)
	errs := make([]error, spec.Tests)
	if err := env.Eng.DoCtx(ctx, spec.Tests, func(i int) { bugs[i], errs[i] = step(i) }); err != nil {
		return nil, err
	}
	camp := &Campaign{Spec: spec, Tests: make(map[int][]service.BugRef, spec.Tests)}
	for i := range bugs {
		if errs[i] != nil {
			return nil, errs[i]
		}
		camp.Tests[i] = bugs[i]
	}
	return camp, nil
}

// glslStep is FuzzStep for glsl-fuzz: it generates test i (seed SeedBase + i
// over reference i mod len(refs)) and classifies the variant against every
// target. A glsl-fuzz variant is a function of its reference and seed, not
// of a transformation sequence, so its bugs carry no blob hashes; RQ2
// regenerates the variants it reduces.
func glslStep(ctx context.Context, eng *runner.Engine, spec service.CampaignSpec, targets []*target.Target, refs []corpus.Item, i int) ([]service.BugRef, error) {
	item := refs[i%len(refs)]
	seed := spec.SeedBase + int64(i)
	res := glslfuzz.Fuzz(item.Mod, item.Inputs, glslfuzz.Options{Seed: seed})
	sigs, err := harness.ClassifyAllCtx(ctx, eng, targets, item.Mod, res.Variant, item.Inputs, item.Inputs)
	if err != nil {
		return nil, err
	}
	var bugs []service.BugRef
	for ti, tg := range targets {
		if sigs[ti] != "" {
			bugs = append(bugs, service.BugRef{Target: tg.Name, Signature: sigs[ti], Reference: item.Name, Seed: seed})
		}
	}
	return bugs, nil
}

// selected returns the campaign's reduction cases, service.SelectReductions
// at the configured cap, that keep accepts, in selection order. When keep
// depends only on a bug's target and signature, the selection's cap key,
// filtering the selection equals selecting from the filtered bugs.
func selected(camp *Campaign, keep func(service.BugRef) bool) []service.ReduceCase {
	var out []service.ReduceCase
	for _, rc := range service.SelectReductions(camp.Spec.Tool, camp.Spec, camp.Tests) {
		if keep(rc.Bug) {
			out = append(out, rc)
		}
	}
	return out
}

// reduceCases returns the records of the spirv-fuzz campaign's cases, in
// order. Each case is reduced by service.ReduceStep, so its record, query
// count included, is the one spirvd journals for it. A case is reduced the
// first time an experiment needs it and never again; the missing ones run
// concurrently on the engine's pool.
func (c *Campaigns) reduceCases(cases []service.ReduceCase) ([]service.ReducedRec, error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	var todo []service.ReduceCase
	for _, rc := range cases {
		if _, ok := c.reduced[rc.Name]; !ok {
			todo = append(todo, rc)
		}
	}
	ctx := context.TODO()
	recs := make([]service.ReducedRec, len(todo))
	errs := make([]error, len(todo))
	c.Env.Eng.DoCtx(ctx, len(todo), func(i int) {
		recs[i], errs[i] = service.ReduceStep(ctx, c.Env, c.Fuzz.Spec.Tool, c.Fuzz.Spec, c.refs, todo[i])
	})
	for i, rc := range todo {
		if errs[i] != nil {
			return nil, errs[i]
		}
		c.reduced[rc.Name] = recs[i]
	}
	out := make([]service.ReducedRec, len(cases))
	for i, rc := range cases {
		out[i] = c.reduced[rc.Name]
	}
	return out, nil
}

// must unwraps a result of the in-memory pipeline behind RQ2 and Table 4,
// which has no failure to report: every case comes from the campaign's own
// corpus and blob store, and nothing cancels its context.
func must[T any](v T, err error) T {
	if err != nil {
		panic(err)
	}
	return v
}

// dedupCase is a reduced case as the deduplicator takes it, its minimized
// sequence read from the case's report blob.
func (c *Campaigns) dedupCase(rec service.ReducedRec) (dedup.Case, error) {
	_, seq, err := service.LoadReport(c.Env.Blobs, rec.ReportHash)
	return dedup.Case{Name: rec.Case, Sequence: seq, Signature: rec.Signature}, err
}

// Table3Row is one row of Table 3.
type Table3Row struct {
	Target                            string
	TotalFuzz, TotalSimple, TotalGlsl int
	MedFuzz, MedSimple, MedGlsl       float64
	// ConfVsSimple and ConfVsGlsl are MWU confidences (in [0,1]) that
	// spirv-fuzz finds more distinct signatures per group.
	ConfVsSimple, ConfVsGlsl float64
}

// Table3 computes Table 3 from campaign data, including the "All" row.
func Table3(c *Campaigns) []Table3Row {
	var rows []Table3Row
	totalFuzz, totalSimple, totalGlsl := map[string]bool{}, map[string]bool{}, map[string]bool{}
	groups := max(c.Config.Groups, 1)
	allGroupFuzz := make([]float64, groups)
	allGroupSimple := make([]float64, groups)
	allGroupGlsl := make([]float64, groups)
	for _, tg := range target.All() {
		name := tg.Name
		gf := groupCounts(c.Fuzz, name, groups)
		gs := groupCounts(c.Simple, name, groups)
		gg := groupCounts(c.Glsl, name, groups)
		for i := range gf {
			allGroupFuzz[i] += gf[i]
			allGroupSimple[i] += gs[i]
			allGroupGlsl[i] += gg[i]
		}
		_, confSimple := stats.MannWhitneyU(gf, gs)
		_, confGlsl := stats.MannWhitneyU(gf, gg)
		fuzzSigs, simpleSigs, glslSigs := c.Fuzz.signatures(name), c.Simple.signatures(name), c.Glsl.signatures(name)
		rows = append(rows, Table3Row{
			Target:       name,
			TotalFuzz:    len(fuzzSigs),
			TotalSimple:  len(simpleSigs),
			TotalGlsl:    len(glslSigs),
			MedFuzz:      stats.Median(gf),
			MedSimple:    stats.Median(gs),
			MedGlsl:      stats.Median(gg),
			ConfVsSimple: confSimple,
			ConfVsGlsl:   confGlsl,
		})
		for s := range fuzzSigs {
			totalFuzz[name+"|"+s] = true
		}
		for s := range simpleSigs {
			totalSimple[name+"|"+s] = true
		}
		for s := range glslSigs {
			totalGlsl[name+"|"+s] = true
		}
	}
	_, confSimple := stats.MannWhitneyU(allGroupFuzz, allGroupSimple)
	_, confGlsl := stats.MannWhitneyU(allGroupFuzz, allGroupGlsl)
	rows = append(rows, Table3Row{
		Target:       "All",
		TotalFuzz:    len(totalFuzz),
		TotalSimple:  len(totalSimple),
		TotalGlsl:    len(totalGlsl),
		MedFuzz:      stats.Median(allGroupFuzz),
		MedSimple:    stats.Median(allGroupSimple),
		MedGlsl:      stats.Median(allGroupGlsl),
		ConfVsSimple: confSimple,
		ConfVsGlsl:   confGlsl,
	})
	return rows
}

// RenderTable3 formats Table 3 as text.
func RenderTable3(rows []Table3Row) string {
	var sb strings.Builder
	sb.WriteString("Table 3: distinct bug signatures (totals and per-group medians)\n")
	fmt.Fprintf(&sb, "%-14s %22s %22s %22s  %s\n", "Target",
		"spirv-fuzz(tot/med)", "simple(tot/med)", "glsl-fuzz(tot/med)", "beats simple? / glsl?")
	for _, r := range rows {
		fmt.Fprintf(&sb, "%-14s %15d/%5.1f %16d/%5.1f %16d/%5.1f  %s(%5.2f%%) / %s(%5.2f%%)\n",
			r.Target,
			r.TotalFuzz, r.MedFuzz, r.TotalSimple, r.MedSimple, r.TotalGlsl, r.MedGlsl,
			yesNo(r.ConfVsSimple), 100*r.ConfVsSimple,
			yesNo(r.ConfVsGlsl), 100*r.ConfVsGlsl)
	}
	return sb.String()
}

func yesNo(conf float64) string {
	if conf > 0.5 {
		return "Yes"
	}
	return "No"
}

// Figure7Segment is one target's Venn segment counts, masks as in
// stats.VennCounts3 with bit0=spirv-fuzz, bit1=spirv-fuzz-simple,
// bit2=glsl-fuzz.
type Figure7Segment struct {
	Target string
	Counts map[int]int
}

// Figure7 computes the Venn complementarity data.
func Figure7(c *Campaigns) []Figure7Segment {
	var out []Figure7Segment
	allF, allS, allG := map[string]bool{}, map[string]bool{}, map[string]bool{}
	for _, tg := range target.All() {
		name := tg.Name
		f, s, g := c.Fuzz.signatures(name), c.Simple.signatures(name), c.Glsl.signatures(name)
		out = append(out, Figure7Segment{Target: name, Counts: stats.VennCounts3(f, s, g)})
		for k := range f {
			allF[name+"|"+k] = true
		}
		for k := range s {
			allS[name+"|"+k] = true
		}
		for k := range g {
			allG[name+"|"+k] = true
		}
	}
	out = append(out, Figure7Segment{Target: "All", Counts: stats.VennCounts3(allF, allS, allG)})
	return out
}

// RenderFigure7 formats the Venn data as text.
func RenderFigure7(segs []Figure7Segment) string {
	var sb strings.Builder
	sb.WriteString("Figure 7: bug-signature complementarity (F=spirv-fuzz, S=simple, G=glsl-fuzz)\n")
	fmt.Fprintf(&sb, "%-14s %6s %6s %6s %6s %6s %6s %6s\n", "Target",
		"F", "S", "G", "F∩S", "F∩G", "S∩G", "F∩S∩G")
	for _, seg := range segs {
		fmt.Fprintf(&sb, "%-14s %6d %6d %6d %6d %6d %6d %6d\n", seg.Target,
			seg.Counts[1], seg.Counts[2], seg.Counts[4],
			seg.Counts[3], seg.Counts[5], seg.Counts[6], seg.Counts[7])
	}
	return sb.String()
}

// groupCounts is the per-group distinct-signature count of camp on tg, as
// Mann-Whitney U input.
func groupCounts(camp *Campaign, tg string, groups int) []float64 {
	sets := camp.groupSignatures(tg, groups)
	out := make([]float64, len(sets))
	for g, set := range sets {
		out[g] = float64(len(set))
	}
	return out
}
