// Command e2ebench is spirvfuzz's end-to-end campaign benchmark. One run
// drives real spirvd campaigns — fuzz, classify on all nine targets, reduce,
// bucket — each followed by a bisect job, from a closed-loop client with one
// job in flight, checks every served result against a serial reference, and
// prints its metrics as one JSON object on the last line of standard output.
//
// With -trace 0 it reports the end-to-end metrics of the untraced loop. With
// -trace 1 it reports the per-layer ledger: for the standalone workloads a
// serial run of the same steps with every layer call spanned, for the
// cluster workload counter deltas around the untraced loop.
//
//	bash e2ebench/run.sh --workload reduce-bisect --seed 1 --seconds 10 --trace 0
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"time"

	"spirvfuzz/internal/interp"
	"spirvfuzz/internal/opt"
	"spirvfuzz/internal/runner"
	"spirvfuzz/internal/service"
	"spirvfuzz/internal/store"
)

// Bounds of one run: at least minSamples timed jobs, and everything done
// well inside the 180 s a run may take.
const (
	minSamples = 3
	runLimit   = 170 * time.Second
)

func main() {
	name := flag.String("workload", "", "workload: reduce-bisect, cluster or memo-repeat")
	seed := flag.Int64("seed", 1, "workload seed: sample i campaigns with SeedBase seed*1000000 + i*tests")
	seconds := flag.Int("seconds", 10, "how long to keep submitting jobs")
	trace := flag.Int("trace", 0, "0: end-to-end metrics; 1: per-layer metrics")
	workdir := flag.String("workdir", filepath.Join(".bench_build", "work"), "scratch directory for stores")
	flag.Parse()

	w, err := findWorkload(*name)
	if err == nil && (*trace < 0 || *trace > 1) {
		err = fmt.Errorf("-trace must be 0 or 1, got %d", *trace)
	}
	if err == nil && *seconds < 1 {
		err = fmt.Errorf("-seconds must be at least 1, got %d", *seconds)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "e2ebench:", err)
		os.Exit(2)
	}
	ctx, cancel := context.WithTimeout(context.Background(), runLimit)
	defer cancel()
	res, err := run(ctx, w, *seed, time.Duration(*seconds)*time.Second, *trace == 1, *workdir)
	if err != nil {
		fmt.Fprintln(os.Stderr, "e2ebench:", err)
		os.Exit(1)
	}
	fmt.Println(res)
	if !res.Correct {
		os.Exit(1)
	}
}

// run measures workload w once and returns the printed result.
func run(ctx context.Context, w workload, seed int64, budget time.Duration, trace bool, workdir string) (result, error) {
	spec := w.spec(seed, 0)
	if err := refusePacing(spec, nil); err != nil {
		return result{}, err
	}
	base := filepath.Join(workdir, fmt.Sprintf("%s-%d", w.name, os.Getpid()))
	if err := os.MkdirAll(base, 0o755); err != nil {
		return result{}, err
	}
	defer os.RemoveAll(base)
	if trace && w.kind != "cluster" {
		return runTraced(ctx, w, spec, budget, base)
	}
	return runLoop(ctx, w, seed, budget, base, trace)
}

// tally counts submitted and failed jobs. A job fails if the daemon ends it
// failed or if what it served differs from the reference.
type tally struct{ attempted, failed int }

func (t *tally) result(vals map[string]float64, defs []metricDef) (result, error) {
	m, err := fill(defs, vals)
	if err != nil {
		return result{}, err
	}
	return result{Correct: t.failed == 0, Attempted: t.attempted, Failed: t.failed, Metrics: m}, nil
}

func (t *tally) failedFrac() float64 {
	return frac(float64(t.failed), float64(t.attempted))
}

func (t *tally) fail(format string, args ...any) {
	t.failed++
	fmt.Fprintf(os.Stderr, "e2ebench: FAIL "+format+"\n", args...)
}

// runLoop is the untraced closed loop. Each iteration is one sample — a
// set-up and one timed client job — on a campaign of its own, followed by
// the serial reference for that campaign, against which the sample is
// checked. The first iteration is a warm-up that fills the page cache and
// the heap: it is checked but not timed, and the first timed sample runs
// its campaign again. Iterations repeat until the budget is spent. With
// trace it reports the cluster's counter deltas instead of end-to-end
// metrics.
func runLoop(ctx context.Context, w workload, seed int64, budget time.Duration, base string, trace bool) (result, error) {
	var t tally
	var samples []sample
	var first pass // the warm-up's reference
	var deadline time.Time
	for i := 0; len(samples) < minSamples || time.Now().Before(deadline); i++ {
		spec := w.spec(seed, len(samples))
		sampleDir := filepath.Join(base, fmt.Sprintf("sample%d", i))
		s, err := sampleOne(ctx, w, sampleDir, spec)
		t.attempted += 2
		if errors.Is(err, errJobFailed) {
			t.fail("%v", err)
			if err := os.RemoveAll(sampleDir); err != nil {
				return result{}, err
			}
			if i >= 2*minSamples && len(samples) == 0 {
				return result{}, fmt.Errorf("every job failed: %w", err)
			}
			continue
		}
		if err != nil {
			return result{}, err
		}
		refDir := filepath.Join(base, fmt.Sprintf("reference%d", i))
		ref, err := driverPass(ctx, refDir, spec, false, engineWorkers, "", s.got.campaign, s.got.job)
		if err != nil {
			return result{}, fmt.Errorf("reference %d: %w", i, err)
		}
		checkSample(&t, i, s, ref)
		if err := removeDirs(sampleDir, refDir); err != nil {
			return result{}, err
		}
		if deadline.IsZero() {
			first, deadline = ref, time.Now().Add(budget)
			continue
		}
		samples = append(samples, s)
	}
	peak := peakRSSMiB()

	var walls, setups, cpus, allocs, probes []float64
	var layers []map[string]float64
	for _, s := range samples {
		probes = append(probes, s.probes[0].Seconds(), s.probes[1].Seconds())
		walls = append(walls, s.wall.Seconds())
		for _, d := range s.setups {
			setups = append(setups, d.Seconds())
		}
		cpus = append(cpus, s.cpu.Seconds())
		allocs = append(allocs, float64(s.allocBytes)/(1<<20))
		layers = append(layers, s.layers)
	}
	fmt.Fprintf(os.Stderr, "e2ebench: %s: %d samples, first campaign %d reduced cases, wall %v, digest %s\n", w.name, len(samples), len(first.reduced), walls, first.digest[:16])
	scale := hostScale(probes)
	fmt.Fprintf(os.Stderr, "e2ebench: host probe median %.4f s (scale %.4f); as measured: wall_s %.4f, setup_s %.6f, cpu_s %.4f\n", median(probes), scale, median(walls), median(setups), median(cpus))
	if trace {
		v := medians(layers)
		v["service.failed_frac"] = t.failedFrac()
		v["reduce.median_delta"] = medianDelta(first.reduced)
		return t.result(v, perLayer)
	}
	return t.result(map[string]float64{
		"wall_s":      median(walls) * scale,
		"setup_s":     median(setups) * scale,
		"cpu_s":       median(cpus) * scale,
		"peak_rss_mb": peak,
		"alloc_mb":    median(allocs),
	}, endToEnd)
}

// checkSample holds one sample's served results and journaled reductions to
// the reference, counting the campaign or bisect job failed on a mismatch.
func checkSample(t *tally, i int, s sample, ref pass) {
	if d := digestBuckets(s.got.buckets); d != digestBuckets(ref.out.Buckets) {
		t.fail("sample %d: bucket set %s, reference %s", i, d, digestBuckets(ref.out.Buckets))
	} else if diff := sameRecords(s.reduced, ref.reduced); diff != "" {
		t.fail("sample %d: journaled reductions differ from the reference: %s", i, diff)
	} else if s.coldDigest != "" && s.coldDigest != s.digest {
		t.fail("sample %d: warm job served %s, its cold set-up job %s", i, s.digest, s.coldDigest)
	}
	if d := digestBisect(s.got.bisect); d != digestBisect(ref.out.Bisect) {
		t.fail("sample %d: bisect set %s, reference %s", i, d, digestBisect(ref.out.Bisect))
	}
}

// runTraced is the per-layer run of a standalone workload: one service
// sample supplies the records the traced run must reproduce and the job
// queue's counters, then serial passes of the step driver alternate
// untraced and traced until the budget is spent. The layer metrics are
// medians over the traced passes; the tracing overhead compares the two
// kinds of pass.
func runTraced(ctx context.Context, w workload, spec service.CampaignSpec, budget time.Duration, base string) (result, error) {
	var t tally
	svcDir := filepath.Join(base, "service")
	s, err := runService(ctx, svcDir, spec, w.kind == "memo")
	t.attempted += 2
	if errors.Is(err, errJobFailed) {
		t.fail("%v", err)
		v := zeroLayers()
		v["service.failed_frac"] = t.failedFrac()
		return t.result(v, perLayer)
	}
	if err != nil {
		return result{}, err
	}
	if s.coldDigest != "" && s.coldDigest != s.digest {
		t.fail("warm job served %s, its cold set-up job %s", s.digest, s.coldDigest)
	}
	memoDir := ""
	if w.kind == "memo" {
		memoDir = filepath.Join(svcDir, "memo")
	}

	var traced []map[string]float64
	var tracedWalls, plainWalls []float64
	deadline := time.Now().Add(budget)
	for i := 0; i == 0 || time.Now().Before(deadline); i++ {
		// Alternate which kind goes first, so neither always runs warmer.
		for _, on := range []bool{i%2 == 1, i%2 == 0} {
			dir := filepath.Join(base, fmt.Sprintf("pass%d-%v", i, on))
			p, err := driverPass(ctx, dir, spec, on, tracedWorkers, memoDir, s.got.campaign, s.got.job)
			t.attempted += 2
			if err != nil {
				return result{}, err
			}
			if err := removeDirs(dir); err != nil {
				return result{}, err
			}
			if p.digest != s.digest {
				t.fail("pass %d (traced %v): served %s, the service %s", i, on, p.digest, s.digest)
			}
			if diff := sameRecords(p.reduced, s.reduced); diff != "" {
				t.fail("pass %d (traced %v): reductions differ from the service's: %s", i, on, diff)
			}
			if on {
				traced = append(traced, p.layers)
				tracedWalls = append(tracedWalls, p.wall.Seconds())
			} else {
				plainWalls = append(plainWalls, p.wall.Seconds())
			}
		}
	}
	fmt.Fprintf(os.Stderr, "e2ebench: %s: traced %v, untraced %v, digest %s\n", w.name, tracedWalls, plainWalls, s.digest[:16])
	v := medians(traced)
	v["ledger.trace_overhead_frac"] = median(tracedWalls)/median(plainWalls) - 1
	for name, x := range s.layers {
		v[name] = x
	}
	v["service.failed_frac"] = t.failedFrac()
	v["reduce.median_delta"] = medianDelta(s.reduced)
	return t.result(v, perLayer)
}

// removeDirs deletes the stores of a checked sample or pass, so a run holds
// one sample's files at a time in its work directory, which run.sh mounts
// in memory.
func removeDirs(dirs ...string) error {
	for _, d := range dirs {
		if err := os.RemoveAll(d); err != nil {
			return err
		}
	}
	return nil
}

// pass is one run of the step driver.
type pass struct {
	wall    time.Duration
	out     *jobRecords
	reduced []service.ReducedRec // out.Reduced sorted by case
	digest  string
	layers  map[string]float64 // traced passes only
}

// driverPass runs the step driver once over a fresh store in dir, traced or
// not, under the given campaign and job IDs (so report hashes match the
// service run it is compared with).
func driverPass(ctx context.Context, dir string, spec service.CampaignSpec, traced bool, workers int, memoDir, campaignID, jobID string) (p pass, err error) {
	st, err := store.Open(filepath.Join(dir, "store"))
	if err != nil {
		return p, err
	}
	defer func() {
		if cerr := st.Close(); err == nil {
			err = cerr
		}
	}()
	var rec *recorder
	if traced {
		rec = newRecorder()
	}
	d, err := newStepDriver(rec, st, workers, memoDir)
	if err != nil {
		return p, err
	}
	optBefore, laneBefore := opt.PassStats(), interp.LaneTotals()
	out, wall, err := d.runJob(ctx, spec, campaignID, jobID)
	optAfter, laneAfter := opt.PassStats(), interp.LaneTotals()
	if cerr := d.close(); err == nil {
		err = cerr
	}
	if err != nil {
		return p, err
	}
	p = pass{wall: wall, out: out, reduced: sortedRecs(out.Reduced), digest: digest(out.Buckets, out.Bisect)}
	if traced {
		p.layers = driverLayers(d, optBefore, optAfter, laneAfter.Groups-laneBefore.Groups)
	}
	return p, nil
}

// driverLayers reads a traced pass's ledger and counters into the per-layer
// metrics.
func driverLayers(d *stepDriver, optBefore, optAfter []opt.PassStat, laneGroups uint64) map[string]float64 {
	self, unattributed, total := d.rec.ledger(d.root)
	sec := func(layer string) float64 { return self[layer].Seconds() }
	v := zeroLayers()
	v["fuzz.s"] = sec("fuzz")
	v["fuzz.calls"] = float64(d.counts.fuzzCalls)
	v["fuzz.transformations"] = float64(d.counts.transformations)
	v["harness.classify_s"] = sec("harness.classify")
	v["harness.classify_calls"] = float64(d.counts.classifyCalls)

	rs := d.eng.Stats()
	runnerLayers(v, rs)
	optLayers(v, optDelta(optBefore, optAfter))
	v["interp.plan_s"] = float64(rs.PlanCompileNanos) / 1e9
	v["interp.lane_groups"] = float64(laneGroups)
	// Runner busy time outside the optimizer and plan lowering, over the
	// fuzz and reduce stages (bisection's runner calls are inside bisect.s).
	var campaignOpt int64
	for _, ps := range optDelta(optBefore, d.preBisectOpt) {
		campaignOpt += ps.Nanos
	}
	v["runner.other_s"] = sec("harness.classify") + sec("reduce.oracle") - float64(campaignOpt+d.preBisectPlan)/1e9

	var caseMS []float64
	for _, dur := range d.rec.durations("reduce") {
		caseMS = append(caseMS, float64(dur)/1e6)
		v["reduce.s"] += dur.Seconds()
	}
	v["reduce.cases"] = float64(len(caseMS))
	v["reduce.case_ms.p50"] = percentile(caseMS, 50)
	v["reduce.case_ms.p90"] = percentile(caseMS, 90)
	v["reduce.oracle_s"] = sec("reduce.oracle")
	v["reduce.oracle_calls"] = float64(d.counts.oracleCalls.Load())
	v["reduce.queries"] = float64(d.counts.queries)
	v["reduce.useful_query_frac"] = frac(float64(d.counts.queries), float64(d.counts.oracleCalls.Load()))
	v["reduce.self_s"] = sec("reduce")

	rp := d.reng.Stats()
	v["replay.queries"] = float64(rp.Queries)
	v["replay.hit_rate"] = rp.HitRate()
	v["replay.saved_frac"] = rp.SavedFraction()
	v["replay.applied"] = float64(rp.Applied)

	bs := d.beng.Stats()
	v["bisect.s"] = sec("bisect")
	v["bisect.variant_s"] = sec("bisect.variant")
	v["bisect.queries"] = float64(bs.Queries)
	v["bisect.cache_hit_frac"] = bs.HitFraction()
	v["bisect.compiles"] = float64(bs.Compiles)
	v["dedup.s"] = sec("dedup")
	v["service.select_s"] = sec("service.select")

	v["store.put_s"] = sec("store.put")
	v["store.puts"] = float64(d.counts.puts.Load())
	v["store.put_bytes"] = float64(d.counts.putBytes.Load())
	v["store.get_s"] = sec("store.get")
	v["store.gets"] = float64(d.counts.gets.Load())
	v["store.journal_append_s"] = sec("store.journal_append")
	v["store.journal_appends"] = float64(d.counts.appends)
	v["store.journal_sync_s"] = sec("store.journal_sync")
	v["store.checkpoint_s"] = sec("store.checkpoint")

	if d.memo != nil {
		ms := d.memo.Stats()
		v["memostore.hits"] = float64(ms.Hits)
		v["memostore.misses"] = float64(ms.Misses)
		v["memostore.hit_rate"] = ms.HitRate()
		v["memostore.spills"] = float64(ms.Spills)
		v["memostore.spills_dropped"] = float64(ms.SpillsDropped)
		v["memostore.bytes"] = float64(ms.Bytes)
		v["memostore.compactions"] = float64(ms.Compactions)
		for _, dur := range d.rec.durations("memostore.open") {
			v["memostore.open_s"] += dur.Seconds()
		}
	}
	v["ledger.job_s"] = total.Seconds()
	v["ledger.unattributed_frac"] = frac(unattributed.Seconds(), total.Seconds())
	return v
}

// runnerLayers copies the runner's cache counters into v.
func runnerLayers(v map[string]float64, rs runner.Stats) {
	v["runner.result_hits"] = float64(rs.Hits)
	v["runner.result_misses"] = float64(rs.Misses)
	v["runner.compile_hits"] = float64(rs.CompileHits)
	v["runner.compile_misses"] = float64(rs.CompileMisses)
	v["runner.render_hits"] = float64(rs.RenderHits)
	v["runner.render_misses"] = float64(rs.RenderMisses)
	v["runner.plan_hits"] = float64(rs.PlanHits)
	v["runner.plan_misses"] = float64(rs.PlanMisses)
	v["runner.hit_rate"] = rs.HitRate()
	v["runner.evictions"] = float64(rs.Evictions)
	v["runner.singleflight_hits"] = float64(rs.SingleflightHits)
}

// optLayers copies a pass-profile delta into v: the standard passes one by
// one, and opt.s over every pass run, injected defect passes included.
func optLayers(v map[string]float64, delta map[string]opt.PassStat) {
	var total int64
	for _, ps := range delta {
		total += ps.Nanos
	}
	v["opt.s"] = float64(total) / 1e9
	for _, name := range optPasses {
		ps := delta[name]
		v["opt."+name+".s"] = float64(ps.Nanos) / 1e9
		v["opt."+name+".runs"] = float64(ps.Runs)
		v["opt."+name+".changed_frac"] = frac(float64(ps.Changed), float64(ps.Runs))
	}
}

// optDelta is the per-pass growth of the process-wide optimizer profile
// between two snapshots.
func optDelta(before, after []opt.PassStat) map[string]opt.PassStat {
	prev := make(map[string]opt.PassStat, len(before))
	for _, ps := range before {
		prev[ps.Name] = ps
	}
	out := make(map[string]opt.PassStat, len(after))
	for _, ps := range after {
		b := prev[ps.Name]
		ps.Runs -= b.Runs
		ps.Changed -= b.Changed
		ps.Nanos -= b.Nanos
		out[ps.Name] = ps
	}
	return out
}
