package main

import (
	"encoding/json"
	"fmt"
	"math"
	"runtime"
	"sort"
	"syscall"
	"time"
)

// metricDef names one reported metric. The lists below are the benchmark's
// contract with BENCHMARK.json, which the tests hold them to.
type metricDef struct {
	Name, Unit, Better string
}

// endToEnd are the metrics a user of spirvd sees, reported with -trace 0.
var endToEnd = []metricDef{
	{"wall_s", "s", "lower"},
	{"setup_s", "s", "lower"},
	{"cpu_s", "s", "lower"},
	{"peak_rss_mb", "MiB", "lower"},
	{"alloc_mb", "MiB", "lower"},
}

// optPasses are the standard optimizer pipeline's passes (opt.Standard).
var optPasses = []string{
	"block-layout", "constant-fold", "copy-propagate", "cse-local",
	"dce", "eliminate-dead-blocks", "inline", "merge-blocks",
}

// clusterPhases are the cluster coordinator's shard phases.
var clusterPhases = []string{"fuzz", "reduce", "bisect"}

// perLayer are the single-layer metrics, reported with -trace 1. A layer
// that does not run on a workload reports 0.
var perLayer = func() []metricDef {
	s, n, f, b, ms := "s", "count", "frac", "bytes", "ms"
	defs := []metricDef{
		{"fuzz.s", s, "lower"},
		{"fuzz.calls", n, "lower"},
		{"fuzz.transformations", n, "lower"},
		{"harness.classify_s", s, "lower"},
		{"harness.classify_calls", n, "lower"},
	}
	for _, layer := range []string{"result", "compile", "render", "plan"} {
		defs = append(defs, metricDef{"runner." + layer + "_hits", n, "higher"}, metricDef{"runner." + layer + "_misses", n, "lower"})
	}
	defs = append(defs,
		metricDef{"runner.hit_rate", f, "higher"},
		metricDef{"runner.evictions", n, "lower"},
		metricDef{"runner.singleflight_hits", n, "higher"},
		metricDef{"runner.other_s", s, "lower"},
	)
	for _, p := range optPasses {
		defs = append(defs, metricDef{"opt." + p + ".s", s, "lower"}, metricDef{"opt." + p + ".runs", n, "lower"}, metricDef{"opt." + p + ".changed_frac", f, "higher"})
	}
	defs = append(defs,
		metricDef{"opt.s", s, "lower"},
		metricDef{"interp.plan_s", s, "lower"},
		metricDef{"interp.lane_groups", n, "lower"},
		metricDef{"reduce.s", s, "lower"},
		metricDef{"reduce.cases", n, "lower"},
		metricDef{"reduce.case_ms.p50", ms, "lower"},
		metricDef{"reduce.case_ms.p90", ms, "lower"},
		metricDef{"reduce.oracle_s", s, "lower"},
		metricDef{"reduce.oracle_calls", n, "lower"},
		metricDef{"reduce.queries", n, "lower"},
		metricDef{"reduce.useful_query_frac", f, "higher"},
		metricDef{"reduce.self_s", s, "lower"},
		metricDef{"reduce.median_delta", "instructions", "lower"},
		metricDef{"replay.queries", n, "lower"},
		metricDef{"replay.hit_rate", f, "higher"},
		metricDef{"replay.saved_frac", f, "higher"},
		metricDef{"replay.applied", n, "lower"},
		metricDef{"bisect.s", s, "lower"},
		metricDef{"bisect.variant_s", s, "lower"},
		metricDef{"bisect.queries", n, "lower"},
		metricDef{"bisect.cache_hit_frac", f, "higher"},
		metricDef{"bisect.compiles", n, "lower"},
		metricDef{"dedup.s", s, "lower"},
		metricDef{"service.select_s", s, "lower"},
		metricDef{"store.put_s", s, "lower"},
		metricDef{"store.puts", n, "lower"},
		metricDef{"store.put_bytes", b, "lower"},
		metricDef{"store.get_s", s, "lower"},
		metricDef{"store.gets", n, "lower"},
		metricDef{"store.journal_append_s", s, "lower"},
		metricDef{"store.journal_appends", n, "lower"},
		metricDef{"store.journal_sync_s", s, "lower"},
		metricDef{"store.checkpoint_s", s, "lower"},
		metricDef{"memostore.hits", n, "higher"},
		metricDef{"memostore.misses", n, "lower"},
		metricDef{"memostore.hit_rate", f, "higher"},
		metricDef{"memostore.spills", n, "lower"},
		metricDef{"memostore.spills_dropped", n, "lower"},
		metricDef{"memostore.bytes", b, "lower"},
		metricDef{"memostore.compactions", n, "lower"},
		metricDef{"memostore.open_s", s, "lower"},
		metricDef{"cluster.shards", n, "lower"},
		metricDef{"cluster.shards_requeued", n, "lower"},
		metricDef{"cluster.shards_duplicate", n, "lower"},
		metricDef{"cluster.round_trips", n, "lower"},
		metricDef{"cluster.wire_bytes", b, "lower"},
		metricDef{"cluster.raw_bytes", b, "lower"},
		metricDef{"cluster.wire_bytes_per_test", b, "lower"},
		metricDef{"cluster.blob_dedup_frac", f, "higher"},
		metricDef{"cluster.prefetched_frac", f, "higher"},
		metricDef{"cluster.sync_s", s, "lower"},
	)
	for _, p := range clusterPhases {
		defs = append(defs, metricDef{"cluster." + p + ".unit_ms_ewma", ms, "lower"}, metricDef{"cluster." + p + ".sync_ms_ewma", ms, "lower"})
	}
	return append(defs,
		metricDef{"service.jobs", n, "lower"},
		metricDef{"service.jobs_retried", n, "lower"},
		metricDef{"service.jobs_failed", n, "lower"},
		metricDef{"service.failed_frac", f, "lower"},
		metricDef{"ledger.job_s", s, "lower"},
		metricDef{"ledger.unattributed_frac", f, "lower"},
		metricDef{"ledger.trace_overhead_frac", f, "lower"},
	)
}()

// metricValue is one metric as printed.
type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the benchmark's last line of output.
type result struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

// fill builds the printed metric set: exactly defs, each taken from vals.
// A missing value is a bug in the workload code, not a measurement.
func fill(defs []metricDef, vals map[string]float64) (map[string]metricValue, error) {
	out := make(map[string]metricValue, len(defs))
	for _, d := range defs {
		v, ok := vals[d.Name]
		if !ok {
			return nil, fmt.Errorf("metric %s was not measured", d.Name)
		}
		if math.IsNaN(v) || math.IsInf(v, 0) {
			return nil, fmt.Errorf("metric %s is %v", d.Name, v)
		}
		out[d.Name] = metricValue{Value: v, Unit: d.Unit}
	}
	for name := range vals {
		if _, ok := out[name]; !ok {
			return nil, fmt.Errorf("metric %s is not declared", name)
		}
	}
	return out, nil
}

func (r result) String() string {
	data, err := json.Marshal(r)
	if err != nil {
		panic(err) // finite floats, strings and ints always marshal
	}
	return string(data)
}

// zeroLayers returns every per-layer metric at 0, for a workload to fill in.
func zeroLayers() map[string]float64 {
	m := make(map[string]float64, len(perLayer))
	for _, d := range perLayer {
		m[d.Name] = 0
	}
	return m
}

// median of xs (mean of the middle two for an even count); 0 when empty.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// percentile is the nearest-rank p-th percentile of xs; 0 when empty.
func percentile(xs []float64, p float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	k := int(math.Ceil(p/100*float64(len(s)))) - 1
	if k < 0 {
		k = 0
	}
	return s[k]
}

// frac is a/b, or 0 when b is 0.
func frac(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// medians reduces per-run metric maps to the median of each metric.
func medians(runs []map[string]float64) map[string]float64 {
	out := make(map[string]float64)
	if len(runs) == 0 {
		return out
	}
	for name := range runs[0] {
		xs := make([]float64, len(runs))
		for i, r := range runs {
			xs[i] = r[name]
		}
		out[name] = median(xs)
	}
	return out
}

// procSnap is the process's CPU time and allocation total at one instant.
type procSnap struct {
	cpu   time.Duration
	alloc uint64
}

func snapProc() procSnap {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		panic(err) // RUSAGE_SELF with a valid pointer cannot fail
	}
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return procSnap{
		cpu:   time.Duration(ru.Utime.Nano() + ru.Stime.Nano()),
		alloc: ms.TotalAlloc,
	}
}

// peakRSSMiB is the process's resident-memory high-water mark.
func peakRSSMiB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		panic(err)
	}
	return float64(ru.Maxrss) / 1024 // Linux reports KiB
}
