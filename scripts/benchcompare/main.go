// Command benchcompare guards benchmark regressions: it compares a current
// benchmark-metrics JSON (as produced by scripts/bench2json.awk) against a
// committed baseline and exits nonzero if any tracked metric falls below the
// allowed fraction of its baseline value.
//
// Usage:
//
//	go test -short -run '^$' -bench . -benchtime=1x ./... \
//	    | awk -f scripts/bench2json.awk > /tmp/bench.json
//	go run ./scripts/benchcompare -baseline BENCH_pr10.json -current /tmp/bench.json
//
// By default every benchmark that reports a "speedup" metric is checked —
// today among others the reduction benchmarks (BenchmarkRunnerParallelReduce
// and BenchmarkReplayPrefixCache) and the batched multi-target benchmark
// (BenchmarkEngineRunAll), automatically covering future ones. The
// tolerance absorbs machine noise; a genuine regression (for example the
// replay cache silently disabled or compile sharing gone, dropping speedup
// to ~1.0) fails loudly.
//
// -mode selects the guard direction: "min" (the default) requires
// current >= baseline*tolerance and suits bigger-is-better ratios like
// speedup; "max" requires current <= baseline*tolerance and suits
// smaller-is-better absolutes like ns/op. -only restricts the check to a
// comma-separated benchmark list — absolute times are machine-dependent, so
// they are guarded per-benchmark with generous tolerances rather than
// wholesale.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"sort"
	"strings"
)

type metrics map[string]map[string]float64

func load(path string) (metrics, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var m metrics
	if err := json.Unmarshal(data, &m); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return m, nil
}

func main() {
	baselinePath := flag.String("baseline", "BENCH_pr10.json", "committed baseline metrics JSON")
	currentPath := flag.String("current", "", "current metrics JSON (required)")
	metric := flag.String("metric", "speedup", "metric to guard across benchmarks")
	tolerance := flag.Float64("tolerance", 0.75, "allowed current/baseline ratio bound (minimum in -mode min, maximum in -mode max)")
	mode := flag.String("mode", "min", `guard direction: "min" (current must stay above baseline*tolerance) or "max" (below)`)
	only := flag.String("only", "", "comma-separated benchmark names to check (default: all with the metric)")
	flag.Parse()
	if *mode != "min" && *mode != "max" {
		fmt.Fprintf(os.Stderr, "benchcompare: unknown -mode %q\n", *mode)
		os.Exit(2)
	}
	if *currentPath == "" {
		fmt.Fprintln(os.Stderr, "benchcompare: -current is required")
		os.Exit(2)
	}

	baseline, err := load(*baselinePath)
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchcompare:", err)
		os.Exit(2)
	}
	current, err := load(*currentPath)
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchcompare:", err)
		os.Exit(2)
	}

	keep := map[string]bool{}
	for _, name := range strings.Split(*only, ",") {
		if name != "" {
			keep[name] = true
		}
	}
	var names []string
	for name, ms := range baseline {
		if _, ok := ms[*metric]; ok && (len(keep) == 0 || keep[name]) {
			names = append(names, name)
		}
	}
	sort.Strings(names)
	if len(names) == 0 {
		fmt.Fprintf(os.Stderr, "benchcompare: baseline %s has no %q metrics\n", *baselinePath, *metric)
		os.Exit(2)
	}

	failed := false
	tol := *tolerance
	for _, name := range names {
		base := baseline[name][*metric]
		cur, ok := current[name][*metric]
		switch {
		case !ok:
			fmt.Printf("FAIL %s: %s missing from current run (baseline %.3f)\n", name, *metric, base)
			failed = true
		case *mode == "min" && base > 0 && cur < base*tol:
			fmt.Printf("FAIL %s: %s %.3f < %.2f x baseline %.3f\n", name, *metric, cur, tol, base)
			failed = true
		case *mode == "max" && base > 0 && cur > base*tol:
			fmt.Printf("FAIL %s: %s %.3f > %.2f x baseline %.3f\n", name, *metric, cur, tol, base)
			failed = true
		default:
			fmt.Printf("ok   %s: %s %.3f (baseline %.3f)\n", name, *metric, cur, base)
		}
	}
	if failed {
		os.Exit(1)
	}
}
