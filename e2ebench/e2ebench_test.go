package main

import (
	"context"
	"encoding/json"
	"os"
	"reflect"
	"regexp"
	"testing"
	"time"

	"spirvfuzz/internal/bisect"
	"spirvfuzz/internal/corpus"
	"spirvfuzz/internal/replay"
	"spirvfuzz/internal/runner"
	"spirvfuzz/internal/service"
	"spirvfuzz/internal/store"
)

var legalName = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]*$`)

// TestSmokeAllWorkloads runs every workload at a tiny scale in both modes
// and checks the printed result: correct, and carrying exactly the declared
// metrics, each with its unit and a legal name.
func TestSmokeAllWorkloads(t *testing.T) {
	for _, w := range workloads {
		w.tests = 12
		for _, trace := range []bool{false, true} {
			defs := endToEnd
			if trace {
				defs = perLayer
			}
			res, err := run(context.Background(), w, 3, time.Nanosecond, trace, t.TempDir())
			if err != nil {
				t.Fatalf("%s trace=%v: %v", w.name, trace, err)
			}
			if !res.Correct || res.Failed != 0 || res.Attempted < 1 {
				t.Fatalf("%s trace=%v: correct=%v attempted=%d failed=%d", w.name, trace, res.Correct, res.Attempted, res.Failed)
			}
			if len(res.Metrics) != len(defs) {
				t.Fatalf("%s trace=%v: %d metrics, want %d", w.name, trace, len(res.Metrics), len(defs))
			}
			for _, d := range defs {
				m, ok := res.Metrics[d.Name]
				if !ok || m.Unit != d.Unit || m.Unit == "" || !legalName.MatchString(d.Name) {
					t.Errorf("%s trace=%v: metric %q = %+v", w.name, trace, d.Name, m)
				}
			}
			var back result
			if err := json.Unmarshal([]byte(res.String()), &back); err != nil {
				t.Fatalf("%s: printed result does not parse: %v", w.name, err)
			}
		}
	}
}

// TestStepsMatchService holds the traced driver's decomposition of the
// pipeline steps to the service's own step functions: for a handful of
// tests, cases and bisections the records must be identical.
func TestStepsMatchService(t *testing.T) {
	ctx := context.Background()
	spec := service.CampaignSpec{Tests: 10, SeedBase: 5, CapPerSignature: 3}
	if err := spec.Normalize(); err != nil {
		t.Fatal(err)
	}
	refs, donors := corpus.References(), corpus.Donors()
	targets, err := service.ResolveTargets(spec.Targets)
	if err != nil {
		t.Fatal(err)
	}
	svcStore, err := store.Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	defer svcStore.Close()
	eng := runner.New(2)
	env := service.Env{Eng: eng, Reng: replay.NewEngine(replay.DefaultBudget), Blobs: svcStore}
	drvStore, err := store.Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	defer drvStore.Close()
	d, err := newStepDriver(newRecorder(), drvStore, tracedWorkers, "")
	if err != nil {
		t.Fatal(err)
	}

	bugs := map[int][]service.BugRef{}
	for i := 0; i < spec.Tests; i++ {
		want, err := service.FuzzStep(ctx, env, spec, targets, refs, donors, i)
		if err != nil {
			t.Fatal(err)
		}
		got, err := d.fuzzStep(ctx, spec, targets, refs, donors, i)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("test %d: driver %+v, FuzzStep %+v", i, got, want)
		}
		bugs[i] = got
	}
	cases := service.SelectReductions("c001", spec, bugs)
	if len(cases) < 3 {
		t.Fatalf("only %d cases selected; the check needs a handful", len(cases))
	}
	beng := bisect.New(eng)
	for _, rc := range cases[:3] {
		want, err := service.ReduceStep(ctx, env, "c001", spec, refs, rc)
		if err != nil {
			t.Fatal(err)
		}
		got, err := d.reduceStep(ctx, "c001", refs, rc)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("case %s: driver %+v, ReduceStep %+v", rc.Name, got, want)
		}
		wantOut, err := service.BisectStep(ctx, env, beng, refs, want)
		if err != nil {
			t.Fatal(err)
		}
		gotOut, err := d.bisectStep(refs, got)
		if err != nil {
			t.Fatal(err)
		}
		if gotOut != wantOut {
			t.Fatalf("case %s: driver bisect %+v, BisectStep %+v", rc.Name, gotOut, wantOut)
		}
	}
}

// TestLedgerPartitionsRoot checks the ledger on hand-made spans: self times
// subtract children, concurrent leaves split their overlap, and the layers
// plus unattributed time add up to the root.
func TestLedgerPartitionsRoot(t *testing.T) {
	r := &recorder{}
	add := func(name string, parent int, start, end int64) int {
		r.spans = append(r.spans, span{name: name, parent: parent, start: start, end: end})
		return len(r.spans) - 1
	}
	root := add("job", -1, 0, 100)
	red := add("reduce", root, 10, 60)
	add("reduce.oracle", red, 20, 40)
	add("reduce.oracle", red, 30, 50)
	add("fuzz", root, 70, 90)
	add("outside", -1, 0, 1000) // another root: not in this ledger
	self, unattr, total := r.ledger(root)
	want := map[string]time.Duration{"reduce": 20, "reduce.oracle": 30, "fuzz": 20}
	if !reflect.DeepEqual(self, want) || unattr != 30 || total != 100 {
		t.Fatalf("ledger = %v, unattributed %v, total %v; want %v, 30, 100", self, unattr, total, want)
	}
}

// TestBenchmarkJSONMatches holds BENCHMARK.json at the repository root to
// the workloads and metrics this program runs and prints.
func TestBenchmarkJSONMatches(t *testing.T) {
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var bj struct {
		Workloads []struct{ Name string }
		EndToEnd  []metricDef `json:"end_to_end"`
		PerLayer  []metricDef `json:"per_layer"`
	}
	if err := json.Unmarshal(data, &bj); err != nil {
		t.Fatal(err)
	}
	var names []string
	for _, w := range bj.Workloads {
		names = append(names, w.Name)
	}
	var want []string
	for _, w := range workloads {
		want = append(want, w.name)
	}
	if !reflect.DeepEqual(names, want) {
		t.Errorf("BENCHMARK.json workloads %v, program %v", names, want)
	}
	if !reflect.DeepEqual(bj.EndToEnd, endToEnd) {
		t.Errorf("BENCHMARK.json end_to_end %+v, program %+v", bj.EndToEnd, endToEnd)
	}
	if !reflect.DeepEqual(bj.PerLayer, perLayer) {
		t.Errorf("BENCHMARK.json per_layer differs from the program's %d metrics", len(perLayer))
	}
}
