package service

import (
	"reflect"
	"strings"
	"testing"

	"spirvfuzz/internal/fuzz"
)

// typedRec builds a reduced case on target "T" whose minimized sequence has the
// given concrete transformation types.
func typedRec(name string, kinds ...string) ReducedRec {
	var seq []fuzz.Transformation
	for _, k := range kinds {
		switch k {
		case "dead":
			seq = append(seq, &fuzz.AddDeadBlock{})
		case "kill":
			seq = append(seq, &fuzz.ReplaceBranchWithKill{})
		case "move":
			seq = append(seq, &fuzz.MoveBlockDown{})
		case "split":
			seq = append(seq, &fuzz.SplitBlock{})
		case "syn":
			seq = append(seq, &fuzz.ReplaceIdWithSynonym{})
		case "ctrl":
			seq = append(seq, &fuzz.SetFunctionControl{})
		default:
			panic(k)
		}
	}
	return ReducedRec{Case: name, Target: "T", Signature: "sig-" + name, Types: ResidualTypes(seq), KeptLen: len(seq)}
}

// caseNames returns the case names of buckets, in order.
func caseNames(buckets []Bucket) []string {
	names := []string{}
	for _, b := range buckets {
		names = append(names, b.Case)
	}
	return names
}

// transformCases returns the cases the transform signal recommends.
func transformCases(t *testing.T, recs ...ReducedRec) []string {
	t.Helper()
	buckets, err := BucketCases(SignalTransform, recs, nil)
	if err != nil {
		t.Fatal(err)
	}
	return caseNames(buckets)
}

func TestBucketCasesIgnoresSupportingTypes(t *testing.T) {
	// A and B differ only in supporting types (split/syn) and share "dead"
	// — same root cause, one report. C uses a disjoint interesting type.
	got := transformCases(t,
		typedRec("A", "split", "dead", "syn"),
		typedRec("B", "dead", "split"),
		typedRec("C", "split", "move"),
	)
	if want := []string{"A", "C"}; !reflect.DeepEqual(got, want) {
		t.Fatalf("recommended %v, want %v", got, want)
	}
}

func TestBucketCasesKeepsTypeDisjointDuplicates(t *testing.T) {
	// Two type-disjoint cases that trigger the same bug are both kept: the
	// heuristic never sees signatures.
	x, y := typedRec("X", "dead"), typedRec("Y", "move")
	x.Signature, y.Signature = "same-bug", "same-bug"
	got := transformCases(t, x, y)
	if want := []string{"X", "Y"}; !reflect.DeepEqual(got, want) {
		t.Fatalf("recommended %v, want %v", got, want)
	}
}

func TestBucketCasesDropsSupportingOnlyCases(t *testing.T) {
	// A case whose minimized sequence holds only supporting types has an
	// empty type set and cannot be meaningfully compared.
	got := transformCases(t,
		typedRec("onlysupport", "split", "syn"),
		typedRec("real", "kill"),
	)
	if want := []string{"real"}; !reflect.DeepEqual(got, want) {
		t.Fatalf("recommended %v, want %v", got, want)
	}
}

func TestBucketCasesPrefersSmallTypeSets(t *testing.T) {
	got := transformCases(t,
		typedRec("big", "dead", "move", "ctrl"),
		typedRec("small", "dead"),
	)
	if want := []string{"small"}; !reflect.DeepEqual(got, want) {
		t.Fatalf("recommended %v, want %v; the smaller type set must win", got, want)
	}
}

// TestBucketCasesSignals pins all three signals over one hand-built set:
// targets A and B share type X, A's first-bad release r1 holds two type
// buckets (X and Y), B's two X cases tie on size and are broken by input
// order, and A's case with no residual type has a bisect bucket of its own
// only. Cases arrive interleaved across targets; buckets come out grouped
// per target in first-appearance order.
func TestBucketCasesSignals(t *testing.T) {
	mk := func(name, tg string, types ...string) ReducedRec {
		return ReducedRec{Case: name, Target: tg, Signature: "s", Types: types, KeptLen: len(types) + 1, Delta: 2, ReportHash: "h-" + name}
	}
	recs := []ReducedRec{
		mk("a1", "A", "X"),
		mk("b1", "B", "X"),
		mk("a2", "A", "Y"),
		mk("b2", "B", "X"),
		mk("a3", "A", "X", "Z"),
		mk("a4", "A"),
	}
	firstBad := map[string]string{"a1": "r1", "a2": "r1", "a3": "r2", "a4": "r3", "b1": "r1", "b2": "r2"}
	byCase := map[string]ReducedRec{}
	for _, r := range recs {
		byCase[r.Case] = r
	}
	outcomes := map[string]BisectOutcome{}
	for name, fb := range firstBad {
		outcomes[name] = BisectOutcome{Case: name, FirstBad: fb}
	}
	for _, tc := range []struct {
		signal string
		want   []string
	}{
		// Per target: A keeps a1 and a2 (a3 shares X); B keeps b1 (b2 ties
		// it on size and shares X). Pooled across targets, b1 would be lost.
		{SignalTransform, []string{"a1", "a2", "b1"}},
		// One bucket per (target, first-bad release), first case wins.
		{SignalBisect, []string{"a1", "a3", "a4", "b1", "b2"}},
		// A@r1 splits into X and Y; a4 has no residual type.
		{SignalIntersection, []string{"a1", "a2", "a3", "b1", "b2"}},
	} {
		buckets, err := BucketCases(tc.signal, recs, outcomes)
		if err != nil {
			t.Fatal(err)
		}
		if got := caseNames(buckets); !reflect.DeepEqual(got, tc.want) {
			t.Errorf("%s: buckets %v, want %v", tc.signal, got, tc.want)
		}
		for _, b := range buckets {
			r := byCase[b.Case]
			if b.Target != r.Target || b.Signature != r.Signature || !reflect.DeepEqual(b.Types, r.Types) ||
				b.SequenceLen != r.KeptLen || b.Delta != r.Delta || b.ReportHash != r.ReportHash {
				t.Errorf("%s: bucket %+v does not carry its case's record %+v", tc.signal, b, r)
			}
		}
	}
	if _, err := BucketCases("both", recs, outcomes); err == nil {
		t.Error("unknown signal accepted")
	}
	delete(outcomes, "b2")
	if _, err := BucketCases(SignalBisect, recs, outcomes); err == nil || !strings.Contains(err.Error(), "b2") {
		t.Errorf("missing outcome: err = %v", err)
	}
}
