package target

import (
	"sort"
	"strings"
	"testing"

	"spirvfuzz/internal/corpus"
	"spirvfuzz/internal/fuzz"
)

// registrySignatures returns every crash signature the registry can raise
// from its defect scan, over every target's full release history, sorted.
func registrySignatures() []string {
	set := map[string]bool{}
	for _, t := range registry {
		for _, view := range t.views {
			for _, d := range view.crashes {
				set[t.Name+": "+d.sig] = true
			}
		}
	}
	out := make([]string, 0, len(set))
	for sig := range set {
		out = append(out, sig)
	}
	sort.Strings(out)
	return out
}

// TestRegistrySignaturesScanDecided: no defect signature carries a stage
// marker or equals the miscompilation pseudo-signature, so every injected
// crash is decided by the defect scan alone.
func TestRegistrySignaturesScanDecided(t *testing.T) {
	sigs := registrySignatures()
	if len(sigs) == 0 {
		t.Fatal("registry has no crash signatures")
	}
	for _, sig := range sigs {
		if sig == MiscompilationSignature {
			t.Errorf("defect signature %q equals the miscompilation signature", sig)
		}
		if strings.Contains(sig, iceStage) || strings.Contains(sig, deviceFaultStage) {
			t.Errorf("defect signature %q carries a stage marker", sig)
		}
		if !ScanDecides(sig) {
			t.Errorf("defect signature %q is not scan-decided", sig)
		}
	}
	for _, t0 := range registry {
		for _, sig := range []string{t0.ICE("x").Signature, t0.DeviceFault("x").Signature, MiscompilationSignature} {
			if ScanDecides(sig) {
				t.Errorf("ScanDecides(%q) = true", sig)
			}
		}
	}
}

// FuzzScanOracleMatchesRun checks the exactness of the scan-decided crash
// test on fuzzed variants: at every release view of every target, and for
// every registry crash signature plus one ICE and one device-fault
// signature (and whatever Run itself raised), the predicate the reducer and
// bisection use — CheckCrashes when ScanDecides holds, Run otherwise — must
// equal "Run crashes with that signature".
func FuzzScanOracleMatchesRun(f *testing.F) {
	refs := corpus.References()
	donors := corpus.Donors()
	sigs := registrySignatures()
	f.Fuzz(func(t *testing.T, ref uint8, seed int64) {
		item := refs[int(ref)%len(refs)]
		res, err := fuzz.Fuzz(item.Mod, item.Inputs, fuzz.Options{
			Seed:                  seed,
			Donors:                donors,
			EnableRecommendations: true,
			MinPasses:             3,
			MaxPasses:             10,
		})
		if err != nil {
			t.Fatalf("fuzz %s seed %d: %v", item.Name, seed, err)
		}
		for _, canon := range registry {
			for _, rel := range canon.releases {
				view := canon.views[rel]
				_, runCrash := view.Run(res.Variant, res.Inputs)
				scanCrash := view.CheckCrashes(res.Variant)
				probe := append([]string{view.ICE("pipeline error").Signature, view.DeviceFault("render error").Signature}, sigs...)
				if runCrash != nil {
					probe = append(probe, runCrash.Signature)
				}
				for _, sig := range probe {
					want := runCrash != nil && runCrash.Signature == sig
					got := want
					if ScanDecides(sig) {
						got = scanCrash != nil && scanCrash.Signature == sig
					}
					if got != want {
						t.Fatalf("%s seed %d, %s@%s, signature %q: scan-decided test %v, Run %v (Run crash %v)",
							item.Name, seed, canon.Name, rel, sig, got, want, runCrash)
					}
				}
			}
		}
	})
}
