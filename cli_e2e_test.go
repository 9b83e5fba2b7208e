// End-to-end tests of the command-line tools: build the binaries once, then
// drive the full fuzz → detect → reduce → dedup → report workflow through
// their public interfaces, exactly as README documents it.
package spirvfuzz_test

import (
	"encoding/json"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"

	"spirvfuzz/internal/runner"
	"spirvfuzz/internal/service"
)

var cliTools = []string{
	"spirv-fuzz", "spirv-reduce", "spirv-dedup", "spirv-as", "spirv-dis",
	"spirv-val", "spirv-run", "gfauto",
}

// buildTools compiles every cmd binary into a temp dir and returns it.
func buildTools(t *testing.T) string {
	t.Helper()
	dir := t.TempDir()
	args := []string{"build", "-o", dir + string(os.PathSeparator)}
	for _, tool := range cliTools {
		args = append(args, "./cmd/"+tool)
	}
	cmd := exec.Command("go", args...)
	out, err := cmd.CombinedOutput()
	if err != nil {
		t.Fatalf("go build: %v\n%s", err, out)
	}
	return dir
}

func run(t *testing.T, bin string, wantExit int, args ...string) string {
	t.Helper()
	cmd := exec.Command(bin, args...)
	out, err := cmd.CombinedOutput()
	exit := 0
	if ee, ok := err.(*exec.ExitError); ok {
		exit = ee.ExitCode()
	} else if err != nil {
		t.Fatalf("%s %v: %v\n%s", bin, args, err, out)
	}
	if exit != wantExit {
		t.Fatalf("%s %v: exit %d, want %d\n%s", bin, args, exit, wantExit, out)
	}
	return string(out)
}

func TestCLIEndToEnd(t *testing.T) {
	if testing.Short() {
		t.Skip("CLI end-to-end skipped in -short mode")
	}
	bin := buildTools(t)
	work := t.TempDir()
	tool := func(name string) string { return filepath.Join(bin, name) }
	in := func(name string) string { return filepath.Join(work, name) }

	// 1. Fuzz a corpus reference until SwiftShader crashes.
	var crashed bool
	var seqPath, sig string
	for seed := 1; seed <= 40 && !crashed; seed++ {
		seqPath = in("seq.json")
		run(t, tool("spirv-fuzz"), 0,
			"-in", "corpus:calls2", "-seed", itoa(seed),
			"-o", in("variant.spvasm"), "-transformations", seqPath)
		cmd := exec.Command(tool("spirv-run"), "-in", in("variant.spvasm"), "-target", "SwiftShader")
		outBytes, _ := cmd.CombinedOutput()
		out := string(outBytes)
		if strings.Contains(out, "crashed") {
			if cmd.ProcessState.ExitCode() != 3 {
				t.Fatalf("crash must exit 3, got %d", cmd.ProcessState.ExitCode())
			}
			crashed = true
			sig = strings.TrimSpace(strings.SplitN(out, "crashed:", 2)[1])
		}
	}
	if !crashed {
		t.Fatal("no crash in 40 seeds")
	}

	// 2. Reduce with a bug-report bundle.
	out := run(t, tool("spirv-reduce"), 0,
		"-in", "corpus:calls2", "-transformations", seqPath,
		"-target", "SwiftShader",
		"-o", in("reduced.spvasm"), "-reduced-transformations", in("reduced.json"),
		"-report-dir", in("report"))
	if !strings.Contains(out, "detected signature") {
		t.Fatalf("reduce output: %s", out)
	}

	// A variant that ScaleUniform keeps equivalent on its own, co-modified
	// inputs triggers no bug: signature detection must run it on those
	// inputs, and spirv-reduce must say there is nothing to reduce.
	run(t, tool("spirv-fuzz"), 0, "-in", "corpus:gradient1", "-seed", "13",
		"-o", in("synced.spvasm"), "-transformations", in("synced.json"))
	if synced, err := os.ReadFile(in("synced.json")); err != nil || !strings.Contains(string(synced), `"ScaleUniform"`) {
		t.Fatalf("gradient1 seed 13 no longer emits ScaleUniform (%v)", err)
	}
	out = run(t, tool("spirv-reduce"), 1,
		"-in", "corpus:gradient1", "-transformations", in("synced.json"), "-target", "SwiftShader",
		"-o", in("synced-reduced.spvasm"), "-reduced-transformations", in("synced-reduced.json"))
	if !strings.Contains(out, "triggers no bug") {
		t.Fatalf("input-synced reduce output: %s", out)
	}

	// 3. The reduced variant still crashes with the same signature; the
	// original does not.
	out = run(t, tool("spirv-run"), 3, "-in", in("reduced.spvasm"), "-target", "SwiftShader")
	if !strings.Contains(out, sig) {
		t.Fatalf("reduced crash %q does not mention %q", out, sig)
	}
	run(t, tool("spirv-run"), 0, "-in", "corpus:calls2", "-target", "SwiftShader")

	// 4. Regression mode: original and reduced agree on the reference
	// interpreter.
	out = run(t, tool("spirv-run"), 0,
		"-in", filepath.Join(in("report"), "original.spvasm"),
		"-inputs", filepath.Join(in("report"), "inputs.json"),
		"-compare", filepath.Join(in("report"), "reduced_variant.spvasm"))
	if !strings.Contains(out, "identical") {
		t.Fatalf("compare output: %s", out)
	}

	// With a target that does not render, -compare still loads and
	// compiles the second module: a missing file exits 1, a crash exits 3.
	run(t, tool("spirv-run"), 1, "-in", "corpus:calls2", "-target", "spirv-opt",
		"-compare", in("missing.spvasm"))
	out = run(t, tool("spirv-run"), 0, "-in", "corpus:calls2", "-target", "spirv-opt",
		"-compare", "corpus:calls2")
	if !strings.Contains(out, "compiled both modules") {
		t.Fatalf("offline compare output: %s", out)
	}
	run(t, tool("spirv-fuzz"), 0, "-in", "corpus:calls2", "-seed", "15",
		"-o", in("offline.spvasm"), "-transformations", in("offline.json"))
	out = run(t, tool("spirv-run"), 3, "-in", "corpus:calls2", "-target", "spirv-opt",
		"-compare", in("offline.spvasm"))
	if !strings.Contains(out, "crashed on "+in("offline.spvasm")) {
		t.Fatalf("offline compare crash output: %s", out)
	}

	// 5. Assemble/disassemble/validate round trip.
	run(t, tool("spirv-as"), 0, "-in", in("reduced.spvasm"), "-o", in("reduced.spv"), "-validate")
	dis := run(t, tool("spirv-dis"), 0, "-in", in("reduced.spv"))
	if !strings.Contains(dis, "OpEntryPoint") {
		t.Fatal("disassembly incomplete")
	}
	run(t, tool("spirv-val"), 0, "-in", in("reduced.spv"))

	// 6. Dedup over the reduced case.
	caseDir := in("cases")
	if err := os.MkdirAll(caseDir, 0o755); err != nil {
		t.Fatal(err)
	}
	seqData, err := os.ReadFile(in("reduced.json"))
	if err != nil {
		t.Fatal(err)
	}
	blob, _ := json.Marshal(map[string]any{
		"signature":       sig,
		"transformations": json.RawMessage(seqData),
	})
	if err := os.WriteFile(filepath.Join(caseDir, "case1.json"), blob, 0o644); err != nil {
		t.Fatal(err)
	}
	out = run(t, tool("spirv-dedup"), 0, "-dir", caseDir, "-types")
	if !strings.Contains(out, "1 recommended") {
		t.Fatalf("dedup output: %s", out)
	}

	// 6b. Machine-readable mode: -json emits the bucket-set shape spirvd
	// serves, with the case file's content hash as the report address.
	out = run(t, tool("spirv-dedup"), 0, "-dir", caseDir, "-json")
	var set service.BucketSet
	if err := json.Unmarshal([]byte(out), &set); err != nil {
		t.Fatalf("dedup -json: %v\n%s", err, out)
	}
	if len(set.Buckets) != 1 || set.Buckets[0].Case != "case1.json" ||
		set.Buckets[0].Signature != sig || len(set.Buckets[0].Types) == 0 ||
		set.Buckets[0].SequenceLen == 0 || len(set.Buckets[0].ReportHash) != 64 {
		t.Fatalf("dedup -json buckets: %s", out)
	}

	// 6c. Report-shaped cases dedup per target, as spirvd buckets a
	// campaign: one minimized sequence found on two targets shares its
	// types but is two reports, and the -json buckets carry each case's
	// target and delta.
	reportDir := in("reports")
	if err := os.MkdirAll(reportDir, 0o755); err != nil {
		t.Fatal(err)
	}
	for _, tg := range []string{"Mesa", "SwiftShader"} {
		blob, _ := json.Marshal(map[string]any{
			"target":          tg,
			"reference":       "calls2",
			"signature":       sig,
			"delta":           1,
			"transformations": json.RawMessage(seqData),
		})
		if err := os.WriteFile(filepath.Join(reportDir, tg+".json"), blob, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	out = run(t, tool("spirv-dedup"), 0, "-dir", reportDir)
	if !strings.Contains(out, "2 test cases -> 2 recommended") {
		t.Fatalf("per-target dedup output: %s", out)
	}
	out = run(t, tool("spirv-dedup"), 0, "-dir", reportDir, "-json")
	set = service.BucketSet{}
	if err := json.Unmarshal([]byte(out), &set); err != nil {
		t.Fatalf("dedup -json: %v\n%s", err, out)
	}
	if len(set.Buckets) != 2 || set.Buckets[0].Target != "Mesa" || set.Buckets[1].Target != "SwiftShader" ||
		set.Buckets[0].Delta != 1 || !strings.Contains(out, `"target": "SwiftShader"`) {
		t.Fatalf("per-target dedup -json buckets: %s", out)
	}
	// The bisect signals bisect each report through the service's own step.
	if err := os.Remove(filepath.Join(reportDir, "Mesa.json")); err != nil {
		t.Fatal(err)
	}
	out = run(t, tool("spirv-dedup"), 0, "-dir", reportDir, "-signal", "both")
	if !strings.Contains(out, "1 recommended for investigation (both signal)") || !strings.Contains(out, "(first bad SwiftShader@") {
		t.Fatalf("dedup -signal both output: %s", out)
	}

	// 7. gfauto quick sanity (list modes only; campaigns are benchmarked
	// elsewhere).
	out = run(t, tool("gfauto"), 0, "-list-targets")
	if !strings.Contains(out, "SwiftShader") {
		t.Fatal("gfauto -list-targets incomplete")
	}
	out = run(t, tool("gfauto"), 0, "-list-references")
	if !strings.Contains(out, "diamond2") {
		t.Fatal("gfauto -list-references incomplete")
	}

	// 8. gfauto -json: per-tool campaign summaries in the spirvd status
	// shape plus the execution-engine counters, and nothing else on stdout.
	out = run(t, tool("gfauto"), 0, "-json", "-tests", "25")
	var report struct {
		Campaigns []service.CampaignStatus `json:"campaigns"`
		Runner    runner.Stats             `json:"runner"`
	}
	if err := json.Unmarshal([]byte(out), &report); err != nil {
		t.Fatalf("gfauto -json: %v\n%s", err, out)
	}
	summaries := report.Campaigns
	if len(summaries) != 3 {
		t.Fatalf("gfauto -json: %d summaries, want 3\n%s", len(summaries), out)
	}
	tools := map[string]bool{}
	for _, st := range summaries {
		tools[st.ID] = true
		if st.State != service.StateDone || st.TestsDone != 25 || st.Spec.Tests != 25 {
			t.Fatalf("gfauto -json summary: %+v", st)
		}
		if len(st.Spec.Targets) == 0 {
			t.Fatalf("gfauto -json summary missing targets: %+v", st)
		}
	}
	if !tools["spirv-fuzz"] || !tools["spirv-fuzz-simple"] || !tools["glsl-fuzz"] {
		t.Fatalf("gfauto -json tools: %v", tools)
	}
	// The runner block must show the compile-sharing and per-pass optimizer
	// counters: three campaigns over nine targets share compiles constantly,
	// and every compile runs the standard pass pipeline.
	if report.Runner.CompileMisses == 0 || report.Runner.CompileHits == 0 {
		t.Fatalf("gfauto -json runner: no compile sharing recorded: %+v", report.Runner)
	}
	if len(report.Runner.OptPasses) == 0 {
		t.Fatalf("gfauto -json runner: no per-pass optimizer stats: %+v", report.Runner)
	}
	for _, p := range report.Runner.OptPasses {
		if p.Name == "" || p.Runs == 0 || p.Nanos <= 0 {
			t.Fatalf("gfauto -json runner: degenerate pass stat %+v", p)
		}
	}
}

func itoa(n int) string {
	if n == 0 {
		return "0"
	}
	var b [8]byte
	i := len(b)
	for n > 0 {
		i--
		b[i] = byte('0' + n%10)
		n /= 10
	}
	return string(b[i:])
}
