// Package target simulates the nine compiler toolchains of the paper's
// Table 2. A Target is a deterministic stand-in for a real compiler: it
// clones the input module, checks a set of injected defect predicates (the
// simulated compiler bugs), applies any miscompiling rewrites, and then runs
// the shared optimization pipeline from internal/opt. Render-capable targets
// additionally execute the compiled module with the reference interpreter to
// produce an image.
//
// Every defect predicate is keyed on a structural feature that fuzzer
// transformations introduce but that no corpus reference program contains,
// so original programs never crash and never miscompile — exactly the
// invariant the test harness relies on when classifying variant outcomes.
package target

import (
	"fmt"
	"strings"

	"spirvfuzz/internal/interp"
	"spirvfuzz/internal/opt"
	"spirvfuzz/internal/spirv"
)

// Crash describes a simulated compiler or device failure. The signature is
// the deduplication key used throughout the harness and experiments; two
// crashes of the same underlying defect share a signature.
type Crash struct {
	Signature string
}

// Error renders the crash like an error value for %v-style printing.
func (c *Crash) Error() string { return c.Signature }

// String implements fmt.Stringer.
func (c *Crash) String() string { return c.Signature }

// MiscompilationSignature is the pseudo-signature the harness assigns to
// wrong-image outcomes, which have no crash text of their own.
const MiscompilationSignature = "miscompilation (image differs from reference)"

// The stages after the defect scan name themselves in the signatures they
// raise: the shared compile tail raises "<target>: internal compiler error:
// <pipeline error>" and the render raises "<target>: device fault:
// <interpreter error>". Defect signatures carry neither marker (the registry
// test checks this), which is what makes ScanDecides exact.
const (
	iceStage         = ": internal compiler error: "
	deviceFaultStage = ": device fault: "
)

// ICE returns the crash the shared compile tail raises on t when the
// optimization pipeline fails with msg.
func (t *Target) ICE(msg string) *Crash {
	return &Crash{Signature: t.Name + iceStage + msg}
}

// DeviceFault returns the crash the render raises on t when the interpreter
// fails with msg.
func (t *Target) DeviceFault(msg string) *Crash {
	return &Crash{Signature: t.Name + deviceFaultStage + msg}
}

// ScanDecides reports whether the crash signature sig can only come from the
// defect scan. Run calls CheckCrashes first, and every later stage raises an
// ICE or a DeviceFault, so for such a signature "Run crashes with sig" and
// "CheckCrashes crashes with sig" are the same predicate: the scan alone
// decides it, with no fingerprint, compile or render.
func ScanDecides(sig string) bool {
	return sig != MiscompilationSignature &&
		!strings.Contains(sig, iceStage) && !strings.Contains(sig, deviceFaultStage)
}

// crashDefect is an injected compiler bug that aborts compilation when its
// structural trigger is present in the input module. The introduced/fixed
// pair places the defect in the target's release history: it is live at
// release i (1-based) iff introduced <= i and (fixed == 0 or fixed > i).
// fixed == 0 means the defect is still live at the latest release.
type crashDefect struct {
	sig        string
	fires      func(m *spirv.Module) bool
	introduced int
	fixed      int
}

// mutateDefect is an injected compiler bug that silently miscompiles. It is
// one scan function with an apply switch: scan(m, false) reports whether the
// rewrite would change m (pure predicate, no clone), scan(m, true) performs
// the semantics-changing rewrite in place. One implementation serving both
// modes keeps the predicate and the rewrite coherent, which the compile-
// sharing contract below depends on.
type mutateDefect struct {
	name       string
	scan       func(m *spirv.Module, apply bool) bool
	introduced int
	fixed      int
}

// Mutation is one miscompiling rewrite a target will apply to a module,
// as selected by Target.Mutations. It is opaque outside the package; the
// execution engine treats a mutation list plus its fingerprint as the key
// that decides which targets may share a compile.
type Mutation struct {
	d *mutateDefect
}

// Name returns the defect's name, the unit of the mutation fingerprint.
func (mu Mutation) Name() string { return mu.d.name }

// Apply performs the miscompiling rewrite on m in place.
func (mu Mutation) Apply(m *spirv.Module) { mu.d.scan(m, true) }

// Target is one simulated toolchain from Table 2, or a historical release
// view of one. The canonical target returned by All()/ByName() is the latest
// release; At() resolves earlier releases to views that see only the defects
// live at that point in the target's history. Views share the canonical
// target's Name (crash signatures are version-independent, so one bug keeps
// one signature across releases) and carry the release name in Version.
type Target struct {
	Name      string
	Version   string
	GPUType   string
	CanRender bool // false for offline tools: crash/validity bugs only

	crashes   []crashDefect
	mutations []mutateDefect

	releases []string           // ordered release names, oldest first
	views    map[string]*Target // release name -> view; latest maps to the canonical target
}

// CheckCrashes scans m against the target's injected crash defects — a pure
// predicate walk, no clone, no optimization — and returns the first firing
// defect's Crash (deterministic order, first trigger wins), or nil.
func (t *Target) CheckCrashes(m *spirv.Module) *Crash {
	for _, d := range t.crashes {
		if d.fires(m) {
			return &Crash{Signature: t.Name + ": " + d.sig}
		}
	}
	return nil
}

// Mutations returns the target's miscompiling rewrites that fire on m, in
// application order. Predicates are evaluated against the unmutated input
// module; every current target carries at most one mutation, so the firing
// set fully determines the rewrite sequence.
func (t *Target) Mutations(m *spirv.Module) []Mutation {
	var out []Mutation
	for i := range t.mutations {
		if t.mutations[i].scan(m, false) {
			out = append(out, Mutation{d: &t.mutations[i]})
		}
	}
	return out
}

// MutationFingerprint canonically encodes which of the target's mutate
// defects fire on m: defect names in application order, newline-joined. Two
// targets with equal fingerprints for a module produce bitwise-identical
// compiled modules from SharedCompile, so they may share one compile; the
// common fingerprint is "" (no mutation fires), which all nine targets share
// on defect-free modules.
func (t *Target) MutationFingerprint(m *spirv.Module) string {
	return FingerprintMutations(t.Mutations(m))
}

// FingerprintMutations is MutationFingerprint over an already-selected
// mutation list.
func FingerprintMutations(muts []Mutation) string {
	if len(muts) == 0 {
		return ""
	}
	fp := muts[0].d.name
	for _, mu := range muts[1:] {
		fp += "\n" + mu.d.name
	}
	return fp
}

// SharedCompile is the target-independent tail of the toolchain: clone m,
// apply the given miscompiling rewrites in order, and run the shared
// optimization pipeline. A pipeline failure is returned as an error with no
// target prefix — callers wrap it in their own Crash signature. Because the
// only target-specific compile step is the mutation set, any two targets
// whose mutation fingerprints match share one SharedCompile result.
func SharedCompile(m *spirv.Module, muts []Mutation) (*spirv.Module, error) {
	c := m.Clone()
	for _, mu := range muts {
		mu.Apply(c)
	}
	if err := opt.Pipeline(c, opt.Standard(), 0); err != nil {
		return nil, err
	}
	return c, nil
}

// Compile pushes m through the simulated toolchain: injected crash defects
// first, then the shared clone + mutate + optimize tail. It returns the
// compiled module, or a Crash if the toolchain failed.
func (t *Target) Compile(m *spirv.Module) (*spirv.Module, *Crash) {
	if crash := t.CheckCrashes(m); crash != nil {
		return nil, crash
	}
	compiled, err := SharedCompile(m, t.Mutations(m))
	if err != nil {
		return nil, t.ICE(err.Error())
	}
	return compiled, nil
}

// Run compiles m and, for render-capable targets, executes the compiled
// module on the given inputs. A nil image with a nil crash means the target
// compiled the module but cannot render (offline tools).
func (t *Target) Run(m *spirv.Module, in interp.Inputs) (*interp.Image, *Crash) {
	compiled, crash := t.Compile(m)
	if crash != nil {
		return nil, crash
	}
	if !t.CanRender {
		return nil, nil
	}
	img, err := interp.Render(compiled, in)
	if err != nil {
		return nil, t.DeviceFault(err.Error())
	}
	return img, nil
}

// registry holds the targets in Table 2 order; byName indexes them for the
// lookups every campaign spec, CLI flag and journal record resolves through.
var registry, byName = buildRegistry()

// All returns the targets in Table 2 order. The returned slice is fresh but
// the targets themselves are shared; they are immutable after init.
func All() []*Target {
	out := make([]*Target, len(registry))
	copy(out, registry)
	return out
}

// ByName returns the target with the given name, or nil.
func ByName(name string) *Target {
	return byName[name]
}

// Releases returns the ordered release names of the named target, oldest
// first; the last entry is the release All()/ByName() serve. The returned
// slice is fresh. Unknown targets return nil.
func Releases(name string) []string {
	t := byName[name]
	if t == nil {
		return nil
	}
	out := make([]string, len(t.releases))
	copy(out, t.releases)
	return out
}

// At returns the view of the named target at the given release: a Target
// whose CheckCrashes/Mutations see only the defects live at that release.
// The latest release resolves to the canonical *Target pointer itself, so
// probes against it share every cache entry with the default path. Unknown
// names or releases return nil. Views are immutable after init.
func At(name, version string) *Target {
	t := byName[name]
	if t == nil {
		return nil
	}
	return t.views[version]
}

// IntroductionOf is the defect-set ground truth for evaluating bisection:
// it returns the release that introduced the named target's live defect
// identified by key — either a full crash signature ("Target: assert text")
// or a mutate-defect name (the unit of the mutation fingerprint). Unknown
// keys and fixed defects return "".
func IntroductionOf(name, key string) string {
	t := byName[name]
	if t == nil {
		return ""
	}
	for _, d := range t.crashes {
		if t.Name+": "+d.sig == key {
			return t.releases[d.introduced-1]
		}
	}
	for _, d := range t.mutations {
		if d.name == key {
			return t.releases[d.introduced-1]
		}
	}
	return ""
}

// targetDef is the registry's construction shape: the full defect history of
// one toolchain (live and fixed defects interleaved in check order) plus the
// length of its release sequence ("v1".."vN").
type targetDef struct {
	name, version, gpu string
	canRender          bool
	nReleases          int
	crashes            []crashDefect
	mutations          []mutateDefect
}

// liveAt reports whether a defect with the given span is present at the
// 1-based release index i.
func liveAt(introduced, fixed, i int) bool {
	return introduced <= i && (fixed == 0 || fixed > i)
}

func buildRegistry() ([]*Target, map[string]*Target) {
	// Each target's history assigns every Table 2 defect an introducing
	// release and adds a few defects that were fixed before the latest
	// release. Historical defects reuse the same fuzzer-feature predicates
	// as live ones (several deliberately mirror a sibling target's live
	// defect, fixed in the newer lineage), so the package invariant — no
	// corpus reference program ever crashes or miscompiles — holds at every
	// release, not just the latest.
	defs := []targetDef{
		{
			name: "AMD-LLPC", version: "llpc 8.0-dev", gpu: "Radeon RX 5700 XT", canRender: false, nReleases: 12,
			crashes: []crashDefect{
				{"LLVM ERROR: legacy lowering assert on OpVectorShuffle", hasVectorShuffle, 1, 4},
				{"LLVM ERROR: isel: unfolded algebraic identity in shader body", hasIdentityArithmetic, 3, 0},
				{"LLVM ERROR: cannot allocate private segment for module-scope variable", hasPrivateGlobal, 5, 0},
				{"PAL pipeline assert: subroutine with control flow requires inline expansion", hasMultiBlockHelperWithControl, 8, 0},
				{"PAL pipeline assert: unexpected function control mask", hasNonzeroFunctionControl, 10, 0},
			},
		},
		{
			name: "Mesa", version: "20.1.0", gpu: "Intel HD 630", canRender: true, nReleases: 8,
			crashes: []crashDefect{
				{"NIR validation failed: vec lowering assert on OpVectorShuffle", hasVectorShuffle, 1, 5},
			},
			mutations: []mutateDefect{
				{"hoisted loop-bound off-by-one", scanHoistedLoopBound, 6, 0},
			},
		},
		{
			name: "Mesa-Old", version: "19.2.8", gpu: "Intel HD 630", canRender: true, nReleases: 6,
			crashes: []crashDefect{
				{"NIR validation failed: vec lowering assert on OpVectorShuffle", hasVectorShuffle, 2, 0},
			},
			mutations: []mutateDefect{
				{"hoisted loop-bound off-by-one", scanHoistedLoopBound, 4, 0},
			},
		},
		{
			name: "NVIDIA", version: "440.100", gpu: "GeForce GTX 1060", canRender: true, nReleases: 10,
			crashes: []crashDefect{
				{"scheduler fault: unexpected function control mask", hasNonzeroFunctionControl, 2, 5},
				{"scheduler fault: subroutine with internal control flow", hasMultiBlockHelper, 7, 0},
			},
		},
		{
			name: "Pixel-5", version: "Adreno V@0502", gpu: "Qualcomm Adreno 620", canRender: true, nReleases: 7,
			crashes: []crashDefect{
				{"compiler hang: store/discard combination in eliminated region", hasDeadStoreAndKill, 4, 0},
			},
			mutations: []mutateDefect{
				{"block-layout fragment drop", scanLayoutKill, 2, 0},
			},
		},
		{
			name: "Pixel-4", version: "Adreno V@0415", gpu: "Qualcomm Adreno 640", canRender: true, nReleases: 9,
			crashes: []crashDefect{
				{"shader compiler assert: nested statically-dead discard region", hasNestedDeadKill, 3, 0},
				{"shader compiler assert: discard in statically-taken branch", hasKillBehindConstantBranch, 6, 0},
			},
			mutations: []mutateDefect{
				{"block-layout fragment drop", scanLayoutKill, 2, 0},
			},
		},
		{
			name: "spirv-opt", version: "v2020.2", gpu: "n/a (offline optimizer)", canRender: false, nReleases: 11,
			crashes: []crashDefect{
				{"emitted invalid SPIR-V: constant-false selection leaves orphan edge", hasConstantFalseBranch, 2, 7},
				{"inline pass assert: argument copy-in overflow for widened signature", hasManyParams, 9, 0},
				{"ssa-rewrite assert: phi with a single predecessor after CFG cleanup", hasSingleArmPhi, 4, 0},
			},
		},
		{
			name: "spirv-opt-old", version: "v2019.5", gpu: "n/a (offline optimizer)", canRender: false, nReleases: 6,
			crashes: []crashDefect{
				{"ssa-rewrite assert: phi with a single predecessor after CFG cleanup", hasSingleArmPhi, 3, 0},
				{"emitted invalid SPIR-V: constant-false selection leaves orphan edge", hasConstantFalseBranch, 1, 0},
			},
		},
		{
			name: "SwiftShader", version: "4.1 (LLVM 7)", gpu: "CPU (software renderer)", canRender: true, nReleases: 8,
			crashes: []crashDefect{
				{"Reactor assertion failed: private allocation at module scope", hasPrivateGlobal, 1, 3},
				{"Reactor assertion failed: mustInline(callee) in Optimizer::inlineAll", hasDontInlineCallee, 5, 0},
			},
		},
	}

	all := make([]*Target, 0, len(defs))
	index := make(map[string]*Target, len(defs))
	for _, def := range defs {
		all = append(all, buildTarget(def))
	}
	for _, t := range all {
		index[t.Name] = t
	}
	return all, index
}

// buildTarget materializes one toolchain and every release view from its
// defect history. The canonical target (the def's latest release) carries
// exactly the defects live at release nReleases, in history order, which
// preserves the pre-versioning CheckCrashes/Mutations behavior byte for
// byte. A registry with an inconsistent span is a programming error and
// panics at init.
func buildTarget(def targetDef) *Target {
	n := def.nReleases
	for _, d := range def.crashes {
		checkSpan(def.name, d.sig, d.introduced, d.fixed, n)
	}
	for _, d := range def.mutations {
		checkSpan(def.name, d.name, d.introduced, d.fixed, n)
	}
	releases := make([]string, n)
	for i := range releases {
		releases[i] = fmt.Sprintf("v%d", i+1)
	}
	views := make(map[string]*Target, n)
	canonical := &Target{
		Name: def.name, Version: def.version, GPUType: def.gpu, CanRender: def.canRender,
		releases: releases, views: views,
	}
	for i := 1; i <= n; i++ {
		t := canonical
		if i < n {
			t = &Target{
				Name: def.name, Version: releases[i-1], GPUType: def.gpu, CanRender: def.canRender,
				releases: releases, views: views,
			}
		}
		for _, d := range def.crashes {
			if liveAt(d.introduced, d.fixed, i) {
				t.crashes = append(t.crashes, d)
			}
		}
		for _, d := range def.mutations {
			if liveAt(d.introduced, d.fixed, i) {
				t.mutations = append(t.mutations, d)
			}
		}
		views[releases[i-1]] = t
	}
	return canonical
}

// checkSpan validates one defect's release span against the target's
// release count.
func checkSpan(target, defect string, introduced, fixed, n int) {
	if introduced < 1 || introduced > n || (fixed != 0 && (fixed <= introduced || fixed > n)) {
		panic(fmt.Sprintf("target %s: defect %q has inconsistent release span [%d, %d) over %d releases",
			target, defect, introduced, fixed, n))
	}
}
