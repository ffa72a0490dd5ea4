// Package core ties the ClosureX toolchain together: it compiles MinC
// sources, applies the instrumentation pipeline appropriate for each
// execution mechanism, and wires module + mechanism + fuzzer into one
// runnable instance. The public facade (package closurex at the repository
// root) and the experiment drivers are thin layers over this package.
package core

import (
	"fmt"
	"strings"
	"time"

	"closurex/internal/analysis"
	"closurex/internal/analysis/harnessaudit"
	"closurex/internal/execmgr"
	"closurex/internal/faultinject"
	"closurex/internal/fuzz"
	"closurex/internal/harness"
	"closurex/internal/ir"
	"closurex/internal/lower"
	"closurex/internal/minc"
	"closurex/internal/passes"
	"closurex/internal/targets"
	"closurex/internal/vm"
)

// Variant selects an instrumentation pipeline.
type Variant int

// Pipeline variants.
const (
	// Pristine applies no passes: the module as the front end emitted it.
	Pristine Variant = iota
	// Baseline is the AFL++-style build: renamed entry point + coverage,
	// no state-restoration hooks. Used by fresh/forkserver/naive modes.
	Baseline
	// ClosureX is the full Table 3 pipeline + coverage.
	ClosureX
	// ClosureXDeferInit additionally hoists closurex_init (future work).
	ClosureXDeferInit
)

func (v Variant) String() string {
	switch v {
	case Pristine:
		return "pristine"
	case Baseline:
		return "baseline"
	case ClosureX:
		return "closurex"
	case ClosureXDeferInit:
		return "closurex+deferinit"
	}
	return fmt.Sprintf("variant(%d)", int(v))
}

// ParseVariant maps a variant name, as Variant.String prints it, back to
// the variant.
func ParseVariant(s string) (Variant, error) {
	for _, v := range []Variant{Pristine, Baseline, ClosureX, ClosureXDeferInit} {
		if v.String() == s {
			return v, nil
		}
	}
	return 0, fmt.Errorf("unknown variant %q", s)
}

// VariantFor returns the build variant an execution mechanism needs.
func VariantFor(mechanism string) Variant {
	if strings.HasPrefix(mechanism, "closurex") {
		return ClosureX
	}
	return Baseline
}

// RegisterTarget adds a user-defined benchmark target to the registry,
// surfacing validation failures (nil target, empty or duplicate name) as
// errors — registration input must never panic a library.
func RegisterTarget(t *targets.Target) error { return targets.Register(t) }

// TargetInitErrors reports registration problems from the built-in target
// suite's package initialization (empty for a healthy build).
func TargetInitErrors() []error { return targets.InitErrors() }

// AuditEveryDefault is the -audit-restore cadence: one full-section
// elision audit per this many iterations (matching the resilience layer's
// default watchdog cadence).
const AuditEveryDefault = 64

// Compile lowers MinC source to a pristine, verified module. The module is
// call-resolved so even pristine executions dispatch through cached callee
// indices.
func Compile(file, src string) (*ir.Module, error) {
	prog, err := minc.Parse(file, src)
	if err != nil {
		return nil, err
	}
	return CompileProgram(prog)
}

// CompileProgram is Compile for an already parsed program.
func CompileProgram(prog *minc.Program) (*ir.Module, error) {
	m, err := lower.CompileProgram(prog, vm.Builtins())
	if err != nil {
		return nil, err
	}
	vm.ResolveModule(m)
	return m, nil
}

// SanitizeMode selects how much sanitizer instrumentation a build carries.
type SanitizeMode int

// Sanitizer build modes. SanitizeNoElide exists for the overhead benchmark:
// it measures what the static check-elision analysis is worth.
const (
	SanitizeOff SanitizeMode = iota
	SanitizeNoElide
	SanitizeElide
)

func (s SanitizeMode) String() string {
	switch s {
	case SanitizeOff:
		return "off"
	case SanitizeNoElide:
		return "on"
	case SanitizeElide:
		return "on+elide"
	}
	return fmt.Sprintf("sanitize(%d)", int(s))
}

// Enabled reports whether the mode arms the shadow plane at all.
func (s SanitizeMode) Enabled() bool { return s != SanitizeOff }

// BuildConfig collects every knob of the instrumentation pipeline.
type BuildConfig struct {
	Variant  Variant
	Sanitize SanitizeMode
	// Interproc inserts passes.InterprocPass after the state-tracking
	// pipeline: the interprocedural mod/ref + lifetime analysis stamps
	// restore-elision metadata (may-write global set, TrackElide/FileElide
	// marks) the harness scopes its snapshot/restore/watchdog work to.
	// Only meaningful for the ClosureX variants; silently ignored
	// elsewhere (baseline/pristine builds have no restore loop to scope).
	Interproc bool
}

// Instrument applies the variant's pipeline to a clone of m, leaving m
// untouched, and returns the instrumented module.
func Instrument(m *ir.Module, v Variant) (*ir.Module, error) {
	return InstrumentWith(m, BuildConfig{Variant: v})
}

// InstrumentWith applies the configured pipeline to a clone of m. The
// ordering contract: InterprocPass runs right after the state-restoration
// pipeline (its proofs are about the closurex_* call shape that pipeline
// produces), SanitizerPass after that (so every access it instruments is
// final), and CoveragePass last — it only prepends probes at block heads,
// preserving both the check-immediately-precedes-access adjacency
// (CLX112/CLX113) and the elision marks' site geometry (CLX114 re-audits
// them under VerifyEach). Because neither InterprocPass nor SanitizerPass
// creates blocks, coverage probe IDs — and hence bitmap geometry — are
// identical across sanitizer and interproc modes.
func InstrumentWith(m *ir.Module, cfg BuildConfig) (*ir.Module, error) {
	out := m.Clone()
	pm := passes.NewManager(vm.Builtins()).VerifyEach(verifyEachDefault)
	addSan := func() {
		if cfg.Sanitize.Enabled() {
			pm.Add(passes.SanitizerPass{Elide: cfg.Sanitize == SanitizeElide})
		}
	}
	addInterproc := func() {
		if cfg.Interproc {
			pm.Add(passes.InterprocPass{})
		}
	}
	switch cfg.Variant {
	case Pristine:
		if !cfg.Sanitize.Enabled() {
			return out, nil
		}
		addSan()
	case Baseline:
		pm.Add(passes.RenameMainPass{})
		addSan()
		pm.Add(passes.NewCoveragePass(passes.CoverageSeed))
	case ClosureX:
		pm.Add(passes.ClosureXPipeline(false)...)
		addInterproc()
		addSan()
		pm.Add(passes.NewCoveragePass(passes.CoverageSeed))
	case ClosureXDeferInit:
		pm.Add(passes.ClosureXPipeline(true)...)
		addInterproc()
		addSan()
		pm.Add(passes.NewCoveragePass(passes.CoverageSeed))
	default:
		return nil, fmt.Errorf("core: unknown variant %d", int(cfg.Variant))
	}
	if err := pm.Run(out); err != nil {
		return nil, err
	}
	// Module-commit point: the pipeline is done rewriting call sites, so
	// stamp the callee-index cache the VM dispatches through (and CLX122
	// audits).
	vm.ResolveModule(out)
	return out, nil
}

// Build compiles and instruments in one step.
func Build(file, src string, v Variant) (*ir.Module, error) {
	return BuildWith(file, src, BuildConfig{Variant: v})
}

// BuildWith compiles and instruments with a full build configuration.
func BuildWith(file, src string, cfg BuildConfig) (*ir.Module, error) {
	m, err := Compile(file, src)
	if err != nil {
		return nil, err
	}
	return InstrumentWith(m, cfg)
}

// VerifyModule runs the deep check, passes.Verify, over m with the VM's
// builtin set.
func VerifyModule(m *ir.Module) analysis.Diagnostics {
	return passes.Verify(m, analysis.NewBuiltins(vm.Builtins()))
}

// LintModule runs the restore-completeness lints appropriate for a build
// variant: the full catalog for ClosureX builds, whose output must be
// restartable, and the shared subset (entry renaming, coverage sanity) for
// baseline builds, which legitimately keep raw heap/file/exit calls.
func LintModule(m *ir.Module, v Variant) analysis.Diagnostics {
	switch v {
	case ClosureX, ClosureXDeferInit:
		return analysis.Lint(m)
	case Baseline:
		return analysis.LintShared(m)
	default:
		return nil // pristine modules carry no pipeline contract to lint
	}
}

// CheckModule verifies then, on a structurally sound module, lints for the
// given variant — the one-call gate closurex-lint and the -lint campaign
// flag share.
func CheckModule(m *ir.Module, v Variant) analysis.Diagnostics {
	ds := VerifyModule(m)
	if ds.HasErrors() {
		return ds
	}
	return append(ds, LintModule(m, v)...)
}

// Instance is one runnable fuzzing configuration: a target built for a
// mechanism, plus a campaign driving it. With Jobs <= 1 the campaign is
// the sequential fuzz.Campaign; with Jobs > 1 it is a
// fuzz.ParallelCampaign over Jobs mechanisms, and Mech/CovMap alias shard
// 0's. Driver returns whichever is active.
type Instance struct {
	Target   *targets.Target
	Module   *ir.Module
	Mech     execmgr.Mechanism
	CovMap   []byte
	Campaign *fuzz.Campaign
	// Mechs holds every shard's mechanism (len 1 for sequential runs).
	Mechs []execmgr.Mechanism
	// Parallel is non-nil when the instance runs sharded (Jobs > 1).
	Parallel *fuzz.ParallelCampaign
}

// Driver returns the active campaign — sequential or parallel — behind the
// shared fuzz.Driver interface.
func (in *Instance) Driver() fuzz.Driver {
	if in.Parallel != nil {
		return in.Parallel
	}
	return in.Campaign
}

// Jobs returns the number of parallel shards (1 for sequential instances).
func (in *Instance) Jobs() int {
	if in.Parallel != nil {
		return in.Parallel.Jobs()
	}
	return 1
}

// InstanceOptions tunes NewInstance.
type InstanceOptions struct {
	// TrialSeed seeds the campaign RNG; each trial uses a distinct seed.
	TrialSeed uint64
	// Budget overrides the per-execution instruction budget.
	Budget int64
	// HarnessOpts overrides which state ClosureX restores (ablations).
	HarnessOpts *harness.Options
	// DeferInit switches the ClosureX build to the DeferInit pipeline.
	DeferInit bool
	// Files pre-populates the virtual filesystem (configs etc.).
	Files map[string][]byte
	// Resilient wraps a "closurex" mechanism in the watchdog/rebuild/
	// fallback ladder (execmgr.Resilient, whose bounds are fixed);
	// NewInstance refuses it for any other mechanism.
	Resilient bool
	// SentinelEvery arms the divergence sentinel every N campaign
	// executions: replays under a fresh reference image are cross-checked
	// against the campaign mechanism. 0 disables. Implies DeterministicRand.
	SentinelEvery int64
	// DeterministicRand pins the VM rand()/heap-ASLR seeds to TrialSeed.
	// NewInstance turns it on whenever the sentinel is armed or the
	// campaign resumes: probe replays and resumed runs must reproduce
	// executions exactly, and per-process entropy would read as divergence
	// or drift.
	DeterministicRand bool
	// Sanitize arms the ASan-style shadow plane: the build gets
	// SanitizerPass checks (elided where the static analysis proves them
	// unnecessary under SanitizeElide) and every VM — including the
	// sentinel's fresh reference image — attaches shadow memory.
	Sanitize SanitizeMode
	// Interproc arms restore elision end to end: the build runs
	// passes.InterprocPass and the ClosureX harness scopes its global
	// snapshot/restore/watchdog work to the analysis-proven may-write
	// ranges (harness.Options.ElideRestore). Coverage bitmaps and corpora
	// are bit-identical with and without it — only restore bandwidth and
	// bookkeeping change.
	Interproc bool
	// AuditRestore arms the runtime elision audit: every AuditEveryDefault
	// iterations the harness re-checks the full closure section (and the
	// must-free/must-close censuses) against the init snapshot, repairing
	// and surfacing an ErrAudit on any drift the elided restore missed.
	AuditRestore bool
	// Injector arms fault injection across the VM and harness.
	Injector *faultinject.Injector
	// Stop propagates a supervisor's shutdown request into the campaign.
	Stop <-chan struct{}
	// ResumeFrom, when non-nil, restores campaign state from a checkpoint
	// (fuzz.Campaign.Checkpoint) instead of starting fresh. The target,
	// mechanism and TrialSeed must match the checkpointed run. Implies
	// DeterministicRand.
	ResumeFrom []byte
	// Jobs shards the campaign across N parallel workers, each with its
	// own process image and harness, merging coverage into a shared global
	// bitmap. 0 or 1 runs the plain sequential campaign; Jobs == 1 via the
	// parallel executor is bit-identical to it. A parallel checkpoint
	// resumes bit-identically under the same Jobs and elastically (corpus
	// re-sharded deterministically, totals preserved) under any other
	// Jobs > 1; sequential checkpoints still need Jobs <= 1.
	Jobs int
	// AutoDict harvests an input-dataflow auto-dictionary from the built
	// module (analysis/harnessaudit: constants the target compares
	// input-derived values against, in both endiannesses, plus rodata
	// strings and call-site constant clusters) and merges it after the
	// target's manual tokens, deduplicated and capped (fuzz.MergeDict).
	// Off, the dictionary path is untouched — campaigns are bit-identical
	// to builds that predate the wiring.
	AutoDict bool
	// ShardBackoff is the base cooldown before a shard restart, doubling
	// per consecutive fault (0 uses the default). Parallel instances only.
	ShardBackoff time.Duration
}

// NewInstance builds target t for the named mechanism and wires a
// campaign seeded with the target's corpus. Every process image gets t's
// ImagePages; a caller that wants none passes a copy of t with
// ImagePages 0.
func NewInstance(t *targets.Target, mechanism string, opts InstanceOptions) (*Instance, error) {
	if t == nil {
		return nil, fmt.Errorf("core: nil target")
	}
	if opts.Resilient && mechanism != "closurex" {
		return nil, fmt.Errorf("core: the resilience ladder wraps only the closurex mechanism, not %q", mechanism)
	}
	variant := VariantFor(mechanism)
	if variant == ClosureX && opts.DeferInit {
		variant = ClosureXDeferInit
	}
	mod, err := BuildWith(t.Short+".c", t.Source, BuildConfig{
		Variant:   variant,
		Sanitize:  opts.Sanitize,
		Interproc: opts.Interproc,
	})
	if err != nil {
		return nil, fmt.Errorf("core: build %s: %w", t.Name, err)
	}
	hopts := opts.HarnessOpts
	if opts.Interproc || opts.AuditRestore {
		h := harness.FullRestore()
		if hopts != nil {
			h = *hopts
		}
		h.ElideRestore = h.ElideRestore || opts.Interproc
		if opts.AuditRestore && h.AuditEvery <= 0 {
			h.AuditEvery = AuditEveryDefault
		}
		hopts = &h
	}
	// base is every process image's VM configuration; each image sets its
	// own CovMap and RandSeed on a copy. Entropy is pinned whenever the
	// sentinel or a resume needs executions to reproduce.
	base := vm.Options{
		Budget:            opts.Budget,
		Files:             opts.Files,
		ImagePages:        t.ImagePages,
		DeterministicRand: opts.DeterministicRand || opts.SentinelEvery > 0 || opts.ResumeFrom != nil,
		Injector:          opts.Injector,
		Sanitize:          opts.Sanitize.Enabled(),
	}
	// newMech builds one execution mechanism over the shared instrumented
	// module. Every shard of a parallel instance gets its own: VM memory
	// uses non-atomic copy-on-write bookkeeping, so process images must
	// never be shared across shard goroutines. randSeed varies per shard
	// (ShardSeed) so heap ASLR and target rand() streams are independent.
	newMech := func(cov []byte, randSeed uint64) (execmgr.Mechanism, error) {
		mcfg := execmgr.Config{Options: base, Module: mod, HarnessOpts: hopts}
		mcfg.CovMap, mcfg.RandSeed = cov, randSeed
		if opts.Resilient {
			return execmgr.NewResilient(mcfg)
		}
		return execmgr.New(mechanism, mcfg)
	}
	// newSentinel arms the divergence sentinel against mech. The reference
	// replays each probe in a brand-new process image of the SAME
	// instrumented module, so both coverage maps share probe geometry.
	// Image pages are skipped: the reference models fresh semantics, not
	// fresh cost. It does not inject faults. Its PRNG seed matches the
	// probed mechanism's so the heap-ASLR base cannot masquerade as
	// divergence (the §6.1.4 nondeterminism masking, done by construction).
	// The persistent image's rand() stream still rolls forward across
	// iterations while each reference image starts it afresh.
	newSentinel := func(mech execmgr.Mechanism, randSeed uint64) (*fuzz.SentinelConfig, error) {
		refCov := vm.NewCovMap()
		rcfg := execmgr.Config{Options: base, Module: mod}
		rcfg.CovMap, rcfg.RandSeed = refCov, randSeed
		rcfg.ImagePages, rcfg.Injector = 0, nil
		ref, rerr := execmgr.NewFresh(rcfg)
		if rerr != nil {
			return nil, fmt.Errorf("core: sentinel reference: %w", rerr)
		}
		sc := &fuzz.SentinelConfig{
			Reference: ref,
			RefCovMap: refCov,
			Every:     opts.SentinelEvery,
		}
		if ctrl, ok := mech.(fuzz.Controller); ok {
			sc.Controller = ctrl
		}
		return sc, nil
	}
	var dict [][]byte
	for _, tok := range t.Dict {
		dict = append(dict, []byte(tok))
	}
	if opts.AutoDict {
		dict = fuzz.MergeDict(append(dict, harnessaudit.Harvest(mod)...), fuzz.DefaultDictCap)
	}
	fingerprint := t.Name + "@" + mechanism

	if opts.Jobs > 1 {
		return newParallelInstance(t, mod, opts, newMech, newSentinel, dict, fingerprint)
	}

	cov := vm.NewCovMap()
	mech, err := newMech(cov, opts.TrialSeed)
	if err != nil {
		return nil, err
	}
	ccfg := fuzz.Config{
		Executor:    mech,
		CovMap:      cov,
		Seeds:       t.Seeds(),
		Seed:        opts.TrialSeed,
		Fingerprint: fingerprint,
		MaxInputLen: t.MaxInputLen,
		Dict:        dict,
		Stop:        opts.Stop,
	}
	if opts.SentinelEvery > 0 {
		sc, serr := newSentinel(mech, opts.TrialSeed)
		if serr != nil {
			mech.Close()
			return nil, serr
		}
		ccfg.Sentinel = sc
	}
	var camp *fuzz.Campaign
	if opts.ResumeFrom != nil {
		camp, err = fuzz.Resume(ccfg, opts.ResumeFrom)
		if err != nil {
			mech.Close()
			return nil, fmt.Errorf("core: resume %s: %w", t.Name, err)
		}
	} else {
		camp = fuzz.NewCampaign(ccfg)
	}
	return &Instance{
		Target: t, Module: mod, Mech: mech, CovMap: cov, Campaign: camp,
		Mechs: []execmgr.Mechanism{mech},
	}, nil
}

// newParallelInstance assembles a Jobs-shard instance: one mechanism and
// coverage buffer per shard, the divergence sentinel (when armed) riding
// on shard 0 only so the rest of the fleet fuzzes at full speed.
func newParallelInstance(
	t *targets.Target, mod *ir.Module, opts InstanceOptions,
	newMech func(cov []byte, randSeed uint64) (execmgr.Mechanism, error),
	newSentinel func(mech execmgr.Mechanism, randSeed uint64) (*fuzz.SentinelConfig, error),
	dict [][]byte, fingerprint string,
) (*Instance, error) {
	mechs := make([]execmgr.Mechanism, 0, opts.Jobs)
	closeAll := func() {
		for _, m := range mechs {
			m.Close()
		}
	}
	var shards []fuzz.ShardConfig
	for j := 0; j < opts.Jobs; j++ {
		cov := vm.NewCovMap()
		mech, err := newMech(cov, fuzz.ShardSeed(opts.TrialSeed, j))
		if err != nil {
			closeAll()
			return nil, fmt.Errorf("core: shard %d: %w", j, err)
		}
		mechs = append(mechs, mech)
		// The supervisor rebuilds a faulting shard's mechanism in place
		// (Mechanism.Rebuild), so every shard keeps its mechanism for the
		// instance's lifetime and Mech/CovMap stay shard 0's live ones.
		shards = append(shards, fuzz.ShardConfig{Executor: mech, CovMap: cov})
	}
	pcfg := fuzz.ParallelConfig{
		Shards:      shards,
		Seed:        opts.TrialSeed,
		Fingerprint: fingerprint,
		Seeds:       t.Seeds(),
		MaxInputLen: t.MaxInputLen,
		Dict:        dict,
		Stop:        opts.Stop,
		Supervisor: fuzz.SupervisorConfig{
			Backoff:  opts.ShardBackoff,
			Injector: opts.Injector,
		},
	}
	if opts.SentinelEvery > 0 {
		sc, err := newSentinel(mechs[0], fuzz.ShardSeed(opts.TrialSeed, 0))
		if err != nil {
			closeAll()
			return nil, err
		}
		pcfg.Sentinel = sc
	}
	var par *fuzz.ParallelCampaign
	var err error
	if opts.ResumeFrom != nil {
		par, err = fuzz.ResumeParallel(pcfg, opts.ResumeFrom)
	} else {
		par, err = fuzz.NewParallelCampaign(pcfg)
	}
	if err != nil {
		closeAll()
		return nil, fmt.Errorf("core: parallel campaign %s: %w", t.Name, err)
	}
	return &Instance{
		Target: t, Module: mod,
		Mech: mechs[0], CovMap: shards[0].CovMap,
		Mechs: mechs, Parallel: par,
	}, nil
}

// Close releases every shard mechanism's resources.
func (in *Instance) Close() {
	for _, m := range in.Mechs {
		m.Close()
	}
}

// TotalProbes returns the number of coverage probes in the instrumented
// module.
func (in *Instance) TotalProbes() int { return passes.CountProbes(in.Module) }

// TotalEdges returns the static edge bound (the denominator of Table 6's
// coverage percentages).
func (in *Instance) TotalEdges() int { return passes.TotalEdges(in.Module) }
