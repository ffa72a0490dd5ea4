package core

import (
	"errors"
	"testing"

	"closurex/internal/analysis"
	"closurex/internal/harness"
	"closurex/internal/ir"
	"closurex/internal/passes"
	"closurex/internal/targets"
	"closurex/internal/vm"
)

// TestAllTargetsCheckCleanAfterPipelines is the differential acceptance
// test: for every registered benchmark, the output of each instrumentation
// pipeline must pass the deep verifier and the variant-appropriate
// restore-completeness lints with zero diagnostics. A regression in any
// pass shows up here as a named CLX finding on a named target.
func TestAllTargetsCheckCleanAfterPipelines(t *testing.T) {
	all := targets.All()
	if len(all) == 0 {
		t.Fatal("no registered targets")
	}
	for _, tgt := range all {
		for _, v := range []Variant{Baseline, ClosureX, ClosureXDeferInit} {
			mod, err := Build(tgt.Short+".c", tgt.Source, v)
			if err != nil {
				t.Errorf("%s/%s: build: %v", tgt.Name, v, err)
				continue
			}
			if ds := CheckModule(mod, v); len(ds) != 0 {
				t.Errorf("%s/%s: %d finding(s):\n%s", tgt.Name, v, len(ds), ds)
			}
		}
	}
}

// counterSrc is the smallest non-restartable-without-help program: a
// writable global whose mutation is observable in the return value.
const counterSrc = `
int runs;
int main(void) { runs++; return runs; }
`

// twoRuns executes target_main twice under a full-restore harness and
// returns both return values.
func twoRuns(t *testing.T, mod *ir.Module) (int64, int64) {
	t.Helper()
	v, err := vm.New(mod, vm.Options{})
	if err != nil {
		t.Fatal(err)
	}
	h, err := harness.New(v, harness.FullRestore())
	if err != nil {
		t.Fatal(err)
	}
	r1 := h.RunOne(nil)
	if r1.Fault != nil {
		t.Fatalf("first run faulted: %v", r1.Fault)
	}
	if err := h.TakeRestoreError(); err != nil {
		t.Fatalf("restore failed: %v", err)
	}
	r2 := h.RunOne(nil)
	if r2.Fault != nil {
		t.Fatalf("second run faulted: %v", r2.Fault)
	}
	return r1.Ret, r2.Ret
}

// TestLintVerdictMatchesRuntimeBehavior is the lint-vs-runtime comparison:
// the static CLX004 verdict must agree with what a persistent campaign
// actually observes. A module the lints accept behaves identically across
// iterations; a module they reject visibly leaks state at runtime.
func TestLintVerdictMatchesRuntimeBehavior(t *testing.T) {
	// Full pipeline: statically clean, and iteration 2 sees iteration 1's
	// world exactly restored.
	full, err := Build("t.c", counterSrc, ClosureX)
	if err != nil {
		t.Fatal(err)
	}
	if ds := CheckModule(full, ClosureX); len(ds) != 0 {
		t.Fatalf("full pipeline flagged:\n%s", ds)
	}
	r1, r2 := twoRuns(t, full)
	if r1 != 1 || r2 != 1 {
		t.Fatalf("lint-clean module not restartable at runtime: runs = %d, %d (want 1, 1)", r1, r2)
	}

	// The same program through a pipeline missing GlobalPass: the lint
	// predicts the leak statically...
	pristine, err := Compile("t.c", counterSrc)
	if err != nil {
		t.Fatal(err)
	}
	defective := pristine.Clone()
	pm := passes.NewManager(vm.Builtins())
	pm.Add(passes.RenameMainPass{}, passes.ExitPass{}, passes.HeapPass{}, passes.FilePass{})
	pm.Add(passes.NewCoveragePass(passes.CoverageSeed))
	if err := pm.Run(defective); err != nil {
		t.Fatal(err)
	}
	ds := LintModule(defective, ClosureX)
	if got := ds.ByID(analysis.IDGlobalSection); len(got) == 0 {
		t.Fatalf("lint missed the un-sectioned global; findings:\n%s", ds)
	}
	if !errors.Is(ds.Err(), analysis.ErrDiagnostics) {
		t.Fatalf("lint error not errors.Is-able: %v", ds.Err())
	}
	// ...and the runtime confirms it: the counter survives the restore.
	d1, d2 := twoRuns(t, defective)
	if d1 != 1 || d2 != 2 {
		t.Fatalf("expected the leak the lint predicted: runs = %d, %d (want 1, 2)", d1, d2)
	}
}

// TestVerifyModuleAndLintModuleVariants pins the facade-level routing:
// pristine modules are never linted, baseline modules get the shared
// subset, ClosureX modules the full catalog.
func TestVerifyModuleAndLintModuleVariants(t *testing.T) {
	pristine, err := Compile("t.c", counterSrc)
	if err != nil {
		t.Fatal(err)
	}
	if ds := VerifyModule(pristine); len(ds) != 0 {
		t.Fatalf("pristine module does not verify:\n%s", ds)
	}
	if ds := LintModule(pristine, Pristine); ds != nil {
		t.Fatalf("pristine variant linted: %s", ds)
	}
	// A pristine module still has main and raw state, so the full catalog
	// must flag it — proof LintModule's variant routing matters.
	if ds := LintModule(pristine, ClosureX); !ds.HasErrors() {
		t.Fatal("full catalog accepted an uninstrumented module")
	}
	baseline, err := Build("t.c", counterSrc, Baseline)
	if err != nil {
		t.Fatal(err)
	}
	if ds := LintModule(baseline, Baseline); len(ds) != 0 {
		t.Fatalf("baseline build flagged by the shared subset:\n%s", ds)
	}
}
