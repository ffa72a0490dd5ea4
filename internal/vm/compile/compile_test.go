package compile_test

import (
	"bytes"
	"fmt"
	"testing"

	"closurex/internal/ir"
	"closurex/internal/lower"
	"closurex/internal/passes"
	"closurex/internal/targets"
	"closurex/internal/vm"

	_ "closurex/internal/vm/compile"
)

// buildTarget compiles and instruments one benchmark target with the full
// ClosureX pipeline plus coverage, i.e. the module shape the fuzzer runs.
func buildTarget(t *testing.T, tg *targets.Target, sanitize bool) *ir.Module {
	t.Helper()
	m, err := buildModule(tg, sanitize)
	if err != nil {
		t.Fatalf("%s: %v", tg.Name, err)
	}
	return m
}

func buildModule(tg *targets.Target, sanitize bool) (*ir.Module, error) {
	m, err := lower.Compile(tg.Short+".c", tg.Source, vm.Builtins())
	if err != nil {
		return nil, err
	}
	pm := passes.NewManager(vm.Builtins())
	pm.Add(passes.ClosureXPipeline(false)...)
	if sanitize {
		pm.Add(passes.SanitizerPass{})
	}
	pm.Add(passes.NewCoveragePass(1))
	if err := pm.Run(m); err != nil {
		return nil, err
	}
	vm.ResolveModule(m)
	return m, nil
}

// runOnce executes one input in a fresh VM on the given backend.
func runOnce(t *testing.T, m *ir.Module, backend string, input []byte, budget int64, sanitize bool) (vm.Result, []byte) {
	t.Helper()
	cov := vm.NewCovMap()
	v, err := vm.New(m, vm.Options{
		CovMap:            cov,
		Budget:            budget,
		TraceEdges:        true,
		DeterministicRand: true,
		RandSeed:          1,
		Sanitize:          sanitize,
		Backend:           backend,
	})
	if err != nil {
		t.Fatalf("vm.New(backend=%q): %v", backend, err)
	}
	v.SetInput(input)
	return v.Call(passes.TargetMain), cov
}

// diffResults fails the test unless the two results are bit-identical in
// every observable the fuzzer keys on.
func diffResults(t *testing.T, label string, ri, rc vm.Result, covI, covC []byte) {
	t.Helper()
	if ri.Ret != rc.Ret || ri.Exited != rc.Exited || ri.ExitCode != rc.ExitCode {
		t.Errorf("%s: ret/exit diverge: interp=(%d,%v,%d) compiled=(%d,%v,%d)",
			label, ri.Ret, ri.Exited, ri.ExitCode, rc.Ret, rc.Exited, rc.ExitCode)
	}
	if ri.Instrs != rc.Instrs {
		t.Errorf("%s: instrs diverge: interp=%d compiled=%d", label, ri.Instrs, rc.Instrs)
	}
	if ri.PathHash != rc.PathHash || ri.PathLen != rc.PathLen {
		t.Errorf("%s: path diverges: interp=(%#x,%d) compiled=(%#x,%d)",
			label, ri.PathHash, ri.PathLen, rc.PathHash, rc.PathLen)
	}
	switch {
	case (ri.Fault == nil) != (rc.Fault == nil):
		t.Errorf("%s: fault presence diverges: interp=%v compiled=%v", label, ri.Fault, rc.Fault)
	case ri.Fault != nil:
		fi, fc := ri.Fault, rc.Fault
		if fi.Kind != fc.Kind || fi.Fn != fc.Fn || fi.Line != fc.Line || fi.Addr != fc.Addr || fi.Msg != fc.Msg {
			t.Errorf("%s: fault diverges:\n  interp:   kind=%v fn=%s line=%d addr=%#x msg=%q\n  compiled: kind=%v fn=%s line=%d addr=%#x msg=%q",
				label, fi.Kind, fi.Fn, fi.Line, fi.Addr, fi.Msg,
				fc.Kind, fc.Fn, fc.Line, fc.Addr, fc.Msg)
		}
	}
	if !bytes.Equal(covI, covC) {
		n := 0
		first := -1
		for i := range covI {
			if covI[i] != covC[i] {
				if first < 0 {
					first = i
				}
				n++
			}
		}
		t.Errorf("%s: coverage bitmaps diverge at %d cells (first %d: interp=%d compiled=%d)",
			label, n, first, covI[first], covC[first])
	}
	if ii, ic := vm.CovIndex(covI), vm.CovIndex(covC); ii != nil && ic != nil && *ii != *ic {
		t.Errorf("%s: touched-line indexes diverge", label)
	}
}

// TestBackendRegistered proves the blank import wired the backend in.
func TestBackendRegistered(t *testing.T) {
	for _, b := range vm.Backends() {
		if b == "compiled" {
			return
		}
	}
	t.Fatalf("compiled backend not registered: %v", vm.Backends())
}

// TestDifferentialSeeds runs every target's seed corpus and bug triggers
// through both backends in fresh VMs and demands bit-identical results,
// coverage bitmaps and path hashes.
func TestDifferentialSeeds(t *testing.T) {
	for _, tg := range targets.All() {
		tg := tg
		t.Run(tg.Name, func(t *testing.T) {
			m := buildTarget(t, tg, false)
			inputs := tg.Seeds()
			for _, b := range tg.Bugs {
				inputs = append(inputs, b.Trigger)
			}
			for i, in := range inputs {
				ri, covI := runOnce(t, m, vm.InterpBackend, in, 0, false)
				rc, covC := runOnce(t, m, "compiled", in, 0, false)
				diffResults(t, fmt.Sprintf("input %d", i), ri, rc, covI, covC)
			}
		})
	}
}

// TestDifferentialSanitize repeats the seed sweep with the sanitizer pass
// and shadow plane on: OpSanCheck budget compensation and sancheck+access
// superinstruction fusion must not perturb any observable.
func TestDifferentialSanitize(t *testing.T) {
	for _, tg := range targets.All() {
		tg := tg
		t.Run(tg.Name, func(t *testing.T) {
			m := buildTarget(t, tg, true)
			inputs := tg.Seeds()
			for _, b := range tg.Bugs {
				inputs = append(inputs, b.Trigger)
			}
			for i, in := range inputs {
				ri, covI := runOnce(t, m, vm.InterpBackend, in, 0, true)
				rc, covC := runOnce(t, m, "compiled", in, 0, true)
				diffResults(t, fmt.Sprintf("input %d", i), ri, rc, covI, covC)
			}
		})
	}
}

// TestDifferentialTimeoutSites sweeps tiny instruction budgets so the
// timeout lands at many different instructions, forcing the compiled
// tier's slow path, and demands the hang verdict fires at the identical
// site with the identical instruction count.
func TestDifferentialTimeoutSites(t *testing.T) {
	for _, tg := range targets.All() {
		tg := tg
		t.Run(tg.Name, func(t *testing.T) {
			seeds := tg.Seeds()
			if len(seeds) == 0 {
				t.Skip("no seeds")
			}
			m := buildTarget(t, tg, true)
			in := seeds[0]
			// Establish the full cost, then cut budgets through the whole
			// execution range, dense at the start (where runs are short and
			// fused pairs sit near block heads) and logarithmic after.
			full, _ := runOnce(t, m, vm.InterpBackend, in, 0, true)
			budgets := []int64{}
			for b := int64(1); b <= 64; b++ {
				budgets = append(budgets, b)
			}
			for b := int64(80); b < full.Instrs+16; b = b*5/4 + 1 {
				budgets = append(budgets, b)
			}
			for _, b := range budgets {
				ri, covI := runOnce(t, m, vm.InterpBackend, in, b, true)
				rc, covC := runOnce(t, m, "compiled", in, b, true)
				diffResults(t, fmt.Sprintf("budget %d", b), ri, rc, covI, covC)
			}
		})
	}
}

// TestCompiledRepeatIdentity runs the same input twice in the SAME
// compiled VM (interleaved executions, pooled frames reused) and demands
// identical observables — the compiled tier must not leak state between
// executions beyond what the target itself mutates.
func TestCompiledRepeatIdentity(t *testing.T) {
	tg := targets.All()[0]
	m := buildTarget(t, tg, false)
	seeds := tg.Seeds()
	if len(seeds) == 0 {
		t.Skip("no seeds")
	}
	cov := vm.NewCovMap()
	v, err := vm.New(m, vm.Options{
		CovMap:            cov,
		TraceEdges:        true,
		DeterministicRand: true,
		RandSeed:          1,
		Backend:           "compiled",
	})
	if err != nil {
		t.Fatal(err)
	}
	// Persistent-style reruns mutate globals, so compare against the
	// interpreter doing the exact same rerun sequence instead of against
	// the first compiled run.
	covI := vm.NewCovMap()
	vi, err := vm.New(m, vm.Options{
		CovMap:            covI,
		TraceEdges:        true,
		DeterministicRand: true,
		RandSeed:          1,
		Backend:           vm.InterpBackend,
	})
	if err != nil {
		t.Fatal(err)
	}
	for round := 0; round < 3; round++ {
		for si, in := range seeds {
			v.SetInput(in)
			vi.SetInput(in)
			rc := v.Call(passes.TargetMain)
			ri := vi.Call(passes.TargetMain)
			diffResults(t, fmt.Sprintf("round %d seed %d", round, si), ri, rc, covI, cov)
		}
	}
}

// TestUnknownBackend proves vm.New rejects unregistered backend names.
func TestUnknownBackend(t *testing.T) {
	tg := targets.All()[0]
	m := buildTarget(t, tg, false)
	if _, err := vm.New(m, vm.Options{Backend: "no-such-backend"}); err == nil {
		t.Fatal("vm.New accepted an unknown backend")
	}
}
