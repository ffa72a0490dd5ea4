package core

import (
	"errors"
	"strings"
	"testing"

	"closurex/internal/ir"
	"closurex/internal/targets"
	"closurex/internal/vm"
	"closurex/internal/vm/compile"
)

// The translation-validation gate's campaign-level contract: a campaign
// that will execute (or cross-check against) the compiled tier runs the
// static equivalence check before any input executes, and cannot be
// bypassed.

// TestTransvalGateCertifiedStart: every registered target certifies, so
// arming the compiled tier — directly and via the cross-backend sentinel —
// must start normally with the gate on.
func TestTransvalGateCertifiedStart(t *testing.T) {
	tgt := targets.Get("gpmf-parser")
	if tgt == nil {
		t.Fatal("gpmf-parser not registered")
	}
	for _, opts := range []InstanceOptions{
		{Backend: compile.BackendName},
		{Backend: vm.InterpBackend, SentinelCrossBackend: true, SentinelEvery: 100, DeterministicRand: true},
	} {
		opts.TrialSeed = 1
		inst, err := NewInstance(tgt, "closurex", opts)
		if err != nil {
			t.Fatalf("gate refused a certified target (backend=%q cross=%v): %v",
				opts.Backend, opts.SentinelCrossBackend, err)
		}
		inst.Close()
	}
}

// TestTransvalGateUncertifiedRefusal drives the refusal path: a module
// rejected by transval must stop NewInstance before any execution, with a
// message pointing at the interpreter backend.
func TestTransvalGateUncertifiedRefusal(t *testing.T) {
	tgt := targets.Get("gpmf-parser")
	if tgt == nil {
		t.Fatal("gpmf-parser not registered")
	}
	// The gate consults the transvalCheck hook so the refusal path is
	// testable without an uncertifiable module (no real target has one —
	// that is the point of the gate).
	orig := transvalCheck
	defer func() { transvalCheck = orig }()
	calls := 0
	transvalCheck = func(m *ir.Module) error {
		calls++
		return errors.New("forced certification failure")
	}
	if _, err := NewInstance(tgt, "closurex", InstanceOptions{TrialSeed: 1, Backend: compile.BackendName}); err == nil {
		t.Fatal("gate passed an uncertified module")
	} else if !strings.Contains(err.Error(), "-backend=interp") {
		t.Fatalf("refusal does not name the interpreter backend: %v", err)
	}
	if calls != 1 {
		t.Fatalf("gate ran %d times, want 1", calls)
	}
	// Interpreter-only campaigns never invoke the checker.
	inst, err := NewInstance(tgt, "closurex", InstanceOptions{TrialSeed: 1, Backend: vm.InterpBackend})
	if err != nil {
		t.Fatal(err)
	}
	inst.Close()
	if calls != 1 {
		t.Fatalf("gate ran for an interpreter campaign (%d calls)", calls)
	}
}
