package harness

import (
	"testing"

	"closurex/internal/passes"
	"closurex/internal/targets"
	"closurex/internal/vm"
)

// newTargetHarness builds a registered target, sanitized (elided checks)
// when asked, into a full-restore harness.
func newTargetHarness(t *testing.T, tg *targets.Target, sanitize bool) *Harness {
	t.Helper()
	m := buildInstrumented(t, tg.Source)
	if sanitize {
		if err := (passes.SanitizerPass{Elide: true}).Run(m); err != nil {
			t.Fatal(err)
		}
	}
	// A fixed heap base keeps the iteration's malloc on the same shadow
	// page, one the post-init snapshot lacks.
	v, err := vm.New(m, vm.Options{Sanitize: sanitize, DeterministicRand: true})
	if err != nil {
		t.Fatal(err)
	}
	h, err := New(v, FullRestore())
	if err != nil {
		t.Fatal(err)
	}
	return h
}

// TestShadowIterationAllocs pins the shadow rollback as allocation-free:
// a sanitized iteration that mallocs into a shadow page absent from the
// post-init snapshot, and so has that page rolled back by every restore,
// allocates exactly as often as the same iteration unsanitized.
func TestShadowIterationAllocs(t *testing.T) {
	tg := targets.Get("c-blosc2")
	if tg == nil {
		t.Fatal("target c-blosc2 not registered")
	}
	input := tg.Seeds()[0]
	allocs := func(sanitize bool) float64 {
		h := newTargetHarness(t, tg, sanitize)
		for i := 0; i < 10; i++ { // warm up: fill scratch buffers and spare pages
			h.RunOne(input)
		}
		before := h.Stats()
		n := testing.AllocsPerRun(50, func() { h.RunOne(input) })
		after := h.Stats()
		if err := h.TakeRestoreError(); err != nil {
			t.Fatalf("restore: %v", err)
		}
		if sanitize && after.ShadowPagesRestored-before.ShadowPagesRestored < after.Iterations-before.Iterations {
			t.Fatalf("sanitized iterations rolled back %d shadow pages in %d runs; want at least one per run",
				after.ShadowPagesRestored-before.ShadowPagesRestored, after.Iterations-before.Iterations)
		}
		return n
	}
	plain, san := allocs(false), allocs(true)
	if san != plain {
		t.Fatalf("allocations per iteration: sanitized %v, unsanitized %v; the shadow rollback allocates", san, plain)
	}
}
