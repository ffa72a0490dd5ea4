package core

import (
	"testing"

	"closurex/internal/targets"
)

// FuzzInstrumentAnalyses mutates MinC programs, seeded with every
// registered target, and pushes each through the richest pipeline: the
// restore-elision and check-elision analyses over ClosureX instrumentation.
// The front end may reject an input and the pipeline may refuse it, but
// neither may panic, and a module the pipeline accepts must pass the deep
// verifier and the lints with no error-severity finding.
func FuzzInstrumentAnalyses(f *testing.F) {
	for _, tg := range targets.All() {
		f.Add(tg.Source)
	}
	cfg := BuildConfig{Variant: ClosureX, Sanitize: SanitizeElide, Interproc: true}
	f.Fuzz(func(t *testing.T, src string) {
		m, err := Compile("fuzz.c", src)
		if err != nil {
			return
		}
		mod, err := InstrumentWith(m, cfg)
		if err != nil {
			return
		}
		if ds := CheckModule(mod, cfg.Variant); ds.HasErrors() {
			t.Fatalf("instrumented module fails the checks:\n%s", ds)
		}
	})
}
