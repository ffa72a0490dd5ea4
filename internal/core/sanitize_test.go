package core

import (
	"testing"

	"closurex/internal/analysis/sanitize"
	"closurex/internal/ir"
	"closurex/internal/targets"
)

// TestElisionRateOnExampleTargets is the acceptance bar from the sanitizer
// issue: the static analysis must elide at least 30% of shadow checks on
// the example targets (frame and global scalar traffic dominates MinC
// lowering, and that is exactly what the analysis proves safe).
func TestElisionRateOnExampleTargets(t *testing.T) {
	for _, name := range []string{"sandefect", "giftext"} {
		tg := targets.Get(name)
		if tg == nil {
			t.Fatalf("target %s not registered", name)
		}
		m, err := BuildWith(tg.Short+".c", tg.Source, BuildConfig{Variant: ClosureX, Sanitize: SanitizeElide})
		if err != nil {
			t.Fatalf("build %s: %v", name, err)
		}
		rep := sanitize.ReportModule(m)
		checks, elided := rep.Totals()
		if checks+elided == 0 {
			t.Fatalf("%s: no instrumentable accesses", name)
		}
		if rate := rep.Rate(); rate < 0.30 {
			t.Errorf("%s: elision rate %.1f%% below the 30%% bar\n%s",
				name, 100*rate, rep.Format())
		}
	}
}

// TestSanitizeModesShareCoverageGeometry: all three build modes must carry
// identical coverage probes, or differential results would be meaningless.
func TestSanitizeModesShareCoverageGeometry(t *testing.T) {
	tg := targets.Get("sandefect")
	probes := func(san SanitizeMode) []int64 {
		m, err := BuildWith(tg.Short+".c", tg.Source, BuildConfig{Variant: ClosureX, Sanitize: san})
		if err != nil {
			t.Fatalf("build mode %v: %v", san, err)
		}
		var ids []int64
		for _, f := range m.Funcs {
			for _, b := range f.Blocks {
				for i := range b.Instrs {
					if b.Instrs[i].Op == ir.OpCov {
						ids = append(ids, b.Instrs[i].Imm)
					}
				}
			}
		}
		return ids
	}
	off := probes(SanitizeOff)
	on := probes(SanitizeNoElide)
	elide := probes(SanitizeElide)
	if len(off) == 0 || len(off) != len(on) || len(off) != len(elide) {
		t.Fatalf("probe counts diverge: off=%d on=%d elide=%d", len(off), len(on), len(elide))
	}
	for i := range off {
		if off[i] != on[i] || off[i] != elide[i] {
			t.Fatalf("probe %d diverges across modes: %d/%d/%d", i, off[i], on[i], elide[i])
		}
	}
}

// TestSanitizedModulePassesCheckModule: the lint gate must stay green for
// sanitized ClosureX builds (CLX111-113 run as part of the verifier).
func TestSanitizedModulePassesCheckModule(t *testing.T) {
	for _, tg := range targets.All() {
		m, err := BuildWith(tg.Short+".c", tg.Source, BuildConfig{Variant: ClosureX, Sanitize: SanitizeElide})
		if err != nil {
			t.Fatalf("build %s: %v", tg.Name, err)
		}
		if ds := CheckModule(m, ClosureX); ds.HasErrors() {
			t.Errorf("%s: sanitized build fails lint gate: %v", tg.Name, ds.Errors())
		}
	}
}

// TestElideRateNoElideModeIsZero: SanitizeNoElide must not mark anything.
func TestElideRateNoElideModeIsZero(t *testing.T) {
	tg := targets.Get("sandefect")
	m, err := BuildWith(tg.Short+".c", tg.Source, BuildConfig{Variant: ClosureX, Sanitize: SanitizeNoElide})
	if err != nil {
		t.Fatal(err)
	}
	rep := sanitize.ReportModule(m)
	if _, elided := rep.Totals(); elided != 0 {
		t.Fatalf("no-elide build marked %d accesses", elided)
	}
}
