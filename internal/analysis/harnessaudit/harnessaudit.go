// Package harnessaudit scores the quality of a fuzzing harness from its
// lowered module — the third analysis client on the interprocedural call
// graph (analysis/interproc) and the dataflow framework (analysis), after
// the sanitizer elision and restore-elision analyses.
//
// A harness can be perfectly *correct* (restartable, restore-complete) and
// still fuzz badly: functions the entry point can never reach contribute
// dead surface, a coverage map too small for the probe population cannot
// distinguish new coverage, and dictionary tokens whose bytes never flow
// into a comparison are wasted mutation budget. Harnesses rot exactly this
// way as targets evolve (Görz et al., "An Empirical Study of Fuzz Harness
// Degradation"). Three cooperating analyses quantify each axis:
//
//   - static reachability (reach.go): interprocedural function
//     reachability from target_main/closurex_init plus per-function CFG
//     block reachability. Unreachable functions and blocks are dead
//     harness surface — CLX119.
//   - coverage geometry (geometry.go): probe population vs. map cells,
//     linear-probing displacement density, and static edge count. A
//     saturated or heavily displaced map masks new coverage — CLX120.
//   - input dataflow (inputflow.go): taint-style forward dataflow from the
//     input-reading builtins (fread/fgetc, plus entry-point parameters)
//     to compare operands, harvesting the constants input bytes are
//     compared against. Dictionary tokens no harvested witness accounts
//     for are dead — CLX121 — and the witnesses themselves become a
//     per-target auto-dictionary for the mutator's havoc stage.
//
// Audit fuses the three into a deterministic per-target score card
// (scorecard.go) rendered by closurex-lint -harness-report and, as
// byte-stable JSON, -harness-json; `make harness-audit` runs the catalog
// under -strict so a quality regression fails `make check`.
package harnessaudit

import (
	"fmt"
	"strings"

	"closurex/internal/analysis"
	"closurex/internal/ir"
)

// auditPass names this checker in diagnostics.
const auditPass = "harnessaudit"

// CLX120 gate thresholds. The benchmark targets sit far inside them
// (saturation well under 1%, zero displaced probes at 2^16 cells); the
// thresholds exist so a future harness with a genuinely degraded geometry
// trips CLX120 rather than silently fuzzing blind.
const (
	// DefaultMaxSaturationPct is the probes/cells ceiling (percent) above
	// which the map is considered saturated.
	DefaultMaxSaturationPct = 25.0
	// DefaultMaxDisplacedPct is the ceiling (percent of probes) for
	// collision-displaced probe IDs.
	DefaultMaxDisplacedPct = 10.0
)

// Options tunes Audit.
type Options struct {
	// Dict is the target's manual dictionary; each token is audited for
	// input-dataflow liveness (CLX121). Nil audits no tokens.
	Dict [][]byte
	// MapCells overrides the coverage-map cell count the geometry analysis
	// scores against (0 uses passes.CovMapCells, the real 2^16 map).
	// Tests pass tiny values to exercise the saturation gate.
	MapCells int
}

func (o *Options) fill() {
	if o.MapCells == 0 {
		o.MapCells = mapCellsDefault
	}
}

// Audit runs the three harness-quality analyses over a lowered module and
// returns the fused score card plus the CLX119-121 findings. All findings
// are warnings: a degraded harness still runs, it just fuzzes worse — the
// `make harness-audit` gate runs closurex-lint under -strict to fail CI on
// them anyway. Deterministic: same module and options, same card bytes and
// finding order.
func Audit(target string, m *ir.Module, opts Options) (*Card, analysis.Diagnostics) {
	opts.fill()
	var ds analysis.Diagnostics

	reach := analyzeReach(m)
	ds = append(ds, reach.diagnostics()...)

	geom := analyzeGeometry(m, opts.MapCells)
	ds = append(ds, geom.diagnostics()...)

	flow := analyzeInputFlow(m)
	audit := auditDict(flow, opts.Dict)
	ds = append(ds, audit.diagnostics()...)

	ds.Sort()
	return buildCard(target, reach, geom, audit), ds
}

// Harvest returns just the auto-dictionary for a lowered module: the
// deduplicated, deterministically ordered token list the input-dataflow
// analysis extracted from compares against input-derived values. This is
// the entry point core.NewInstance uses when InstanceOptions.AutoDict is
// set; the tokens are merged with the target's manual dictionary by
// fuzz.MergeDict.
func Harvest(m *ir.Module) [][]byte {
	return analyzeInputFlow(m).autoDict()
}

// pct returns 100*num/den rounded to one decimal, and 100 for an empty
// denominator (an absent axis is healthy, not failing).
func pct(num, den int) float64 {
	if den == 0 {
		return 100
	}
	return round1(100 * float64(num) / float64(den))
}

func round1(x float64) float64 {
	if x < 0 {
		return -round1(-x)
	}
	return float64(int64(x*10+0.5)) / 10
}

// quoteToken renders a dictionary token for humans: printable bytes
// verbatim, everything else \xNN-escaped byte-wise. Tokens are byte
// strings, never text — %q would fuse multi-byte sequences that happen to
// be valid UTF-8 into runes and obscure the actual file bytes.
func quoteToken(tok []byte) string {
	var b strings.Builder
	b.WriteByte('"')
	for _, c := range tok {
		switch {
		case c == '"' || c == '\\':
			b.WriteByte('\\')
			b.WriteByte(c)
		case c >= 0x20 && c < 0x7f:
			b.WriteByte(c)
		default:
			fmt.Fprintf(&b, "\\x%02x", c)
		}
	}
	b.WriteByte('"')
	return b.String()
}
