package experiments

// Sanitizer-overhead experiment: one target fuzzed under the closurex
// mechanism with the sanitizer off, on, and on with static check elision,
// reporting throughput per mode. The report backs `make benchjson`
// (BENCH_sanitizer.json) so CI can track both the cost of the shadow
// plane and whether static check elision measurably reduces it.

import (
	"fmt"
	"strings"

	"closurex/internal/analysis/sanitize"
	"closurex/internal/core"
	"closurex/internal/targets"
)

// SanitizerRow is one sanitize-mode point of the overhead experiment.
// Execs and Edges come from the last round.
type SanitizerRow struct {
	Mode        string `json:"mode"` // off | on | on+elide
	Execs       int64  `json:"execs"`
	ExecsPerSec Spread `json:"execs_per_sec"`
	// Overhead is exec time relative to mode=off (off's median over this
	// mode's); ElideVsOn, on the on+elide row only, is its throughput
	// relative to mode=on, the comparison the elision claim rests on.
	Overhead  *Ratio `json:"overhead,omitempty"`
	ElideVsOn *Ratio `json:"elide_vs_on,omitempty"`
	Edges     int    `json:"edges"`
}

// SanitizerReport is the JSON envelope BENCH_sanitizer.json carries.
type SanitizerReport struct {
	Host         Host           `json:"host"`
	Target       string         `json:"target"`
	Mechanism    string         `json:"mechanism"`
	ExecsPerMode int64          `json:"execs_per_mode"`
	Checks       int            `json:"static_checks"` // checks left after elision
	Elided       int            `json:"static_elided"`
	ElisionRate  float64        `json:"elision_rate"`
	Rows         []SanitizerRow `json:"rows"`
}

// RunSanitizerOverhead fuzzes target under the closurex mechanism in each
// sanitize mode, running execsPerMode executions per round from the same
// trial seed, and reports each mode's throughput spread plus the static
// elision statistics of the instrumented build.
func RunSanitizerOverhead(target string, execsPerMode int64, seed uint64) (*SanitizerReport, error) {
	t := targets.Get(target)
	if t == nil {
		return nil, fmt.Errorf("experiments: unknown target %q", target)
	}
	if execsPerMode <= 0 {
		execsPerMode = 20000
	}
	rep := &SanitizerReport{
		Host:         thisHost(),
		Target:       target,
		Mechanism:    MechClosureX,
		ExecsPerMode: execsPerMode,
	}
	mod, err := core.BuildWith(t.Short+".c", t.Source, core.BuildConfig{Variant: core.ClosureX, Sanitize: core.SanitizeElide})
	if err != nil {
		return nil, fmt.Errorf("experiments: %s: %w", target, err)
	}
	sr := sanitize.ReportModule(mod)
	rep.Checks, rep.Elided = sr.Totals()
	rep.ElisionRate = sr.Rate()

	modes := []core.SanitizeMode{core.SanitizeOff, core.SanitizeNoElide, core.SanitizeElide}
	rep.Rows = make([]SanitizerRow, len(modes))
	arms := make([]arm, len(modes))
	for i, mode := range modes {
		row := &rep.Rows[i]
		row.Mode = mode.String()
		arms[i] = campaignArm(t, core.InstanceOptions{TrialSeed: seed, Sanitize: mode}, execsPerMode, func(inst *core.Instance) {
			row.Execs, row.Edges = inst.Driver().Execs(), inst.Driver().Edges()
		})
	}
	s, err := sweep(arms...)
	if err != nil {
		return nil, err
	}
	for i := range rep.Rows {
		rep.Rows[i].ExecsPerSec = s[i]
		if i > 0 {
			o := ratio(s[0], s[i])
			rep.Rows[i].Overhead = &o
		}
	}
	elide := ratio(s[2], s[1])
	rep.Rows[2].ElideVsOn = &elide
	return rep, nil
}

// FormatSanitizer renders the overhead report as an aligned text table.
func FormatSanitizer(rep *SanitizerReport) string {
	var b strings.Builder
	fmt.Fprintf(&b, "Sanitizer overhead: %s under %s (%d execs per mode, median of %d alternating rounds; %d checks, %d elided = %.1f%%)\n",
		rep.Target, rep.Mechanism, rep.ExecsPerMode, rep.Host.Rounds, rep.Checks, rep.Elided, 100*rep.ElisionRate)
	fmt.Fprintf(&b, "  %-10s %12s %24s %-18s %-18s %8s\n", "mode", "execs", "execs/s [q1, q3]", "overhead", "vs on", "edges")
	for _, r := range rep.Rows {
		fmt.Fprintf(&b, "  %-10s %12d %24s %-18s %-18s %8d\n",
			r.Mode, r.Execs, r.ExecsPerSec, r.Overhead, r.ElideVsOn, r.Edges)
	}
	return b.String()
}
