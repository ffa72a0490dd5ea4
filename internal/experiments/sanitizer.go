package experiments

// Sanitizer-overhead experiment: one target fuzzed under the closurex
// mechanism with the sanitizer off, on, and on with static check elision,
// reporting throughput per mode. The JSON emitter backs `make benchjson`
// (BENCH_sanitizer.json) so CI can track both the cost of the shadow
// plane and the fraction of it the elision analysis buys back.

import (
	"encoding/json"
	"fmt"
	"os"
	"strings"
	"time"

	"closurex/internal/analysis/sanitize"
	"closurex/internal/core"
	"closurex/internal/targets"
)

// SanitizerRow is one sanitize-mode point of the overhead experiment.
type SanitizerRow struct {
	Mode        string  `json:"mode"` // off | on | on+elide
	Execs       int64   `json:"execs"`
	Seconds     float64 `json:"seconds"`
	ExecsPerSec float64 `json:"execs_per_sec"`
	Overhead    float64 `json:"overhead"` // exec time relative to mode=off
	Edges       int     `json:"edges"`
}

// SanitizerReport is the JSON envelope BENCH_sanitizer.json carries.
type SanitizerReport struct {
	Target       string         `json:"target"`
	Mechanism    string         `json:"mechanism"`
	ExecsPerMode int64          `json:"execs_per_mode"`
	Checks       int            `json:"static_checks"` // checks left after elision
	Elided       int            `json:"static_elided"`
	ElisionRate  float64        `json:"elision_rate"`
	Rows         []SanitizerRow `json:"rows"`
}

// sanitizerTrials is how many times each mode is timed; the fastest trial
// is reported. The modes differ only in instruction count (elide executes a
// strict subset of on's shadow checks), so min-of-N filters scheduler and
// GC noise out of what is otherwise a monotone ordering.
const sanitizerTrials = 3

// RunSanitizerOverhead fuzzes target under the closurex mechanism in each
// sanitize mode, running execsPerMode executions per point from the same
// trial seed, and reports the best-of-N throughput plus the static elision
// statistics of the instrumented build.
func RunSanitizerOverhead(target string, execsPerMode int64, seed uint64) (*SanitizerReport, error) {
	t := targets.Get(target)
	if t == nil {
		return nil, fmt.Errorf("experiments: unknown target %q", target)
	}
	if execsPerMode <= 0 {
		execsPerMode = 20000
	}
	rep := &SanitizerReport{
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

	for _, mode := range []core.SanitizeMode{core.SanitizeOff, core.SanitizeNoElide, core.SanitizeElide} {
		var row SanitizerRow
		row.Mode = mode.String()
		for trial := 0; trial < sanitizerTrials; trial++ {
			inst, err := core.NewInstance(t, MechClosureX, core.InstanceOptions{
				TrialSeed: seed,
				Sanitize:  mode,
			})
			if err != nil {
				return nil, fmt.Errorf("experiments: mode=%s: %w", mode, err)
			}
			start := time.Now()
			inst.Driver().RunExecs(execsPerMode)
			elapsed := time.Since(start)
			execs := inst.Driver().Execs()
			edges := inst.Driver().Edges()
			inst.Close()
			if trial == 0 || elapsed.Seconds() < row.Seconds {
				row.Execs = execs
				row.Seconds = elapsed.Seconds()
				row.Edges = edges
			}
		}
		if row.Seconds > 0 {
			row.ExecsPerSec = float64(row.Execs) / row.Seconds
		}
		if len(rep.Rows) > 0 && row.ExecsPerSec > 0 {
			row.Overhead = rep.Rows[0].ExecsPerSec / row.ExecsPerSec
		} else {
			row.Overhead = 1
		}
		rep.Rows = append(rep.Rows, row)
	}
	return rep, nil
}

// FormatSanitizer renders the overhead report as an aligned text table.
func FormatSanitizer(rep *SanitizerReport) string {
	var b strings.Builder
	fmt.Fprintf(&b, "Sanitizer overhead: %s under %s (%d execs per mode; %d checks, %d elided = %.1f%%)\n",
		rep.Target, rep.Mechanism, rep.ExecsPerMode, rep.Checks, rep.Elided, 100*rep.ElisionRate)
	fmt.Fprintf(&b, "  %-10s %12s %10s %12s %9s %8s\n", "mode", "execs", "seconds", "execs/s", "overhead", "edges")
	for _, r := range rep.Rows {
		fmt.Fprintf(&b, "  %-10s %12d %10.3f %12.0f %8.2fx %8d\n",
			r.Mode, r.Execs, r.Seconds, r.ExecsPerSec, r.Overhead, r.Edges)
	}
	return b.String()
}

// WriteSanitizerJSON writes the report to path as indented JSON (the
// BENCH_sanitizer.json artifact).
func WriteSanitizerJSON(path string, rep *SanitizerReport) error {
	data, err := json.MarshalIndent(rep, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}
