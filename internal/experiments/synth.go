package experiments

// Synthesized-harness gain experiment: for every benchmark target, run the
// manual harness and the statically synthesized dispatch harness from the
// same trial seed and compare coverage bitmaps cell by cell. The merged
// map must be a strict superset of the manual-only map — the synthesized
// arms, selector dispatch and closurex_init preconditions reach cells the
// manual campaign does not — and any CLX130 from certification is a synth
// bug the bench refuses to average away. The report backs `make
// benchjson` (BENCH_synth.json).

import (
	"fmt"
	"strings"

	"closurex/internal/analysis"
	"closurex/internal/analysis/synth"
	"closurex/internal/core"
	"closurex/internal/targets"
)

// SynthGainRow is one target's point of the synthesized-harness experiment.
type SynthGainRow struct {
	Target string `json:"target"`
	// Synthesis outcome.
	Synthesized bool   `json:"synthesized"`
	Reason      string `json:"reason,omitempty"` // why synthesis declined
	Arms        int    `json:"arms"`
	// Codes counts the synthesis run's diagnostics per catalog ID.
	Codes map[string]int `json:"codes,omitempty"`
	// Coverage census: covered bitmap cells after the same exec budget.
	ManualCells int `json:"manual_cells"`
	SynthCells  int `json:"synth_cells"`
	MergedCells int `json:"merged_cells"`
	// NewCells is |synth \ manual|; strict superset iff > 0.
	NewCells       int  `json:"new_cells"`
	StrictSuperset bool `json:"strict_superset"`
}

// SynthGainReport is the JSON envelope BENCH_synth.json carries.
type SynthGainReport struct {
	Mechanism      string         `json:"mechanism"`
	ExecsPerTarget int64          `json:"execs_per_target"`
	Rows           []SynthGainRow `json:"rows"`
	// Aggregates.
	TargetsSynthesized int `json:"targets_synthesized"`
	TargetsSuperset    int `json:"targets_superset"`
	TotalNewCells      int `json:"total_new_cells"`
	// CLX130 totals certification failures across all targets. Any
	// non-zero value is a synthesizer bug: the bench CLI fails on it.
	CLX130 int `json:"clx130"`
}

// RunSynthGain synthesizes a harness per benchmark target, registers it,
// and measures manual vs manual+synthesized coverage after execsPerTarget
// executions each (deterministic campaigns from the same trial seed).
func RunSynthGain(execsPerTarget int64, seed uint64) (*SynthGainReport, error) {
	if execsPerTarget <= 0 {
		execsPerTarget = 10000
	}
	rep := &SynthGainReport{
		Mechanism:      MechClosureX,
		ExecsPerTarget: execsPerTarget,
	}
	for _, t := range targets.Benchmarks() {
		row := SynthGainRow{Target: t.Name}

		nt, h, serr := synth.TargetFor(t, synth.Options{})
		if h != nil {
			row.Arms = len(h.Report.Arms)
			row.Codes = h.Report.Codes
			rep.CLX130 += h.Report.Codes[analysis.IDSynthCertFail]
		}
		if serr != nil {
			row.Reason = serr.Error()
		}

		manual, err := coveredCells(t, execsPerTarget, seed)
		if err != nil {
			return nil, fmt.Errorf("experiments: %s manual: %w", t.Name, err)
		}
		row.ManualCells = countCells(manual)

		if nt != nil {
			// Re-runs in one process reuse the registered instance.
			if existing := targets.Get(nt.Name); existing != nil {
				nt = existing
			} else if err := core.RegisterTarget(nt); err != nil {
				return nil, fmt.Errorf("experiments: %s: register: %w", t.Name, err)
			}
			row.Synthesized = true
			synthMap, err := coveredCells(nt, execsPerTarget, seed)
			if err != nil {
				return nil, fmt.Errorf("experiments: %s synth: %w", t.Name, err)
			}
			row.SynthCells = countCells(synthMap)
			merged, fresh := 0, 0
			for i := range manual {
				m, s := manual[i], synthMap[i]
				if m || s {
					merged++
				}
				if s && !m {
					fresh++
				}
			}
			row.MergedCells = merged
			row.NewCells = fresh
			row.StrictSuperset = fresh > 0
		} else {
			row.MergedCells = row.ManualCells
		}

		rep.Rows = append(rep.Rows, row)
		if row.Synthesized {
			rep.TargetsSynthesized++
		}
		if row.StrictSuperset {
			rep.TargetsSuperset++
		}
		rep.TotalNewCells += row.NewCells
	}
	return rep, nil
}

// coveredCells runs a deterministic sequential campaign and returns the
// per-cell covered mask of the cumulative coverage bitmap.
func coveredCells(t *targets.Target, execs int64, seed uint64) ([]bool, error) {
	inst, err := core.NewInstance(t, MechClosureX, core.InstanceOptions{
		TrialSeed:         seed,
		DeterministicRand: true,
	})
	if err != nil {
		return nil, err
	}
	defer inst.Close()
	inst.Driver().RunExecs(execs)
	snap := inst.Campaign.BitmapSnapshot()
	mask := make([]bool, len(snap))
	for i, b := range snap {
		mask[i] = b != 0
	}
	return mask, nil
}

func countCells(mask []bool) int {
	n := 0
	for _, c := range mask {
		if c {
			n++
		}
	}
	return n
}

// FormatSynthGain renders the synthesized-harness report as a table.
func FormatSynthGain(rep *SynthGainReport) string {
	var b strings.Builder
	fmt.Fprintf(&b, "Synthesized-harness coverage gain under %s (%d execs per campaign):\n",
		rep.Mechanism, rep.ExecsPerTarget)
	fmt.Fprintf(&b, "  %-16s %5s %6s %6s %6s %6s %5s %8s\n",
		"target", "arms", "manual", "synth", "merged", "new", "sup", "clx130")
	for _, r := range rep.Rows {
		sup := "-"
		if r.Synthesized {
			sup = "no"
			if r.StrictSuperset {
				sup = "yes"
			}
		}
		fmt.Fprintf(&b, "  %-16s %5d %6d %6d %6d %+6d %5s %8d\n",
			r.Target, r.Arms, r.ManualCells, r.SynthCells, r.MergedCells,
			r.NewCells, sup, r.Codes[analysis.IDSynthCertFail])
	}
	fmt.Fprintf(&b, "  total: %d/%d targets synthesized, %d strict supersets, %+d new cells, %d CLX130\n",
		rep.TargetsSynthesized, len(rep.Rows), rep.TargetsSuperset, rep.TotalNewCells, rep.CLX130)
	return b.String()
}
