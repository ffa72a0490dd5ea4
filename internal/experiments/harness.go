package experiments

// Harness-quality experiment: every benchmark target is scored by the
// static harness audit (reachability, coverage geometry, dictionary
// liveness) and then fuzzed from the same trial seed — with the
// hand-written dictionary alone and with the statically harvested
// auto-dictionary merged in — to measure the coverage the harvested
// compare constants buy. The report backs `make benchjson`
// (BENCH_harness.json). With the auto-dictionary disabled the campaign
// must be bit-identical to the historical stream; the bench cross-checks
// that by requiring every off-round to reproduce the same edge count.

import (
	"fmt"
	"strings"

	"closurex/internal/analysis/harnessaudit"
	"closurex/internal/core"
	"closurex/internal/targets"
)

// DictGainRow is one target's point of the harness-quality experiment.
type DictGainRow struct {
	Target string `json:"target"`
	// Static audit summary: the score card headline plus the dictionary
	// census behind it.
	Score          float64 `json:"score"`
	DictTokens     int     `json:"dict_tokens"`
	LiveDictTokens int     `json:"live_dict_tokens"`
	AutoDictTokens int     `json:"auto_dict_tokens"`
	// Throughput and coverage of the same campaign (same trial seed, same
	// execs) with the auto-dictionary off and on. EdgeDelta is the
	// per-target coverage delta the harvested tokens buy; DeterministicOff
	// tripwires any divergence between off-rounds, which would mean the
	// auto-dictionary plumbing perturbed the baseline stream.
	ExecsPerSecOff   Spread `json:"execs_per_sec_off"`
	ExecsPerSecOn    Spread `json:"execs_per_sec_on"`
	EdgesOff         int    `json:"edges_off"`
	EdgesOn          int    `json:"edges_on"`
	EdgeDelta        int    `json:"edge_delta"`
	DeterministicOff bool   `json:"deterministic_off"`
}

// DictGainReport is the JSON envelope BENCH_harness.json carries.
type DictGainReport struct {
	Host           Host          `json:"host"`
	Mechanism      string        `json:"mechanism"`
	ExecsPerTarget int64         `json:"execs_per_target"`
	Rows           []DictGainRow `json:"rows"`
	// Aggregates over all targets.
	MeanScore       float64 `json:"mean_score"`
	TotalAutoTokens int     `json:"total_auto_tokens"`
	TotalEdgeDelta  int     `json:"total_edge_delta"`
}

// RunDictGain audits every registered target, then times execsPerTarget
// executions of the same campaign with the auto-dictionary off and on.
func RunDictGain(execsPerTarget int64, seed uint64) (*DictGainReport, error) {
	if execsPerTarget <= 0 {
		execsPerTarget = 10000
	}
	rep := &DictGainReport{
		Host:           thisHost(),
		Mechanism:      MechClosureX,
		ExecsPerTarget: execsPerTarget,
	}
	for _, t := range targets.All() {
		row := DictGainRow{Target: t.Name}

		// Static side: one instrumented build feeds the harness audit.
		inst, err := core.NewInstance(t, MechClosureX, core.InstanceOptions{
			TrialSeed: seed,
		})
		if err != nil {
			return nil, fmt.Errorf("experiments: %s: %w", t.Name, err)
		}
		dict := make([][]byte, 0, len(t.Dict))
		for _, s := range t.Dict {
			dict = append(dict, []byte(s))
		}
		card, _ := harnessaudit.Audit(t.Name, inst.Module, harnessaudit.Options{Dict: dict})
		inst.Close()
		row.Score = card.Score
		row.DictTokens = card.DictTokens
		row.LiveDictTokens = card.LiveDictTokens
		row.AutoDictTokens = card.AutoDictTokens

		// Dynamic side: identical campaigns (same trial seed) with and
		// without the harvested tokens; every off-round must reproduce the
		// same edge count.
		var edgesOff, edgesOn []int
		off := core.InstanceOptions{TrialSeed: seed, DeterministicRand: true}
		on := off
		on.AutoDict = true
		sp, err := sweep(
			campaignArm(t, off, execsPerTarget, func(inst *core.Instance) { edgesOff = append(edgesOff, inst.Driver().Edges()) }),
			campaignArm(t, on, execsPerTarget, func(inst *core.Instance) { edgesOn = append(edgesOn, inst.Driver().Edges()) }))
		if err != nil {
			return nil, err
		}
		row.ExecsPerSecOff, row.ExecsPerSecOn = sp[0], sp[1]
		row.EdgesOff, row.EdgesOn = edgesOff[0], edgesOn[0]
		row.EdgeDelta = row.EdgesOn - row.EdgesOff
		row.DeterministicOff = allEqual(edgesOff)

		rep.Rows = append(rep.Rows, row)
		rep.MeanScore += row.Score
		rep.TotalAutoTokens += row.AutoDictTokens
		rep.TotalEdgeDelta += row.EdgeDelta
	}
	if n := len(rep.Rows); n > 0 {
		rep.MeanScore /= float64(n)
	}
	return rep, nil
}

// FormatDictGain renders the harness-quality report as an aligned table.
func FormatDictGain(rep *DictGainReport) string {
	var b strings.Builder
	fmt.Fprintf(&b, "Harness audit and auto-dictionary gain under %s (%d execs per point, median of %d alternating rounds):\n",
		rep.Mechanism, rep.ExecsPerTarget, rep.Host.Rounds)
	fmt.Fprintf(&b, "  %-16s %6s %9s %5s %9s %9s %6s %6s %6s %5s\n",
		"target", "score", "dict l/n", "auto", "off ex/s", "on ex/s",
		"edges-", "edges+", "delta", "det")
	for _, r := range rep.Rows {
		det := "ok"
		if !r.DeterministicOff {
			det = "DIFF"
		}
		fmt.Fprintf(&b, "  %-16s %6.1f %5d/%-3d %5d %9.0f %9.0f %6d %6d %+6d %5s\n",
			r.Target, r.Score, r.LiveDictTokens, r.DictTokens, r.AutoDictTokens,
			r.ExecsPerSecOff.Median, r.ExecsPerSecOn.Median, r.EdgesOff, r.EdgesOn, r.EdgeDelta, det)
	}
	fmt.Fprintf(&b, "  total: mean score %.1f/100; %d auto-dict tokens harvested; %+d edges from the auto-dictionary\n",
		rep.MeanScore, rep.TotalAutoTokens, rep.TotalEdgeDelta)
	return b.String()
}
