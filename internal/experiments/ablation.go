package experiments

import (
	"fmt"
	"slices"
	"strings"
	"time"

	"closurex/internal/core"
	"closurex/internal/execmgr"
	"closurex/internal/harness"
	"closurex/internal/targets"
)

// AblationRow measures ClosureX with one restoration step disabled — the
// design-choice ablation for DESIGN.md's per-pass justification. Each row
// fuzzes gpmf-parser briefly and counts the damage.
type AblationRow struct {
	Name string
	// ExecsPerSec is throughput (restoration steps have a cost; dropping
	// one should not be *why* you would — the violations are).
	ExecsPerSec float64
	// FalseCrashes counts crash buckets that are NOT planted bugs —
	// phantom findings a triager would waste time on.
	FalseCrashes int
	// MissedPlanted counts planted bugs the run failed to find that the
	// full configuration found.
	MissedPlanted int
	// LiveChunksEnd / OpenFDsEnd audit leaked state at campaign end.
	LiveChunksEnd int
	OpenFDsEnd    int
}

// FormatAblation renders the ablation table.
func FormatAblation(rows []AblationRow) string {
	var sb strings.Builder
	sb.WriteString("Ablation: ClosureX restoration steps (gpmf-parser)\n")
	fmt.Fprintf(&sb, "%-18s %12s %13s %14s %12s %10s\n",
		"Configuration", "execs/s", "false crashes", "missed planted", "live chunks", "open FDs")
	for _, r := range rows {
		fmt.Fprintf(&sb, "%-18s %12.0f %13d %14d %12d %10d\n",
			r.Name, r.ExecsPerSec, r.FalseCrashes, r.MissedPlanted, r.LiveChunksEnd, r.OpenFDsEnd)
	}
	return sb.String()
}

// RunAblation fuzzes gpmf-parser under each harness configuration for d
// per run.
func RunAblation(d time.Duration, seed uint64) ([]AblationRow, error) {
	if d <= 0 {
		d = 2 * time.Second
	}
	t := targets.Get("gpmf-parser")
	keys, err := bugKeys(t)
	if err != nil {
		return nil, err
	}

	full := harness.FullRestore()
	noGlobals := full
	noGlobals.RestoreGlobals = false
	noHeap := full
	noHeap.ResetHeap = false
	noFiles := full
	noFiles.CloseFiles = false

	configs := []struct {
		name string
		opts harness.Options
	}{
		{"full", full},
		{"-GlobalPass", noGlobals},
		{"-HeapPass", noHeap},
		{"-FilePass", noFiles},
	}

	var rows []AblationRow
	var fullFound map[string]bool
	for _, cfg := range configs {
		opts := cfg.opts
		inst, err := core.NewInstance(t, MechClosureX, core.InstanceOptions{
			TrialSeed:   seed,
			HarnessOpts: &opts,
		})
		if err != nil {
			return nil, err
		}
		inst.Campaign.RunFor(d)
		row := AblationRow{Name: cfg.name}
		if el := inst.Campaign.Elapsed(); el > 0 {
			row.ExecsPerSec = float64(inst.Campaign.Execs()) / el.Seconds()
		}
		found := map[string]bool{}
		for _, cr := range inst.Campaign.Crashes() {
			if id, planted := keys[cr.Key]; planted {
				found[id] = true
			} else {
				row.FalseCrashes++
			}
		}
		if cfg.name == "full" {
			fullFound = found
		} else {
			for id := range fullFound {
				if !found[id] {
					row.MissedPlanted++
				}
			}
		}
		cx := inst.Mech.(*execmgr.ClosureX)
		row.LiveChunksEnd = cx.Harness().VM().Heap.LiveChunks()
		row.OpenFDsEnd = cx.Harness().VM().FS.OpenCount()
		inst.Close()
		rows = append(rows, row)
	}
	return rows, nil
}

// DeferInitAblation measures the deferred-initialization extension: a
// target with an input-independent setup phase, built with and without
// DeferInitPass, compared on throughput.
type DeferInitResult struct {
	NsPerExecBaseline float64 // init re-executed every iteration
	NsPerExecDeferred float64 // init hoisted out of the loop
	Speedup           float64
	InitWorkPerExec   int64 // interpreted instructions of hoisted init
	ResultsEquivalent bool  // both builds compute the same answers
}

// deferInitSource has a deliberately expensive input-independent
// initialization phase (building a 4096-entry table).
const deferInitSource = `
int table[4096];
int table_ready;
void closurex_init(void) {
	for (int i = 0; i < 4096; i++) {
		table[i] = (i * 2654435761) & 0xffff;
	}
	table_ready = 1;
}
int main(void) {
	closurex_init();
	int f = fopen("/input", "r");
	if (!f) abort();
	int c = fgetc(f);
	fclose(f);
	if (c < 0) c = 0;
	return table[c & 4095] & 255;
}
`

// RunDeferInitAblation measures the extension over n executions per sweep
// round; the results check replays the inputs after each build's first round.
func RunDeferInitAblation(n int) (DeferInitResult, error) {
	if n <= 0 {
		n = 500
	}
	var out DeferInitResult
	inputs := [][]byte{{1}, {2}, {200}, {17}}
	rets := make([][]int64, 2)
	arms := make([]arm, 2)
	for i, variant := range []core.Variant{core.ClosureX, core.ClosureXDeferInit} {
		mod, err := core.Build("deferinit.c", deferInitSource, variant)
		if err != nil {
			return out, err
		}
		arms[i] = replayArm(func() (execmgr.Mechanism, error) {
			return execmgr.New("closurex", execmgr.Config{Module: mod})
		}, inputs, 8, n, func(m execmgr.Mechanism) {
			if rets[i] == nil {
				for _, in := range inputs {
					rets[i] = append(rets[i], m.Execute(in).Ret)
				}
			}
		})
	}
	s, err := sweep(arms...)
	if err != nil {
		return out, err
	}
	out.NsPerExecBaseline = 1e9 / s[0].Median
	out.NsPerExecDeferred = 1e9 / s[1].Median
	out.Speedup = s[1].Median / s[0].Median
	out.ResultsEquivalent = slices.Equal(rets[0], rets[1])
	return out, nil
}
