// Package experiments reproduces the paper's evaluation: Tables 5-7 (from
// one set of campaigns, as in the paper), the correctness study of §6.1.4,
// the mechanism-spectrum overhead breakdown, the stale-state pathology
// demonstration that motivates the work, and ablations over the harness's
// restoration steps. Budgets are scaled by configuration (the paper ran
// 5 × 24 h per cell; the same code runs 5 × seconds here).
package experiments

import (
	"fmt"
	"time"

	"closurex/internal/core"
	"closurex/internal/passes"
	"closurex/internal/targets"
	"closurex/internal/vm"
)

// Config scales the evaluation.
type Config struct {
	// TrialDuration is the fuzzing time per trial (paper: 24 h).
	TrialDuration time.Duration
	// Trials per configuration (paper: 5).
	Trials int
	// Targets restricts the benchmark set; empty means all ten.
	Targets []string
	// BaseSeed derives per-trial RNG seeds.
	BaseSeed uint64
}

// DefaultConfig returns a laptop-scale configuration: 5 trials x 2 s.
func DefaultConfig() Config {
	return Config{TrialDuration: 2 * time.Second, Trials: 5, BaseSeed: 0x5eed}
}

func (c *Config) normalize() error {
	if c.TrialDuration <= 0 {
		c.TrialDuration = 2 * time.Second
	}
	if c.Trials <= 0 {
		c.Trials = 5
	}
	if len(c.Targets) == 0 {
		for _, t := range targets.Benchmarks() {
			c.Targets = append(c.Targets, t.Name)
		}
	}
	for _, n := range c.Targets {
		if targets.Get(n) == nil {
			return fmt.Errorf("experiments: unknown target %q", n)
		}
	}
	return nil
}

// Mechanisms compared in the headline tables: ClosureX vs the AFL++
// forkserver ("the fastest correct process management mechanism").
const (
	MechClosureX = "closurex"
	MechAFLpp    = "forkserver"
)

// TrialResult is one (target, mechanism, trial) cell.
type TrialResult struct {
	Target     string
	Mechanism  string
	Trial      int
	Execs      int64
	Edges      int
	TotalEdges int
	Spawns     int64
	Duration   time.Duration
	// BugTimes maps planted-bug IDs to the time of first discovery.
	BugTimes map[string]time.Duration
}

// Evaluation holds every trial of a run.
type Evaluation struct {
	Cfg     Config
	Results []TrialResult
}

// cells returns the trials for one (target, mechanism).
func (e *Evaluation) cells(target, mech string) []TrialResult {
	var out []TrialResult
	for _, r := range e.Results {
		if r.Target == target && r.Mechanism == mech {
			out = append(out, r)
		}
	}
	return out
}

// bugKeys maps fault triage keys to planted-bug IDs for a target, by
// replaying each trigger in a fresh image of the ClosureX build (the same
// build the campaigns run, so keys match).
func bugKeys(t *targets.Target) (map[string]string, error) {
	if len(t.Bugs) == 0 {
		return nil, nil
	}
	mod, err := core.Build(t.Short+".c", t.Source, core.ClosureX)
	if err != nil {
		return nil, err
	}
	out := make(map[string]string, len(t.Bugs))
	for i := range t.Bugs {
		bug := &t.Bugs[i]
		v, err := vm.New(mod, vm.Options{DeterministicRand: true, RandSeed: 1})
		if err != nil {
			return nil, err
		}
		v.SetInput(bug.Trigger)
		res := v.Call(passes.TargetMain)
		if res.Fault == nil {
			return nil, fmt.Errorf("experiments: trigger for %s does not crash", bug.ID)
		}
		out[res.Fault.Key()] = bug.ID
	}
	return out, nil
}

// RunEvaluation executes the full campaign matrix: every configured target
// under both mechanisms, Trials times each. Tables 5, 6 and 7 all derive
// from the returned evaluation, exactly as the paper derives its three
// tables from one set of 24-hour campaigns.
func RunEvaluation(cfg Config) (*Evaluation, error) {
	if err := cfg.normalize(); err != nil {
		return nil, err
	}
	eval := &Evaluation{Cfg: cfg}
	for _, name := range cfg.Targets {
		t := targets.Get(name)
		keys, err := bugKeys(t)
		if err != nil {
			return nil, err
		}
		// Interleave the mechanisms by trial and alternate which goes first
		// (cx, fs, fs, cx, ...), so host drift lands on both sides of the
		// ratios alike.
		for trial := 0; trial < cfg.Trials; trial++ {
			mechs := []string{MechClosureX, MechAFLpp}
			if trial%2 == 1 {
				mechs[0], mechs[1] = mechs[1], mechs[0]
			}
			for _, mech := range mechs {
				r, err := runTrial(t, mech, cfg, trial, keys)
				if err != nil {
					return nil, err
				}
				eval.Results = append(eval.Results, r)
			}
		}
	}
	return eval, nil
}

func runTrial(t *targets.Target, mech string, cfg Config, trial int, keys map[string]string) (TrialResult, error) {
	seed := cfg.BaseSeed ^ (uint64(trial+1) * 0x9e3779b97f4a7c15)
	inst, err := core.NewInstance(t, mech, core.InstanceOptions{TrialSeed: seed})
	if err != nil {
		return TrialResult{}, err
	}
	defer inst.Close()
	inst.Campaign.RunFor(cfg.TrialDuration)
	res := TrialResult{
		Target:     t.Name,
		Mechanism:  mech,
		Trial:      trial,
		Execs:      inst.Campaign.Execs(),
		Edges:      inst.Campaign.Edges(),
		TotalEdges: inst.TotalEdges(),
		Spawns:     inst.Mech.Spawns(),
		Duration:   cfg.TrialDuration,
		BugTimes:   map[string]time.Duration{},
	}
	for _, cr := range inst.Campaign.Crashes() {
		if id, ok := keys[cr.Key]; ok {
			res.BugTimes[id] = cr.FirstAt
		}
	}
	return res, nil
}

// execsOf extracts Execs as float64s for significance testing.
func execsOf(rs []TrialResult) []float64 {
	out := make([]float64, len(rs))
	for i, r := range rs {
		out[i] = float64(r.Execs)
	}
	return out
}

// covOf extracts coverage percentages.
func covOf(rs []TrialResult) []float64 {
	out := make([]float64, len(rs))
	for i, r := range rs {
		if r.TotalEdges > 0 {
			out[i] = 100 * float64(r.Edges) / float64(r.TotalEdges)
		}
	}
	return out
}

// mean over int64-backed float extraction.
func meanExecs(rs []TrialResult) float64 {
	if len(rs) == 0 {
		return 0
	}
	var s float64
	for _, r := range rs {
		s += float64(r.Execs)
	}
	return s / float64(len(rs))
}

// fuzzQueue builds a corpus for the correctness study via a short ClosureX
// campaign (the paper replays "the comprehensive test case queue"). The
// campaign's images carry no image pages: only the queue is kept.
func fuzzQueue(t *targets.Target, execs int64, seed uint64) ([][]byte, error) {
	noImage := *t
	noImage.ImagePages = 0
	inst, err := core.NewInstance(&noImage, MechClosureX, core.InstanceOptions{TrialSeed: seed})
	if err != nil {
		return nil, err
	}
	defer inst.Close()
	inst.Campaign.RunExecs(execs)
	var queue [][]byte
	for _, e := range inst.Campaign.Queue() {
		queue = append(queue, append([]byte(nil), e.Input...))
	}
	return queue, nil
}
