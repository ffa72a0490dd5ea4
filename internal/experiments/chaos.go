package experiments

// Chaos matrix: the fault-injection scenarios the shard supervision layer
// must absorb, run end-to-end over a real benchmark target and reported as
// a pass/fail table. `closurex-bench -chaos` drives this and `make chaos`
// gates on it: every scenario must end in a completed campaign whose
// coverage is a superset of the fault-free baseline's progress floor, with
// no goroutine leak.

import (
	"fmt"
	"runtime"
	"strings"
	"time"

	"closurex/internal/core"
	"closurex/internal/faultinject"
	"closurex/internal/targets"
)

// ChaosRow is one injected-fault scenario's outcome.
type ChaosRow struct {
	Scenario    string `json:"scenario"`
	Execs       int64  `json:"execs"`
	Edges       int    `json:"edges"`
	Corpus      int    `json:"corpus"`
	Restarts    int64  `json:"restarts"`
	Rebuilds    int64  `json:"rebuilds"`
	Quarantined int    `json:"quarantined_shards"`
	Healthy     int    `json:"healthy_shards"`
	Events      int    `json:"events"`
	Completed   bool   `json:"completed"`
	CoverageOK  bool   `json:"coverage_ok"` // >= the fault-free baseline's edges
	Goroutines  int    `json:"goroutine_delta"`
	Pass        bool   `json:"pass"`
	Detail      string `json:"detail,omitempty"`
}

// ChaosReport is the JSON envelope BENCH_chaos.json carries.
type ChaosReport struct {
	Target        string     `json:"target"`
	Mechanism     string     `json:"mechanism"`
	Jobs          int        `json:"jobs"`
	Execs         int64      `json:"execs_per_scenario"`
	BaselineEdges int        `json:"baseline_edges"`
	Rows          []ChaosRow `json:"rows"`
	AllPass       bool       `json:"all_pass"`
}

// chaosScenario arms one fault class on a fresh injector.
type chaosScenario struct {
	name string
	arm  func(inj *faultinject.Injector)
}

func chaosScenarios() []chaosScenario {
	return []chaosScenario{
		{"shard-kill", func(inj *faultinject.Injector) {
			inj.FailAfter(faultinject.ForShard(faultinject.ShardKill, 1), 500, 2)
		}},
		{"shard-kill-forever", func(inj *faultinject.Injector) {
			inj.FailAfter(faultinject.ForShard(faultinject.ShardKill, 1), 500, -1)
		}},
		{"restore-corrupt", func(inj *faultinject.Injector) {
			inj.FailAfter(faultinject.ForShard(faultinject.ShardRestore, 2), 300, 3)
		}},
		{"corpus-delay", func(inj *faultinject.Injector) {
			inj.FailWithProb(faultinject.CorpusDelay, 0.5)
		}},
		{"corpus-drop", func(inj *faultinject.Injector) {
			inj.FailWithProb(faultinject.CorpusDrop, 0.5)
		}},
	}
}

// RunChaosMatrix runs every chaos scenario over target at the given shard
// count and exec budget, comparing each faulted run's coverage against a
// fault-free baseline of the same budget. A scenario passes when the
// campaign completes, reaches at least the baseline's edge count (faults
// never lose coverage — they only cost throughput), and leaks no
// goroutines.
func RunChaosMatrix(target string, jobs int, execs int64, seed uint64) (*ChaosReport, error) {
	t := targets.Get(target)
	if t == nil {
		return nil, fmt.Errorf("experiments: unknown target %q", target)
	}
	if jobs < 3 {
		jobs = 4 // the scenarios target shards 1 and 2 specifically
	}
	if execs <= 0 {
		execs = 30000
	}
	rep := &ChaosReport{Target: target, Mechanism: MechClosureX, Jobs: jobs, Execs: execs, AllPass: true}

	// Fault-free baseline: the coverage floor every chaos run must reach.
	base, err := core.NewInstance(t, MechClosureX, core.InstanceOptions{TrialSeed: seed, Jobs: jobs})
	if err != nil {
		return nil, fmt.Errorf("experiments: chaos baseline: %w", err)
	}
	base.Driver().RunExecs(execs)
	rep.BaselineEdges = base.Driver().Edges()
	base.Close()

	for _, sc := range chaosScenarios() {
		row := runChaosScenario(t, sc, jobs, execs, seed, rep.BaselineEdges)
		rep.Rows = append(rep.Rows, row)
		rep.AllPass = rep.AllPass && row.Pass
	}
	return rep, nil
}

func runChaosScenario(t *targets.Target, sc chaosScenario, jobs int, execs int64, seed uint64, baselineEdges int) ChaosRow {
	row := ChaosRow{Scenario: sc.name}
	before := runtime.NumGoroutine()
	inj := faultinject.New(seed)
	sc.arm(inj)
	inst, err := core.NewInstance(t, MechClosureX, core.InstanceOptions{
		TrialSeed:    seed,
		Jobs:         jobs,
		Injector:     inj,
		ShardBackoff: 100 * time.Microsecond, // keep the matrix fast
	})
	if err != nil {
		row.Detail = err.Error()
		return row
	}
	inst.Driver().RunExecs(execs)
	row.Completed = true
	row.Execs = inst.Driver().Execs()
	row.Edges = inst.Driver().Edges()
	row.Corpus = inst.Driver().QueueLen()
	if inst.Parallel != nil {
		for _, h := range inst.Parallel.Health() {
			row.Restarts += h.Restarts
			row.Rebuilds += h.Rebuilds
			if h.Quarantined {
				row.Quarantined++
			}
		}
		row.Healthy = inst.Parallel.HealthyShards()
		row.Events = len(inst.Parallel.Events())
	}
	row.CoverageOK = row.Edges >= baselineEdges
	inst.Close()
	// Let shard and monitor goroutines unwind before the leak check.
	for i := 0; i < 50 && runtime.NumGoroutine() > before; i++ {
		time.Sleep(10 * time.Millisecond)
	}
	row.Goroutines = runtime.NumGoroutine() - before
	row.Pass = row.Completed && row.CoverageOK && row.Goroutines <= 0
	if !row.CoverageOK {
		row.Detail = fmt.Sprintf("edges %d below baseline %d", row.Edges, baselineEdges)
	}
	if row.Goroutines > 0 {
		row.Detail = fmt.Sprintf("leaked %d goroutines", row.Goroutines)
	}
	return row
}

// FormatChaos renders the chaos report as an aligned text table.
func FormatChaos(rep *ChaosReport) string {
	var b strings.Builder
	fmt.Fprintf(&b, "Chaos matrix: %s under %s, jobs=%d, %d execs per scenario (baseline edges %d)\n",
		rep.Target, rep.Mechanism, rep.Jobs, rep.Execs, rep.BaselineEdges)
	fmt.Fprintf(&b, "  %-20s %10s %7s %7s %9s %9s %6s %6s %6s\n",
		"scenario", "execs", "edges", "corpus", "restarts", "rebuilds", "quar", "leak", "pass")
	for _, r := range rep.Rows {
		pass := "ok"
		if !r.Pass {
			pass = "FAIL"
		}
		fmt.Fprintf(&b, "  %-20s %10d %7d %7d %9d %9d %6d %6d %6s\n",
			r.Scenario, r.Execs, r.Edges, r.Corpus, r.Restarts, r.Rebuilds, r.Quarantined, r.Goroutines, pass)
		if r.Detail != "" {
			fmt.Fprintf(&b, "    %s\n", r.Detail)
		}
	}
	if rep.AllPass {
		b.WriteString("  all scenarios passed\n")
	} else {
		b.WriteString("  CHAOS FAILURES PRESENT\n")
	}
	return b.String()
}
