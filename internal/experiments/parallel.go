package experiments

// Parallel-scaling experiment: one target fuzzed by the parallel campaign
// executor at increasing shard counts, reporting aggregate throughput per
// J. The report backs `make benchjson` (BENCH_parallel.json) so CI
// can track scaling regressions numerically rather than eyeballing
// benchmark logs.

import (
	"fmt"
	"runtime"
	"strings"

	"closurex/internal/core"
	"closurex/internal/targets"
)

// ScalingRow is one shard-count point of the parallel-scaling experiment.
// Execs and Edges come from the last round. Restarts/Quarantined are
// supervision tripwires summed over every round: a fault-free scaling run
// must report zero for both, so any nonzero value in BENCH_parallel.json
// flags organic shard faults that would distort the throughput numbers.
type ScalingRow struct {
	Jobs        int    `json:"jobs"`
	Execs       int64  `json:"execs"`
	ExecsPerSec Spread `json:"execs_per_sec"`
	Edges       int    `json:"edges"`
	Speedup     *Ratio `json:"speedup,omitempty"` // throughput relative to jobs=1
	Restarts    int64  `json:"restarts"`
	Quarantined int    `json:"quarantined_shards"`
}

// ScalingReport is the JSON envelope BENCH_parallel.json carries. The
// headline numbers are the jobs == GOMAXPROCS row — the configuration a
// real campaign on the measuring host would run — rather than an
// oversubscribed point; the full sweep follows.
type ScalingReport struct {
	Host      Host   `json:"host"`
	Target    string `json:"target"`
	Mechanism string `json:"mechanism"`
	ExecsPerJ int64  `json:"execs_per_point"`

	HeadlineJobs        int    `json:"headline_jobs"`
	HeadlineExecsPerSec Spread `json:"headline_execs_per_sec"`
	HeadlineSpeedup     *Ratio `json:"headline_speedup,omitempty"`

	Rows []ScalingRow `json:"rows"`
}

// DefaultScalingJobs returns the shard counts the scaling experiment
// sweeps: 1, 2, 4 and GOMAXPROCS (deduplicated, ascending; 4 is dropped
// only when GOMAXPROCS is 3).
func DefaultScalingJobs() []int {
	switch procs := runtime.GOMAXPROCS(0); {
	case procs == 3:
		return []int{1, 2, 3}
	case procs > 4:
		return []int{1, 2, 4, procs}
	}
	return []int{1, 2, 4}
}

// RunParallelScaling fuzzes target under the closurex mechanism at each
// shard count in jobsList, running execsPerPoint aggregate executions per
// point. Every point uses the same trial seed, so the J=1 row is exactly
// the sequential campaign the speedups normalize against. The report's
// headline is the jobs == GOMAXPROCS row.
func RunParallelScaling(target string, jobsList []int, execsPerPoint int64, seed uint64) (*ScalingReport, error) {
	t := targets.Get(target)
	if t == nil {
		return nil, fmt.Errorf("experiments: unknown target %q", target)
	}
	if execsPerPoint <= 0 {
		execsPerPoint = 50000
	}
	if len(jobsList) == 0 {
		jobsList = DefaultScalingJobs()
	}
	rep := &ScalingReport{
		Host:      thisHost(),
		Target:    target,
		Mechanism: MechClosureX,
		ExecsPerJ: execsPerPoint,
	}
	rows := make([]ScalingRow, len(jobsList))
	arms := make([]arm, len(jobsList))
	for i, jobs := range jobsList {
		row := &rows[i]
		row.Jobs = jobs
		opts := core.InstanceOptions{TrialSeed: seed, Jobs: jobs}
		arms[i] = campaignArm(t, opts, execsPerPoint, func(inst *core.Instance) {
			row.Execs, row.Edges = inst.Driver().Execs(), inst.Driver().Edges()
			if inst.Parallel != nil {
				for _, h := range inst.Parallel.Health() {
					row.Restarts += h.Restarts
					if h.Quarantined {
						row.Quarantined++
					}
				}
			}
		})
	}
	s, err := sweep(arms...)
	if err != nil {
		return nil, err
	}
	for i := range rows {
		rows[i].ExecsPerSec = s[i]
		if i > 0 {
			r := ratio(s[i], s[0])
			rows[i].Speedup = &r
		}
	}
	rep.Rows = rows
	// Headline: the jobs == GOMAXPROCS point; when the sweep has no exact
	// match (GOMAXPROCS not in jobsList), the largest jobs <= GOMAXPROCS
	// stands in.
	head := rep.Rows
	hi := 0
	for i, r := range head {
		if r.Jobs <= rep.Host.GOMAXPROCS && r.Jobs >= head[hi].Jobs {
			hi = i
		}
		if r.Jobs == rep.Host.GOMAXPROCS {
			hi = i
			break
		}
	}
	rep.HeadlineJobs = head[hi].Jobs
	rep.HeadlineExecsPerSec = head[hi].ExecsPerSec
	rep.HeadlineSpeedup = head[hi].Speedup
	return rep, nil
}

// FormatScaling renders the scaling report as an aligned text table.
func FormatScaling(rep *ScalingReport) string {
	var b strings.Builder
	fmt.Fprintf(&b, "Parallel scaling: %s under %s (%d execs per point, median of %d alternating rounds, GOMAXPROCS=%d)\n",
		rep.Target, rep.Mechanism, rep.ExecsPerJ, rep.Host.Rounds, rep.Host.GOMAXPROCS)
	fmt.Fprintf(&b, "  headline: jobs=%d  %s execs/s  (%s vs sequential)\n",
		rep.HeadlineJobs, rep.HeadlineExecsPerSec, rep.HeadlineSpeedup)
	fmt.Fprintf(&b, "  %-6s %12s %24s %-18s %8s %8s %11s\n", "jobs", "execs", "execs/s [q1, q3]", "speedup", "edges", "restarts", "quarantined")
	for _, r := range rep.Rows {
		fmt.Fprintf(&b, "  %-6d %12d %24s %-18s %8d %8d %11d\n",
			r.Jobs, r.Execs, r.ExecsPerSec, r.Speedup, r.Edges, r.Restarts, r.Quarantined)
	}
	return b.String()
}
