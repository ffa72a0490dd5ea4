package experiments

// Parallel-scaling experiment: one target fuzzed by the parallel campaign
// executor at increasing shard counts, reporting aggregate throughput per
// J. The JSON emitter backs `make benchjson` (BENCH_parallel.json) so CI
// can track scaling regressions numerically rather than eyeballing
// benchmark logs.

import (
	"encoding/json"
	"fmt"
	"os"
	"runtime"
	"strings"
	"time"

	"closurex/internal/core"
	"closurex/internal/targets"
	"closurex/internal/vm"
	"closurex/internal/vm/compile"
)

// ScalingRow is one shard-count point of the parallel-scaling experiment.
// Restarts/Quarantined are supervision tripwires: a fault-free scaling run
// must report zero for both, so any nonzero value in BENCH_parallel.json
// flags organic shard faults that would distort the throughput numbers.
type ScalingRow struct {
	Jobs        int     `json:"jobs"`
	Execs       int64   `json:"execs"`
	Seconds     float64 `json:"seconds"`
	ExecsPerSec float64 `json:"execs_per_sec"`
	Edges       int     `json:"edges"`
	Speedup     float64 `json:"speedup"` // throughput relative to jobs=1
	Restarts    int64   `json:"restarts"`
	Quarantined int     `json:"quarantined_shards"`
}

// BackendScaling is one execution backend's shard-count sweep.
type BackendScaling struct {
	Backend string       `json:"backend"`
	Rows    []ScalingRow `json:"rows"`
}

// ScalingReport is the JSON envelope BENCH_parallel.json carries. The
// headline numbers are the jobs == GOMAXPROCS row of the default
// (interpreter) sweep — the configuration a real campaign on this host
// would run — rather than an oversubscribed point; the full sweeps for
// both backends follow.
type ScalingReport struct {
	Target     string `json:"target"`
	Mechanism  string `json:"mechanism"`
	ExecsPerJ  int64  `json:"execs_per_point"`
	GOMAXPROCS int    `json:"gomaxprocs"`

	HeadlineJobs        int     `json:"headline_jobs"`
	HeadlineExecsPerSec float64 `json:"headline_execs_per_sec"`
	HeadlineSpeedup     float64 `json:"headline_speedup"`

	Sweeps []BackendScaling `json:"sweeps"`
}

// DefaultScalingJobs returns the shard counts the scaling experiment
// sweeps: 1, 2, 4 and GOMAXPROCS (deduplicated, ascending).
func DefaultScalingJobs() []int {
	procs := runtime.GOMAXPROCS(0)
	jobs := []int{1, 2, 4}
	for _, j := range jobs {
		if j == procs {
			return jobs
		}
	}
	if procs > 4 {
		return append(jobs, procs)
	}
	var out []int
	for _, j := range jobs {
		if j <= procs {
			out = append(out, j)
		}
	}
	if len(out) == 0 || out[len(out)-1] != procs {
		out = append(out, procs)
	}
	return out
}

// scalingSweep runs one backend's shard-count sweep.
func scalingSweep(t *targets.Target, backend string, jobsList []int, execsPerPoint int64, seed uint64) ([]ScalingRow, error) {
	var rows []ScalingRow
	for _, jobs := range jobsList {
		inst, err := core.NewInstance(t, MechClosureX, core.InstanceOptions{
			TrialSeed: seed,
			Jobs:      jobs,
			Backend:   backend,
		})
		if err != nil {
			return nil, fmt.Errorf("experiments: backend=%s jobs=%d: %w", backend, jobs, err)
		}
		start := time.Now()
		inst.Driver().RunExecs(execsPerPoint)
		elapsed := time.Since(start)
		row := ScalingRow{
			Jobs:    jobs,
			Execs:   inst.Driver().Execs(),
			Seconds: elapsed.Seconds(),
			Edges:   inst.Driver().Edges(),
		}
		if elapsed > 0 {
			row.ExecsPerSec = float64(row.Execs) / elapsed.Seconds()
		}
		if inst.Parallel != nil {
			for _, h := range inst.Parallel.Health() {
				row.Restarts += h.Restarts
				if h.Quarantined {
					row.Quarantined++
				}
			}
		}
		if len(rows) > 0 && rows[0].ExecsPerSec > 0 {
			row.Speedup = row.ExecsPerSec / rows[0].ExecsPerSec
		} else {
			row.Speedup = 1
		}
		rows = append(rows, row)
		inst.Close()
	}
	return rows, nil
}

// RunParallelScaling fuzzes target under the closurex mechanism at each
// shard count in jobsList, once per execution backend (interpreter and
// compiled tier), running execsPerPoint aggregate executions per point.
// Every point uses the same trial seed, so each sweep's J=1 row is exactly
// the sequential campaign its speedups normalize against. The report's
// headline is the interpreter sweep's jobs == GOMAXPROCS row.
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
		Target:     target,
		Mechanism:  MechClosureX,
		ExecsPerJ:  execsPerPoint,
		GOMAXPROCS: runtime.GOMAXPROCS(0),
	}
	for _, backend := range []string{vm.InterpBackend, compile.BackendName} {
		rows, err := scalingSweep(t, backend, jobsList, execsPerPoint, seed)
		if err != nil {
			return nil, err
		}
		rep.Sweeps = append(rep.Sweeps, BackendScaling{Backend: backend, Rows: rows})
	}
	// Headline: the jobs == GOMAXPROCS point of the default (interpreter)
	// sweep; when the sweep has no exact match (GOMAXPROCS not in
	// jobsList), the largest jobs <= GOMAXPROCS stands in.
	head := rep.Sweeps[0].Rows
	hi := 0
	for i, r := range head {
		if r.Jobs <= rep.GOMAXPROCS && r.Jobs >= head[hi].Jobs {
			hi = i
		}
		if r.Jobs == rep.GOMAXPROCS {
			hi = i
			break
		}
	}
	rep.HeadlineJobs = head[hi].Jobs
	rep.HeadlineExecsPerSec = head[hi].ExecsPerSec
	rep.HeadlineSpeedup = head[hi].Speedup
	return rep, nil
}

// FormatScaling renders the scaling report as aligned text tables, one
// per backend sweep.
func FormatScaling(rep *ScalingReport) string {
	var b strings.Builder
	fmt.Fprintf(&b, "Parallel scaling: %s under %s (%d execs per point, GOMAXPROCS=%d)\n",
		rep.Target, rep.Mechanism, rep.ExecsPerJ, rep.GOMAXPROCS)
	fmt.Fprintf(&b, "  headline: jobs=%d  %0.f execs/s  (%.2fx vs sequential)\n",
		rep.HeadlineJobs, rep.HeadlineExecsPerSec, rep.HeadlineSpeedup)
	for _, sw := range rep.Sweeps {
		fmt.Fprintf(&b, "  backend=%s\n", sw.Backend)
		fmt.Fprintf(&b, "  %-6s %12s %10s %12s %8s %8s\n", "jobs", "execs", "seconds", "execs/s", "speedup", "edges")
		for _, r := range sw.Rows {
			fmt.Fprintf(&b, "  %-6d %12d %10.3f %12.0f %7.2fx %8d\n",
				r.Jobs, r.Execs, r.Seconds, r.ExecsPerSec, r.Speedup, r.Edges)
		}
	}
	return b.String()
}

// WriteScalingJSON writes the report to path as indented JSON (the
// BENCH_parallel.json artifact).
func WriteScalingJSON(path string, rep *ScalingReport) error {
	data, err := json.MarshalIndent(rep, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}
