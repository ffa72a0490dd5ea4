package experiments

// Throughput sweeps. Every execs/s figure closurex-bench reports is measured
// here, one way: a sweep times a list of arms for sweepRounds rounds,
// running them forward in even rounds and reversed in odd ones so host drift
// lands on every arm alike. Only the run is timed; building an instance,
// warming it up and tearing it down are not. Each arm reports the median and
// [q1, q3] of its rounds, and a ratio between two arms is unresolved when
// their ranges overlap.

import (
	"encoding/json"
	"fmt"
	"os"
	"runtime"
	"runtime/debug"
	"time"

	"closurex/internal/core"
	"closurex/internal/execmgr"
	"closurex/internal/stats"
	"closurex/internal/targets"
)

// sweepRounds is how many times a sweep times each of its arms.
const sweepRounds = 5

// sweepClock is the clock sweeps time runs with (tests substitute a fake).
var sweepClock = time.Now

// trial is one built, warmed-up instance of an arm: run does the timed work
// and returns the executions it made; stop reads the round's observables and
// tears the instance down.
type trial struct {
	run  func() int64
	stop func()
}

// arm builds a fresh trial for each round of a sweep.
type arm func() (trial, error)

// Spread is one arm's throughput over a sweep's rounds, in execs/s.
type Spread struct {
	Median float64 `json:"median"`
	Q1     float64 `json:"q1"`
	Q3     float64 `json:"q3"`
}

// String renders the spread as "median [q1, q3]".
func (s Spread) String() string {
	return fmt.Sprintf("%.0f [%.0f, %.0f]", s.Median, s.Q1, s.Q3)
}

// Ratio compares two arms' median throughput. Verdict is "unresolved" when
// the arms' [q1, q3] ranges overlap, so the rounds cannot order them, and
// "resolved" otherwise.
type Ratio struct {
	X       float64 `json:"x"`
	Verdict string  `json:"verdict"`
}

// String renders the ratio as "1.23x resolved"; a nil ratio (an arm's
// base row, never compared with itself) renders as "-".
func (r *Ratio) String() string {
	if r == nil {
		return "-"
	}
	return fmt.Sprintf("%.2fx %s", r.X, r.Verdict)
}

// ratio returns num's median over den's, with the overlap verdict.
func ratio(num, den Spread) Ratio {
	r := Ratio{Verdict: "resolved"}
	if den.Median > 0 {
		r.X = num.Median / den.Median
	}
	if num.Q1 <= den.Q3 && den.Q1 <= num.Q3 {
		r.Verdict = "unresolved"
	}
	return r
}

// sweep times every arm for sweepRounds rounds, alternating the arm order
// each round, and returns each arm's execs/s spread in arm order.
func sweep(arms ...arm) ([]Spread, error) {
	rates := make([][]float64, len(arms))
	for round := 0; round < sweepRounds; round++ {
		for k := range arms {
			i := k
			if round%2 == 1 {
				i = len(arms) - 1 - k
			}
			tr, err := arms[i]()
			if err != nil {
				return nil, err
			}
			start := sweepClock()
			execs := tr.run()
			elapsed := sweepClock().Sub(start).Seconds()
			tr.stop()
			if elapsed <= 0 {
				return nil, fmt.Errorf("experiments: a sweep run took no measurable time")
			}
			rates[i] = append(rates[i], float64(execs)/elapsed)
		}
	}
	out := make([]Spread, len(arms))
	for i, r := range rates {
		q1, q3 := stats.Quartiles(r)
		out[i] = Spread{Median: stats.Median(r), Q1: q1, Q3: q3}
	}
	return out, nil
}

// campaignArm times a RunExecs(execs) campaign of t under ClosureX on a
// fresh instance built with opts; observe sees each finished instance
// before it closes.
func campaignArm(t *targets.Target, opts core.InstanceOptions, execs int64, observe func(*core.Instance)) arm {
	return func() (trial, error) {
		inst, err := core.NewInstance(t, MechClosureX, opts)
		if err != nil {
			return trial{}, fmt.Errorf("experiments: %s: %w", t.Name, err)
		}
		return trial{
			run: func() int64 {
				inst.Driver().RunExecs(execs)
				return inst.Driver().Execs()
			},
			stop: func() {
				observe(inst)
				inst.Close()
			},
		}, nil
	}
}

// replayArm times n executions of inputs, cycled, on a mechanism built per
// round after warm untimed ones; observe sees each finished mechanism
// before it closes.
func replayArm(build func() (execmgr.Mechanism, error), inputs [][]byte, warm, n int, observe func(execmgr.Mechanism)) arm {
	return func() (trial, error) {
		mech, err := build()
		if err != nil {
			return trial{}, err
		}
		for i := 0; i < warm; i++ {
			mech.Execute(inputs[i%len(inputs)])
		}
		return trial{
			run: func() int64 {
				for i := 0; i < n; i++ {
					mech.Execute(inputs[i%len(inputs)])
				}
				return int64(n)
			},
			stop: func() {
				observe(mech)
				mech.Close()
			},
		}, nil
	}
}

// Host records where a timed report was measured. The commit is empty
// unless the binary was built with VCS stamping (go run -buildvcs=true).
type Host struct {
	NProc      int    `json:"nproc"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	GoVersion  string `json:"go_version"`
	Commit     string `json:"commit"`
	Modified   bool   `json:"modified"`
	Rounds     int    `json:"rounds"`
}

func thisHost() Host {
	h := Host{
		NProc:      runtime.NumCPU(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		GoVersion:  runtime.Version(),
		Rounds:     sweepRounds,
	}
	if bi, ok := debug.ReadBuildInfo(); ok {
		for _, s := range bi.Settings {
			switch s.Key {
			case "vcs.revision":
				h.Commit = s.Value
			case "vcs.modified":
				h.Modified = s.Value == "true"
			}
		}
	}
	return h
}

// WriteJSON writes v to path as indented JSON with a trailing newline: the
// format of every BENCH_*.json artifact.
func WriteJSON(path string, v any) error {
	data, err := json.MarshalIndent(v, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}
