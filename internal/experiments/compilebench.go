package experiments

// Compiled-tier speedup experiment: every registered target executed
// through the closurex mechanism under both VM backends — the reference
// interpreter and the compiled closure-chain tier — measuring raw
// execution throughput over the seed corpus and cross-checking that the
// two backends produce bit-identical observables on the way. The JSON
// emitter backs `make benchjson` (BENCH_compile.json) so the compiled
// tier's speedup is tracked numerically and its identity guarantee is
// re-asserted on every record.

import (
	"bytes"
	"fmt"
	"math"
	"strings"

	"closurex/internal/core"
	"closurex/internal/execmgr"
	"closurex/internal/targets"
	"closurex/internal/vm"
	"closurex/internal/vm/compile"
)

// CompileRow is one target's interp-vs-compiled measurement.
type CompileRow struct {
	Target              string `json:"target"`
	InterpExecsPerSec   Spread `json:"interp_execs_per_sec"`
	CompiledExecsPerSec Spread `json:"compiled_execs_per_sec"`
	Speedup             Ratio  `json:"speedup"`
	// Identical reports the inline differential check: every seed executed
	// once per backend in trace mode produced bit-identical coverage
	// bitmaps, path hashes, instruction counts and fault verdicts.
	Identical bool `json:"identical"`
}

// CompileReport is the JSON envelope BENCH_compile.json carries.
type CompileReport struct {
	Host           Host         `json:"host"`
	Mechanism      string       `json:"mechanism"`
	ExecsPerTarget int64        `json:"execs_per_target"`
	GeomeanSpeedup float64      `json:"geomean_speedup"`
	AllIdentical   bool         `json:"all_identical"`
	Rows           []CompileRow `json:"rows"`
	// Transval carries the static certification report when the benchmark
	// ran with -transval (experiments.AttachTransvalJSON merges it without
	// disturbing the speedup rows).
	Transval *TransvalReport `json:"transval,omitempty"`
}

// backendsIdentical replays the seed corpus once per backend in trace mode
// and compares every observable the fuzzer keys on.
func backendsIdentical(t *targets.Target, seed uint64) (bool, error) {
	type obs struct {
		res vm.Result
		cov []byte
	}
	run := func(backend string) ([]obs, error) {
		inst, err := core.NewInstance(t, MechClosureX, core.InstanceOptions{
			TrialSeed:         seed,
			DeterministicRand: true,
			TraceEdges:        true,
			Backend:           backend,
		})
		if err != nil {
			return nil, err
		}
		defer inst.Close()
		var out []obs
		for _, in := range t.Seeds() {
			res := inst.Mech.Execute(in)
			out = append(out, obs{res, append([]byte(nil), inst.CovMap...)})
		}
		return out, nil
	}
	oi, err := run(vm.InterpBackend)
	if err != nil {
		return false, err
	}
	oc, err := run(compile.BackendName)
	if err != nil {
		return false, err
	}
	if len(oi) != len(oc) {
		return false, nil
	}
	for k := range oi {
		a, b := oi[k], oc[k]
		if a.res.Ret != b.res.Ret || a.res.Exited != b.res.Exited ||
			a.res.Instrs != b.res.Instrs ||
			a.res.PathHash != b.res.PathHash || a.res.PathLen != b.res.PathLen {
			return false, nil
		}
		af, bf := a.res.Fault, b.res.Fault
		if (af == nil) != (bf == nil) {
			return false, nil
		}
		if af != nil && af.Key() != bf.Key() {
			return false, nil
		}
		if !bytes.Equal(a.cov, b.cov) {
			return false, nil
		}
	}
	return true, nil
}

// RunCompileSpeedup measures the compiled tier against the interpreter on
// every registered target (the 10 Table 4 benchmarks plus the sanitizer
// fixture) and reports per-target throughput, the geometric-mean speedup,
// and the inline identity verdicts.
func RunCompileSpeedup(execsPerTarget int64, seed uint64) (*CompileReport, error) {
	if execsPerTarget <= 0 {
		execsPerTarget = 20000
	}
	rep := &CompileReport{
		Host:           thisHost(),
		Mechanism:      MechClosureX,
		ExecsPerTarget: execsPerTarget,
		AllIdentical:   true,
	}
	var logSum float64
	for _, t := range targets.All() {
		seeds := t.Seeds()
		if len(seeds) == 0 {
			return nil, fmt.Errorf("experiments: target %s has no seeds", t.Name)
		}
		// Each backend replays the seed corpus round-robin after one warm-up
		// pass: the per-exec hot path the backend accelerates (execute +
		// restore), without campaign-side mutation noise.
		backend := func(name string) arm {
			return replayArm(func() (execmgr.Mechanism, error) {
				inst, err := core.NewInstance(t, MechClosureX, core.InstanceOptions{
					TrialSeed:         seed,
					DeterministicRand: true,
					Backend:           name,
				})
				if err != nil {
					return nil, fmt.Errorf("experiments: %s %s: %w", t.Name, name, err)
				}
				return inst.Mech, nil
			}, seeds, len(seeds), int(execsPerTarget), func(execmgr.Mechanism) {})
		}
		s, err := sweep(backend(vm.InterpBackend), backend(compile.BackendName))
		if err != nil {
			return nil, err
		}
		ident, err := backendsIdentical(t, seed)
		if err != nil {
			return nil, fmt.Errorf("experiments: %s identity: %w", t.Name, err)
		}
		row := CompileRow{
			Target:              t.Name,
			InterpExecsPerSec:   s[0],
			CompiledExecsPerSec: s[1],
			Speedup:             ratio(s[1], s[0]),
			Identical:           ident,
		}
		rep.AllIdentical = rep.AllIdentical && ident
		logSum += math.Log(row.Speedup.X)
		rep.Rows = append(rep.Rows, row)
	}
	if len(rep.Rows) > 0 {
		rep.GeomeanSpeedup = math.Exp(logSum / float64(len(rep.Rows)))
	}
	return rep, nil
}

// FormatCompile renders the speedup report as an aligned text table.
func FormatCompile(rep *CompileReport) string {
	var b strings.Builder
	fmt.Fprintf(&b, "Compiled-tier speedup: %s mechanism, %d execs per backend per target, median of %d alternating rounds (GOMAXPROCS=%d)\n",
		rep.Mechanism, rep.ExecsPerTarget, rep.Host.Rounds, rep.Host.GOMAXPROCS)
	fmt.Fprintf(&b, "  %-14s %24s %24s %-17s %9s\n", "target", "interp/s [q1, q3]", "compiled/s [q1, q3]", "speedup", "identical")
	for _, r := range rep.Rows {
		fmt.Fprintf(&b, "  %-14s %24s %24s %-17s %9v\n",
			r.Target, r.InterpExecsPerSec, r.CompiledExecsPerSec, &r.Speedup, r.Identical)
	}
	fmt.Fprintf(&b, "  geomean speedup: %.2fx (all identical: %v)\n", rep.GeomeanSpeedup, rep.AllIdentical)
	return b.String()
}
