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
	"encoding/json"
	"fmt"
	"math"
	"os"
	"runtime"
	"strings"
	"time"

	"closurex/internal/core"
	"closurex/internal/targets"
	"closurex/internal/vm"
	"closurex/internal/vm/compile"
)

// CompileRow is one target's interp-vs-compiled measurement.
type CompileRow struct {
	Target              string  `json:"target"`
	Execs               int64   `json:"execs_per_backend"`
	InterpExecsPerSec   float64 `json:"interp_execs_per_sec"`
	CompiledExecsPerSec float64 `json:"compiled_execs_per_sec"`
	Speedup             float64 `json:"speedup"`
	// Identical reports the inline differential check: every seed executed
	// once per backend in trace mode produced bit-identical coverage
	// bitmaps, path hashes, instruction counts and fault verdicts.
	Identical bool `json:"identical"`
}

// CompileReport is the JSON envelope BENCH_compile.json carries.
type CompileReport struct {
	Mechanism      string       `json:"mechanism"`
	ExecsPerTarget int64        `json:"execs_per_target"`
	GOMAXPROCS     int          `json:"gomaxprocs"`
	GeomeanSpeedup float64      `json:"geomean_speedup"`
	AllIdentical   bool         `json:"all_identical"`
	Rows           []CompileRow `json:"rows"`
	// Transval carries the static certification report when the benchmark
	// ran with -transval (experiments.AttachTransvalJSON merges it without
	// disturbing the speedup rows).
	Transval *TransvalReport `json:"transval,omitempty"`
}

// measureBackend builds a closurex-mechanism instance on the given backend
// and measures raw execution throughput: the seed corpus replayed
// round-robin for execs iterations after one warmup round. This times the
// per-exec hot path the backend accelerates (execute + restore), without
// campaign-side mutation noise.
func measureBackend(t *targets.Target, backend string, execs int64, seed uint64) (float64, error) {
	inst, err := core.NewInstance(t, MechClosureX, core.InstanceOptions{
		TrialSeed:         seed,
		DeterministicRand: true,
		Backend:           backend,
	})
	if err != nil {
		return 0, err
	}
	defer inst.Close()
	seeds := t.Seeds()
	if len(seeds) == 0 {
		return 0, fmt.Errorf("target %s has no seeds", t.Name)
	}
	for _, in := range seeds {
		inst.Mech.Execute(in)
	}
	start := time.Now()
	for i := int64(0); i < execs; i++ {
		inst.Mech.Execute(seeds[int(i)%len(seeds)])
	}
	elapsed := time.Since(start)
	if elapsed <= 0 {
		return 0, fmt.Errorf("target %s: zero elapsed time", t.Name)
	}
	return float64(execs) / elapsed.Seconds(), nil
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
		Mechanism:      MechClosureX,
		ExecsPerTarget: execsPerTarget,
		GOMAXPROCS:     runtime.GOMAXPROCS(0),
		AllIdentical:   true,
	}
	var logSum float64
	for _, t := range targets.All() {
		interp, err := measureBackend(t, vm.InterpBackend, execsPerTarget, seed)
		if err != nil {
			return nil, fmt.Errorf("experiments: %s interp: %w", t.Name, err)
		}
		compiled, err := measureBackend(t, compile.BackendName, execsPerTarget, seed)
		if err != nil {
			return nil, fmt.Errorf("experiments: %s compiled: %w", t.Name, err)
		}
		ident, err := backendsIdentical(t, seed)
		if err != nil {
			return nil, fmt.Errorf("experiments: %s identity: %w", t.Name, err)
		}
		row := CompileRow{
			Target:              t.Name,
			Execs:               execsPerTarget,
			InterpExecsPerSec:   interp,
			CompiledExecsPerSec: compiled,
			Speedup:             compiled / interp,
			Identical:           ident,
		}
		rep.AllIdentical = rep.AllIdentical && ident
		logSum += math.Log(row.Speedup)
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
	fmt.Fprintf(&b, "Compiled-tier speedup: %s mechanism, %d execs per backend per target (GOMAXPROCS=%d)\n",
		rep.Mechanism, rep.ExecsPerTarget, rep.GOMAXPROCS)
	fmt.Fprintf(&b, "  %-14s %14s %14s %9s %10s\n", "target", "interp/s", "compiled/s", "speedup", "identical")
	for _, r := range rep.Rows {
		fmt.Fprintf(&b, "  %-14s %14.0f %14.0f %8.2fx %10v\n",
			r.Target, r.InterpExecsPerSec, r.CompiledExecsPerSec, r.Speedup, r.Identical)
	}
	fmt.Fprintf(&b, "  geomean speedup: %.2fx (all identical: %v)\n", rep.GeomeanSpeedup, rep.AllIdentical)
	return b.String()
}

// WriteCompileJSON writes the report to path as indented JSON (the
// BENCH_compile.json artifact).
func WriteCompileJSON(path string, rep *CompileReport) error {
	data, err := json.MarshalIndent(rep, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}
