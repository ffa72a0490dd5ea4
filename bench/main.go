// Command bench is the repository's benchmark: ClosureX fuzzing campaigns
// and the toolchain that builds them, measured end to end and, in a
// separate traced run, layer by layer. Run it from the repository root:
//
//	bash bench/run.sh --workload persistent --seed 1 --seconds 15 --trace 0
//	bash bench/run.sh --workload all
//	bash bench/run.sh --compare parent.jsonl change.jsonl
//
// The last line of a single-workload run is one JSON object with the keys
// correct, attempted, failed and metrics. See bench/README.md.
package main

import (
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"os/exec"
	"path/filepath"
	"sort"
	"strings"
)

// defaultSeconds is BENCHMARK.json's run_seconds.
const defaultSeconds = 15

// specFile is the benchmark declaration, relative to the repository root;
// --compare reads its bounds.
const specFile = "BENCHMARK.json"

// runFiles are the files a single-workload run reads and writes.
type runFiles struct {
	golden       string // golden outcomes
	traceDir     string // where a traced run writes its spans
	json         string // JSON Lines file the run's record is appended to, if set
	updateGolden bool   // record this run's outcomes as the goldens instead of checking them
}

// repoFiles are a run's files, relative to the repository root.
var repoFiles = runFiles{golden: filepath.Join("bench", "testdata", "golden.json"), traceDir: ".bench_build"}

func main() { os.Exit(run(os.Args[1:], os.Stdout, os.Stderr)) }

// result is the last line of a run's standard output.
type result struct {
	Correct   bool                   `json:"correct"`
	Attempted int64                  `json:"attempted"`
	Failed    int64                  `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("bench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var names []string
	for _, w := range workloads {
		names = append(names, w.name)
	}
	var (
		workloadName = fs.String("workload", "", "workload to run: "+strings.Join(names, ", ")+", or all")
		seed         = fs.Uint64("seed", 1, "seed the workload's inputs are made from")
		seconds      = fs.Float64("seconds", defaultSeconds, "measured seconds to fill with rounds")
		trace        = fs.Int("trace", 0, "1 runs traced, prints the per-layer metrics and writes spans to .bench_build/")
		jsonOut      = fs.String("json", "", "append the run's record to this JSON Lines file")
		compare      = fs.Bool("compare", false, "compare the runs in two -json files: --compare parent.jsonl change.jsonl")
		updateGolden = fs.Bool("update-golden", false, "record this run's outcomes as the goldens instead of checking them")
	)
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if *compare {
		if fs.NArg() != 2 {
			fmt.Fprintln(stderr, "bench: --compare needs two files")
			return 2
		}
		spec, err := loadSpec(specFile)
		if err != nil {
			fmt.Fprintln(stderr, "bench:", err)
			return 1
		}
		regressed, err := compareFiles(spec, fs.Arg(0), fs.Arg(1), stdout)
		if err != nil {
			fmt.Fprintln(stderr, "bench:", err)
			return 1
		}
		if regressed {
			return 1
		}
		return 0
	}
	if fs.NArg() != 0 || *trace < 0 || *trace > 1 || *seconds < 0 {
		fs.Usage()
		return 2
	}
	if *workloadName == "all" {
		// Every other flag goes to each child as given; the children run one
		// after another, so each --update-golden records into the file the
		// previous one left.
		var pass []string
		fs.Visit(func(f *flag.Flag) {
			if f.Name != "workload" {
				pass = append(pass, "--"+f.Name+"="+f.Value.String())
			}
		})
		return runAll(pass, stdout, stderr)
	}
	w := workloadByName(*workloadName)
	if w == nil {
		fmt.Fprintf(stderr, "bench: unknown workload %q (have %s, all)\n", *workloadName, strings.Join(names, ", "))
		return 2
	}
	cfg := runConfig{
		seed: *seed, seconds: *seconds, trace: *trace == 1,
		minRounds: minRounds, warmup: warmupExecs, replay: replayExecs,
	}
	files := repoFiles
	files.json, files.updateGolden = *jsonOut, *updateGolden
	return runOne(w, cfg, files, stdout, stderr)
}

// runOne runs one workload, prints its report and, as the last line, its
// result; it returns the exit code.
func runOne(w *workload, cfg runConfig, files runFiles, stdout, stderr io.Writer) int {
	golden, err := loadGolden(files.golden)
	if err != nil && !(files.updateGolden && os.IsNotExist(err)) {
		fmt.Fprintln(stderr, "bench:", err)
		return 1
	}
	if !files.updateGolden {
		cfg.golden = golden
	}
	rep, err := runWorkload(w, cfg)
	if err != nil {
		fmt.Fprintln(stderr, "bench:", err)
		return 1
	}
	rep.Envelope = hostEnvelope(w, cfg, len(rep.Rounds))
	printReport(stdout, w, rep)
	for _, f := range rep.Failures {
		fmt.Fprintln(stderr, "FAIL", f)
	}
	if cfg.trace {
		path := filepath.Join(files.traceDir, fmt.Sprintf("trace-%s-%d.jsonl", w.name, cfg.seed))
		if err := rep.spans.write(path, rep.Envelope); err != nil {
			fmt.Fprintln(stderr, "bench:", err)
			return 1
		}
		fmt.Fprintf(stdout, "spans: %d written to %s\n", len(rep.spans.spans), path)
	}
	if files.json != "" {
		if err := appendRecord(files.json, rep); err != nil {
			fmt.Fprintln(stderr, "bench:", err)
			return 1
		}
	}
	if files.updateGolden {
		if err := recordGolden(files.golden, golden, w, cfg, rep); err != nil {
			fmt.Fprintln(stderr, "bench:", err)
			return 1
		}
		fmt.Fprintf(stdout, "goldens for %s written to %s\n", w.name, files.golden)
	}
	defs := e2eMetrics
	if cfg.trace {
		defs = layerMetrics
	}
	res := result{Correct: rep.Correct, Attempted: rep.Attempted, Failed: rep.Failed, Metrics: map[string]metricValue{}}
	for _, d := range defs {
		v, ok := rep.Metrics[d.Name]
		if !ok || math.IsNaN(v) || math.IsInf(v, 0) {
			fmt.Fprintf(stderr, "bench: metric %s was not measured\n", d.Name)
			return 1
		}
		res.Metrics[d.Name] = metricValue{Value: v, Unit: d.Unit}
	}
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintln(stderr, "bench:", err)
		return 1
	}
	fmt.Fprintf(stdout, "%s\n", line)
	if !rep.Correct {
		return 1
	}
	return 0
}

func printReport(out io.Writer, w *workload, rep *report) {
	e := rep.Envelope
	fmt.Fprintf(out, "workload %s: seed=%d seconds=%g trace=%v\n", w.name, e.Seed, e.Seconds, e.Trace)
	fmt.Fprintf(out, "host: nproc=%d gomaxprocs=%d go=%s commit=%s\n", e.Nproc, e.GOMAXPROCS, e.Go, e.Commit)
	unit := "execs per target"
	if w.mechanism == "" {
		unit = "passes"
	}
	fmt.Fprintf(out, "budget: %d %s per round, warmup %d, rounds %d\n", e.Budget, unit, e.Warmup, e.Rounds)
	for i, r := range rep.Rounds {
		kind := ""
		if r.Traced {
			kind = " (traced)"
		}
		fmt.Fprintf(out, "round %d%s: ops_per_s=%.1f setup_s=%.4f measured_s=%.2f\n", i+1, kind, r.OpsPerS, r.SetupS, r.Measured)
	}
	fmt.Fprintf(out, "%-14s %10s %10s %12s %6s %6s %8s\n", "target", "setup_ms", "ops", "ops/s", "edges", "queue", "crashes")
	for _, r := range rep.Rows {
		fmt.Fprintf(out, "%-14s %10.2f %10d %12.1f %6d %6d %8d\n", r.Name, r.SetupMs, r.Ops, r.Rate, r.Edges, r.Queue, r.Crashes)
	}
	e2e := rep.Metrics
	if rep.E2E != nil {
		e2e = rep.E2E
	}
	for _, d := range e2eMetrics {
		fmt.Fprintf(out, "  %-32s %14.4f %s\n", d.Name, e2e[d.Name], d.Unit)
	}
	fmt.Fprintf(out, "latency: per-target percentiles, geomean over %d targets; fewest samples in a target %d; "+
		"highest percentile with >=10 beyond: p%g = %.2f us\n", len(rep.Rows), rep.Samples, rep.TailP, rep.TailUs)
	fmt.Fprintf(out, "memory: %.1f B allocated per op, peak RSS %.1f MiB\n", rep.AllocPerOp, rep.PeakRSSMiB)
	if rep.TraceOverhead == nil {
		return
	}
	for _, d := range layerMetrics {
		fmt.Fprintf(out, "  %-32s %14.4f %s\n", d.Name, rep.Metrics[d.Name], d.Unit)
	}
	m := rep.Metrics
	fmt.Fprintf(out, "tracing overhead: %.1f%% of untraced ops_per_s\n", 100**rep.TraceOverhead)
	step := m["fuzz.step_self_ns"] + m["execmgr.execute_ns"]
	fmt.Fprintf(out, "traced step: self %.0f ns + execute %.0f ns = %.0f ns\n", m["fuzz.step_self_ns"], m["execmgr.execute_ns"], step)
	// The replay's per-call costs on the mechanism's own path should add up
	// to about one traced step.
	type part struct {
		name string
		ns   float64
	}
	parts := []part{{"mutate", m["fuzz.mutate_ns"]}, {"call", m["vm.call_ns"]}, {"bitmap", m["fuzz.bitmap_ns"]}}
	if w.mechanism == "forkserver" {
		parts = append(parts, part{"fork+release", m["mem.fork_ns"] + m["mem.release_ns"]})
	} else {
		parts = append(parts, part{"restore", m["harness.restore_ns"]},
			part{"respawn", m["execmgr.respawn_us"] * m["execmgr.spawns_per_kexec"]})
	}
	sum := 0.0
	var list []string
	for _, p := range parts {
		sum += p.ns
		list = append(list, fmt.Sprintf("%s %.0f", p.name, p.ns))
	}
	fmt.Fprintf(out, "layer replay: %s = %.0f ns, %.0f%% of the traced step\n", strings.Join(list, " + "), sum, 100*sum/step)
}

// appendRecord adds the run's report as one line of a JSON Lines file.
func appendRecord(path string, rep *report) error {
	line, err := json.Marshal(rep)
	if err != nil {
		return err
	}
	f, err := os.OpenFile(path, os.O_APPEND|os.O_CREATE|os.O_WRONLY, 0o644)
	if err != nil {
		return err
	}
	if _, err := f.Write(append(line, '\n')); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// recordGolden stores the run's outcomes as the goldens for w.
func recordGolden(path string, g *goldenFile, w *workload, cfg runConfig, rep *report) error {
	if !rep.Correct {
		return fmt.Errorf("not recording goldens from a run that failed its gates")
	}
	if g == nil {
		g = &goldenFile{}
	}
	if w.mechanism == "" {
		g.Toolchain = rep.digests
		return g.save(path)
	}
	if len(g.Campaigns) > 0 && g.Seed != cfg.seed {
		return fmt.Errorf("goldens were recorded at seed %d", g.Seed)
	}
	g.Seed = cfg.seed
	if g.Budgets == nil {
		g.Budgets = map[string]int64{}
		g.Campaigns = map[string]map[string]*outcome{}
	}
	if len(rep.outcomes) == 0 {
		delete(g.Budgets, w.name)
		delete(g.Campaigns, w.name)
		return g.save(path)
	}
	g.Budgets[w.name] = cfg.budgetFor(w)
	g.Campaigns[w.name] = rep.outcomes
	return g.save(path)
}

// runAll runs every workload in its own child process, one after another,
// so that each workload's memory figures are its own.
func runAll(pass []string, stdout, stderr io.Writer) int {
	exe, err := os.Executable()
	if err != nil {
		fmt.Fprintln(stderr, "bench:", err)
		return 1
	}
	code := 0
	results := map[string]*result{}
	for _, w := range workloads {
		var buf bytes.Buffer
		cmd := exec.Command(exe, append([]string{"--workload", w.name}, pass...)...)
		cmd.Stdout = io.MultiWriter(stdout, &buf)
		cmd.Stderr = stderr
		if err := cmd.Run(); err != nil {
			fmt.Fprintf(stderr, "bench: workload %s: %v\n", w.name, err)
			code = 1
		}
		lines := strings.Split(strings.TrimSpace(buf.String()), "\n")
		var res result
		if err := json.Unmarshal([]byte(lines[len(lines)-1]), &res); err != nil {
			fmt.Fprintf(stderr, "bench: workload %s printed no result\n", w.name)
			code = 1
			continue
		}
		results[w.name] = &res
		fmt.Fprintln(stdout)
	}
	seen := map[string]string{}
	for _, r := range results {
		for name, v := range r.Metrics {
			seen[name] = v.Unit
		}
	}
	var names []string
	for name := range seen {
		names = append(names, name)
	}
	sort.Strings(names)
	fmt.Fprintf(stdout, "%-32s", "summary")
	for _, w := range workloads {
		fmt.Fprintf(stdout, " %12s", w.name)
	}
	fmt.Fprintln(stdout)
	for _, name := range names {
		fmt.Fprintf(stdout, "%-32s", name)
		for _, w := range workloads {
			if r := results[w.name]; r != nil {
				fmt.Fprintf(stdout, " %12.5g", r.Metrics[name].Value)
			} else {
				fmt.Fprintf(stdout, " %12s", "-")
			}
		}
		fmt.Fprintf(stdout, "  %s\n", seen[name])
	}
	if p, f := results["persistent"], results["forkserver"]; p != nil && f != nil {
		if pv, fv := p.Metrics["ops_per_s"].Value, f.Metrics["ops_per_s"].Value; fv > 0 {
			fmt.Fprintf(stdout, "speedup_vs_forkserver %.2fx (paper: 3.53x, band 2.36-4.79x; not gated)\n", pv/fv)
		}
	}
	return code
}
