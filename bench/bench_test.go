package main

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"testing"

	"closurex/internal/core"
	"closurex/internal/targets"
)

var specPath = filepath.Join("..", "BENCHMARK.json")

// TestMetricsLockstep keeps the metric tables in this package and the
// declaration in BENCHMARK.json in step: same names in the same order,
// same units and directions, and a bound on every end-to-end metric.
func TestMetricsLockstep(t *testing.T) {
	spec, err := loadSpec(specPath)
	if err != nil {
		t.Fatal(err)
	}
	check := func(kind string, declared []specMetric, emitted []metricDef, bounded bool) {
		if len(declared) != len(emitted) {
			t.Errorf("%s: BENCHMARK.json declares %d metrics, the benchmark emits %d", kind, len(declared), len(emitted))
		}
		for i := 0; i < len(declared) && i < len(emitted); i++ {
			d, e := declared[i], emitted[i]
			if d.Name != e.Name || d.Unit != e.Unit || d.Better != e.Better {
				t.Errorf("%s %d: declared %s [%s, %s], emitted %s [%s, %s]",
					kind, i, d.Name, d.Unit, d.Better, e.Name, e.Unit, e.Better)
			}
			if bounded != (d.Bound != nil) {
				t.Errorf("%s: %s bound present = %v, want %v", kind, d.Name, d.Bound != nil, bounded)
			}
			if d.Bound != nil && (*d.Bound <= 0 || *d.Bound > 0.25) {
				t.Errorf("%s: bound %v outside (0, 0.25]", d.Name, *d.Bound)
			}
		}
	}
	check("end_to_end", spec.EndToEnd, e2eMetrics, true)
	check("per_layer", spec.PerLayer, layerMetrics, false)

	var setup float64
	for _, m := range spec.EndToEnd {
		if m.Name == "setup_s" {
			setup = *m.Bound
		}
	}
	for _, m := range spec.EndToEnd {
		if *m.Bound > setup {
			t.Errorf("%s has a larger bound (%v) than setup_s (%v)", m.Name, *m.Bound, setup)
		}
	}
	if len(spec.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json declares %d workloads, the benchmark has %d", len(spec.Workloads), len(workloads))
	}
	for i, w := range spec.Workloads {
		if w.Name != workloads[i].name {
			t.Errorf("workload %d: declared %s, benchmark has %s", i, w.Name, workloads[i].name)
		}
	}
	if spec.RunSeconds != defaultSeconds {
		t.Errorf("run_seconds %d, --seconds defaults to %d", spec.RunSeconds, defaultSeconds)
	}
}

// TestSmokeAllWorkloads runs every workload untraced and traced at tiny
// budgets, and checks the last line: the gates pass and exactly the
// declared metrics are printed.
func TestSmokeAllWorkloads(t *testing.T) {
	dir := t.TempDir()
	files := runFiles{golden: filepath.Join("testdata", "golden.json"), traceDir: dir, json: filepath.Join(dir, "runs.jsonl")}
	for _, w := range workloads {
		for _, trace := range []bool{false, true} {
			budget := int64(200)
			if w.mechanism == "" {
				budget = 2
			}
			cfg := runConfig{seed: 3, trace: trace, budget: budget, minRounds: 2, warmup: 50, replay: 40}
			var out, errb bytes.Buffer
			if code := runOne(w, cfg, files, &out, &errb); code != 0 {
				t.Fatalf("%s trace=%v: exit %d\n%s%s", w.name, trace, code, out.String(), errb.String())
			}
			lines := strings.Split(strings.TrimSpace(out.String()), "\n")
			var res result
			if err := json.Unmarshal([]byte(lines[len(lines)-1]), &res); err != nil {
				t.Fatalf("%s trace=%v: last line: %v", w.name, trace, err)
			}
			defs := e2eMetrics
			if trace {
				defs = layerMetrics
			}
			var want, got []string
			for _, d := range defs {
				want = append(want, d.Name)
				if v, ok := res.Metrics[d.Name]; ok && v.Unit != d.Unit {
					t.Errorf("%s: %s unit %q, want %q", w.name, d.Name, v.Unit, d.Unit)
				}
			}
			for name := range res.Metrics {
				got = append(got, name)
			}
			sort.Strings(want)
			sort.Strings(got)
			if strings.Join(got, ",") != strings.Join(want, ",") {
				t.Errorf("%s trace=%v: printed %v, declared %v", w.name, trace, got, want)
			}
			if !res.Correct || res.Failed != 0 || res.Attempted < 1 {
				t.Errorf("%s trace=%v: correct=%v attempted=%d failed=%d", w.name, trace, res.Correct, res.Attempted, res.Failed)
			}
		}
	}
	if _, err := os.Stat(filepath.Join(dir, "trace-persistent-3.jsonl")); err != nil {
		t.Errorf("traced run wrote no span file: %v", err)
	}
}

// TestCampaignMatchesInstance checks that the campaign the benchmark
// assembles around its clocks is the one core.NewInstance builds: both
// produce bit-identical results from the same seed. The parallel
// workload's campaign is checked at one shard, where core builds a
// sequential campaign and shard 0's seed is the trial seed, so the two
// must agree bit for bit.
func TestCampaignMatchesInstance(t *testing.T) {
	oneShard := *workloadByName("parallel")
	oneShard.opts.Jobs = 1
	for _, c := range []struct {
		w      *workload
		target string
	}{
		{workloadByName("persistent"), "c-blosc2"}, {workloadByName("forkserver"), "gpmf-parser"},
		{workloadByName("sanitize"), "libbpf"}, {&oneShard, "md4c"},
	} {
		w, tg := c.w, targets.Get(c.target)
		opts := w.opts
		opts.TrialSeed, opts.DeterministicRand = 99, true
		ref, err := core.NewInstance(tg, w.mechanism, opts)
		if err != nil {
			t.Fatal(err)
		}
		ref.Driver().RunExecs(3000)
		_, want := summarize(ref.Driver())
		ref.Close()

		in, err := core.NewInstance(tg, w.mechanism, opts)
		if err != nil {
			t.Fatal(err)
		}
		cr := &campaignRun{w: w, t: tg, trial: 99}
		drv, _, _, err := cr.newCampaign(in)
		if err != nil {
			t.Fatal(err)
		}
		drv.RunExecs(3000)
		_, got := summarize(drv)
		in.Close()
		if got != want {
			t.Errorf("%s/%s: clocked campaign digest %.12s, instance campaign %.12s", w.name, c.target, got, want)
		}
	}
}

func TestCompareVerdicts(t *testing.T) {
	dir := t.TempDir()
	write := func(name string, ops, setup []float64) string {
		var b bytes.Buffer
		for i := range ops {
			line, _ := json.Marshal(report{Workload: "persistent", Metrics: map[string]float64{
				"ops_per_s": ops[i], "setup_s": setup[i]}})
			b.Write(append(line, '\n'))
		}
		path := filepath.Join(dir, name)
		if err := os.WriteFile(path, b.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
		return path
	}
	bound := func(v float64) *float64 { return &v }
	spec := &benchSpec{EndToEnd: []specMetric{
		{Name: "ops_per_s", Better: "higher", Bound: bound(0.1)},
		{Name: "setup_s", Better: "lower", Bound: bound(0.1)},
	}}
	parent := write("parent.jsonl", []float64{100, 101, 99, 100, 100}, []float64{1, 2, 1, 2, 1.5})
	change := write("change.jsonl", []float64{80, 81, 79, 80, 80}, []float64{1.5, 1.5, 1.5, 1.5, 1.5})
	var out bytes.Buffer
	regressed, err := compareFiles(spec, parent, change, &out)
	if err != nil {
		t.Fatal(err)
	}
	if !regressed || !strings.Contains(out.String(), "ops_per_s") || !strings.Contains(out.String(), "regressed") {
		t.Errorf("a 20%% throughput loss should regress:\n%s", out.String())
	}
	if !strings.Contains(out.String(), "unresolved") {
		t.Errorf("setup_s with a parent spread wider than its bound should be unresolved:\n%s", out.String())
	}
}
