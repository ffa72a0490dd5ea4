package experiments

import (
	"strings"
	"testing"
	"time"
)

// smallConfig keeps unit-test runtime reasonable: 2 targets (one buggy,
// one clean), 3 trials, short duration.
func smallConfig() Config {
	return Config{
		TrialDuration: 400 * time.Millisecond,
		Trials:        3,
		Targets:       []string{"gpmf-parser", "giftext"},
		BaseSeed:      7,
	}
}

func TestConfigValidation(t *testing.T) {
	cfg := Config{Targets: []string{"not-a-target"}}
	if err := cfg.normalize(); err == nil {
		t.Fatal("bad target accepted")
	}
	def := DefaultConfig()
	if err := def.normalize(); err != nil {
		t.Fatal(err)
	}
	if len(def.Targets) != 10 || def.Trials != 5 {
		t.Fatalf("defaults: %+v", def)
	}
}

func TestEvaluationShape(t *testing.T) {
	if testing.Short() {
		t.Skip("evaluation run")
	}
	eval, err := RunEvaluation(smallConfig())
	if err != nil {
		t.Fatal(err)
	}
	if len(eval.Results) != 2*2*3 {
		t.Fatalf("results = %d, want 12", len(eval.Results))
	}
	// Trials interleave by index with alternating order: cx, fs, fs, cx, cx, fs.
	wantOrder := []string{MechClosureX, MechAFLpp, MechAFLpp, MechClosureX, MechClosureX, MechAFLpp}
	for i, r := range eval.Results {
		if r.Mechanism != wantOrder[i%6] || r.Trial != i%6/2 {
			t.Fatalf("result %d = %s trial %d, want %s trial %d", i, r.Mechanism, r.Trial, wantOrder[i%6], i%6/2)
		}
	}

	t5 := Table5(eval)
	if len(t5) != 2 {
		t.Fatalf("table5 rows = %d", len(t5))
	}
	for _, r := range t5 {
		if r.ClosureX <= 0 || r.AFLpp <= 0 {
			t.Fatalf("%s: empty cells %+v", r.Benchmark, r)
		}
		// The headline result: ClosureX executes more test cases.
		if r.Speedup <= 1.0 {
			t.Errorf("%s: speedup %.2f, want > 1 (ClosureX must win)", r.Benchmark, r.Speedup)
		}
		if r.P <= 0 || r.P > 1 {
			t.Errorf("%s: p = %v", r.Benchmark, r.P)
		}
	}
	out5 := FormatTable5(t5)
	if !strings.Contains(out5, "Average") || !strings.Contains(out5, "gpmf-parser") {
		t.Fatalf("FormatTable5:\n%s", out5)
	}

	t6 := Table6(eval)
	if len(t6) != 2 {
		t.Fatalf("table6 rows = %d", len(t6))
	}
	for _, r := range t6 {
		if r.ClosureX <= 0 || r.ClosureX > 100 || r.AFLpp <= 0 {
			t.Errorf("%s: coverage out of range: %+v", r.Benchmark, r)
		}
		// Coverage must not be worse (same fuzzer, more execs).
		if r.ClosureX < r.AFLpp*0.95 {
			t.Errorf("%s: ClosureX coverage %.2f%% well below AFL++ %.2f%%",
				r.Benchmark, r.ClosureX, r.AFLpp)
		}
	}
	if !strings.Contains(FormatTable6(t6), "% Improvement") {
		t.Fatal("FormatTable6 header")
	}

	t7 := Table7(eval)
	if len(t7) != 6 { // gpmf-parser's six planted bugs; giftext is clean
		t.Fatalf("table7 rows = %d, want 6", len(t7))
	}
	foundAny := false
	for _, r := range t7 {
		if r.ClosureXTrials > 0 {
			foundAny = true
		}
		if r.ClosureXTrials > 3 || r.AFLppTrials > 3 {
			t.Fatalf("trials found exceeds trial count: %+v", r)
		}
	}
	if !foundAny {
		t.Fatal("no planted bug found in any trial; budget too small or fuzzer broken")
	}
	out7 := FormatTable7(t7)
	if !strings.Contains(out7, "gpmf-div-zero-scal") {
		t.Fatalf("FormatTable7:\n%s", out7)
	}
}

func TestTable3And4Render(t *testing.T) {
	t3 := Table3()
	for _, pass := range []string{"RenameMainPass", "HeapPass", "FilePass", "GlobalPass", "ExitPass"} {
		if !strings.Contains(t3, pass) {
			t.Errorf("Table3 missing %s", pass)
		}
	}
	t4 := Table4()
	for _, tgt := range []string{"bsdtar", "libpcap", "gpmf-parser", "libbpf", "freetype",
		"giftext", "zlib", "libdwarf", "c-blosc2", "md4c"} {
		if !strings.Contains(t4, tgt) {
			t.Errorf("Table4 missing %s", tgt)
		}
	}
}

func TestSpectrumOrdering(t *testing.T) {
	if testing.Short() {
		t.Skip("spectrum run")
	}
	rows, err := RunSpectrum(512, 200)
	if err != nil {
		t.Fatal(err)
	}
	byName := map[string]float64{}
	for _, r := range rows {
		byName[r.Mechanism] = r.NsPerExec
	}
	if !(byName["closurex"] < byName["forkserver"] && byName["forkserver"] < byName["fresh"]) {
		t.Fatalf("spectrum ordering violated: %+v", byName)
	}
	// Naive persistent is the raw-speed ceiling; ClosureX must be close
	// to it (the "near-persistent performance" claim) — within 3x.
	if byName["closurex"] > 3*byName["persistent-naive"] {
		t.Fatalf("closurex %.0f ns vs persistent %.0f ns: not near-persistent",
			byName["closurex"], byName["persistent-naive"])
	}
	out := FormatSpectrum(rows, 512)
	if !strings.Contains(out, "faster than fresh") {
		t.Fatalf("FormatSpectrum:\n%s", out)
	}
}

func TestStaleStateDemo(t *testing.T) {
	rep, err := RunStaleStateDemo()
	if err != nil {
		t.Fatal(err)
	}
	if !rep.FreshCrashes {
		t.Fatal("ground truth: crash input does not crash a fresh process")
	}
	if !rep.NaiveMissedCrash {
		t.Fatal("naive persistent did not miss the crash (stale flag had no effect)")
	}
	if !rep.ClosureXCrashes {
		t.Fatal("ClosureX missed the crash after the flag input")
	}
	if rep.NaiveFalseCrashAfter == 0 {
		t.Fatal("naive persistent never false-crashed from FD exhaustion")
	}
	if rep.ClosureXFalseCrash {
		t.Fatal("ClosureX false-crashed")
	}
	if !rep.Correct() || rep.String() == "" {
		t.Fatalf("report: %s", rep)
	}
}

func TestSectionTransformation(t *testing.T) {
	out, err := SectionTransformation("md4c")
	if err != nil {
		t.Fatal(err)
	}
	before := out[:strings.Index(out, "after the Global pass")]
	after := out[strings.Index(out, "after the Global pass"):]
	if strings.Contains(before, "closure_global_section") {
		t.Fatal("closure section present before the pass")
	}
	if !strings.Contains(after, "closure_global_section") {
		t.Fatal("closure section missing after the pass")
	}
	if _, err := SectionTransformation("nope"); err == nil {
		t.Fatal("unknown target accepted")
	}
}

func TestCorrectnessStudySmall(t *testing.T) {
	if testing.Short() {
		t.Skip("correctness study")
	}
	// One buggy, one clean, and the nondeterministic target.
	for _, name := range []string{"gpmf-parser", "zlib", "freetype"} {
		name := name
		t.Run(name, func(t *testing.T) {
			rep, err := RunCorrectness(name, CorrectnessOptions{
				QueueExecs: 1500, Pollution: 120, MaxCases: 12, Seed: 5,
			})
			if err != nil {
				t.Fatal(err)
			}
			if rep.Cases == 0 {
				t.Fatal("no cases replayed")
			}
			if rep.DataflowMismatches != 0 {
				t.Errorf("dataflow mismatches: %s", rep)
			}
			if rep.ControlFlowMismatches != 0 {
				t.Errorf("control-flow mismatches: %s", rep)
			}
			if name == "freetype" && rep.NondetCases == 0 {
				t.Error("freetype nondeterminism not detected")
			}
		})
	}
	if _, err := RunCorrectness("nope", DefaultCorrectnessOptions()); err == nil {
		t.Fatal("unknown target accepted")
	}
}

func TestAblationShape(t *testing.T) {
	if testing.Short() {
		t.Skip("ablation run")
	}
	rows, err := RunAblation(500*time.Millisecond, 3)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 4 || rows[0].Name != "full" {
		t.Fatalf("rows: %+v", rows)
	}
	if rows[0].FalseCrashes != 0 {
		t.Errorf("full restoration produced %d false crashes", rows[0].FalseCrashes)
	}
	if rows[0].LiveChunksEnd != 0 || rows[0].OpenFDsEnd != 0 {
		t.Errorf("full restoration leaked state: %+v", rows[0])
	}
	var noHeap, noFiles AblationRow
	for _, r := range rows {
		switch r.Name {
		case "-HeapPass":
			noHeap = r
		case "-FilePass":
			noFiles = r
		}
	}
	if noHeap.LiveChunksEnd == 0 {
		t.Error("-HeapPass: no chunks leaked, ablation has no teeth")
	}
	if noFiles.OpenFDsEnd == 0 && noFiles.FalseCrashes == 0 {
		t.Error("-FilePass: neither FD leak nor false crash observed")
	}
	if !strings.Contains(FormatAblation(rows), "-GlobalPass") {
		t.Fatal("FormatAblation output")
	}
}

func TestDeferInitAblation(t *testing.T) {
	if testing.Short() {
		t.Skip("deferinit run")
	}
	res, err := RunDeferInitAblation(300)
	if err != nil {
		t.Fatal(err)
	}
	if !res.ResultsEquivalent {
		t.Fatal("DeferInitPass changed program results")
	}
	if res.Speedup <= 1.2 {
		t.Errorf("deferred init speedup = %.2fx, want > 1.2x (init is 4096 iterations)", res.Speedup)
	}
}
