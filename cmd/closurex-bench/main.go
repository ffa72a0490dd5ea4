// Command closurex-bench regenerates the paper's evaluation artifacts at a
// configurable (scaled) budget: Tables 3-7, the execution-mechanism
// spectrum figure, the stale-state pathology demonstration, and the
// restoration ablations.
//
// Usage:
//
//	closurex-bench -table 5 -duration 2s -trials 5
//	closurex-bench -table all -targets gpmf-parser,libbpf
//	closurex-bench -figure spectrum
//	closurex-bench -ablation
//	closurex-bench -sanitizer-overhead -sanitizer-json BENCH_sanitizer.json
//	closurex-bench -restore-elision -interproc-json BENCH_interproc.json
//	closurex-bench -dict-gain -dict-json BENCH_harness.json
//	closurex-bench -synth-gain -synth-json BENCH_synth.json
package main

import (
	"flag"
	"fmt"
	"os"
	"strings"
	"time"

	"closurex/internal/experiments"
)

// sweepTarget is the target of the parallel-scaling, sanitizer-overhead and
// chaos runs; chaosJobs is the chaos matrix's shard count (min 3).
const (
	sweepTarget = "gpmf-parser"
	chaosJobs   = 4
)

func main() {
	var (
		table    = flag.String("table", "", "3 | 4 | 5 | 6 | 7 | all")
		figure   = flag.String("figure", "", "spectrum | stale-state | sections")
		ablation = flag.Bool("ablation", false, "run the restoration ablations")
		duration = flag.Duration("duration", 2*time.Second, "per-trial fuzzing time (paper: 24h)")
		trials   = flag.Int("trials", 5, "trials per configuration (paper: 5)")
		tgts     = flag.String("targets", "", "comma-separated target subset (default: all ten)")
		seed     = flag.Uint64("seed", 0x5eed, "base RNG seed")
		pages    = flag.Int("image-pages", 512, "image size for the spectrum figure")
	)
	var (
		scaling      = flag.Bool("parallel-scaling", false, "run the parallel-scaling sweep (jobs = 1, 2, 4, GOMAXPROCS)")
		scalingExecs = flag.Int64("parallel-execs", 50000, "aggregate executions per scaling point")
		parallelJSON = flag.String("parallel-json", "", "also write the scaling report to this JSON file (e.g. BENCH_parallel.json)")
	)
	var (
		sanOverhead = flag.Bool("sanitizer-overhead", false, "run the sanitizer-overhead sweep (modes off, on, on+elide)")
		sanExecs    = flag.Int64("sanitizer-execs", 20000, "executions per sanitize mode")
		sanJSON     = flag.String("sanitizer-json", "", "also write the sanitizer report to this JSON file (e.g. BENCH_sanitizer.json)")
	)
	var (
		elision      = flag.Bool("restore-elision", false, "run the interprocedural restore-elision sweep over every target (elision off vs on)")
		elisionExecs = flag.Int64("interproc-execs", 10000, "executions per elision point")
		elisionJSON  = flag.String("interproc-json", "", "also write the elision report to this JSON file (e.g. BENCH_interproc.json)")
	)
	var (
		dictGain   = flag.Bool("dict-gain", false, "run the harness-audit sweep over every target (auto-dictionary off vs on)")
		dictExecs  = flag.Int64("dict-execs", 10000, "executions per auto-dictionary point")
		dictJSON   = flag.String("dict-json", "", "also write the harness report to this JSON file (e.g. BENCH_harness.json)")
		synthGain  = flag.Bool("synth-gain", false, "run the synthesized-harness sweep: manual vs manual+synthesized coverage per target")
		synthExecs = flag.Int64("synth-execs", 10000, "executions per campaign in the synthesized-harness sweep")
		synthJSON  = flag.String("synth-json", "", "also write the synthesis report to this JSON file (e.g. BENCH_synth.json)")
	)
	var (
		chaos      = flag.Bool("chaos", false, "run the fault-injection matrix over the parallel campaign (shard kill, restore corruption, corpus delay/drop)")
		chaosExecs = flag.Int64("chaos-execs", 30000, "aggregate executions per chaos scenario")
		chaosJSON  = flag.String("chaos-json", "", "also write the chaos report to this JSON file (e.g. BENCH_chaos.json)")
	)
	flag.Parse()
	if *parallelJSON != "" {
		*scaling = true
	}
	if *sanJSON != "" {
		*sanOverhead = true
	}
	if *elisionJSON != "" {
		*elision = true
	}
	if *dictJSON != "" {
		*dictGain = true
	}
	if *synthJSON != "" {
		*synthGain = true
	}
	if *chaosJSON != "" {
		*chaos = true
	}
	if *table == "" && *figure == "" && !*ablation && !*scaling && !*sanOverhead && !*elision && !*dictGain && !*synthGain && !*chaos {
		flag.Usage()
		os.Exit(2)
	}

	cfg := experiments.Config{
		TrialDuration: *duration,
		Trials:        *trials,
		BaseSeed:      *seed,
	}
	if *tgts != "" {
		cfg.Targets = strings.Split(*tgts, ",")
	}

	switch *table {
	case "":
	case "3":
		fmt.Print(experiments.Table3())
	case "4":
		fmt.Print(experiments.Table4())
	case "5", "6", "7", "all":
		if *table == "all" {
			fmt.Print(experiments.Table3())
			fmt.Println()
			fmt.Print(experiments.Table4())
			fmt.Println()
		}
		fmt.Printf("running evaluation: %d trials x %v per cell, 2 mechanisms...\n\n",
			cfg.Trials, cfg.TrialDuration)
		eval, err := experiments.RunEvaluation(cfg)
		if err != nil {
			fatalf("%v", err)
		}
		if *table == "5" || *table == "all" {
			fmt.Print(experiments.FormatTable5(experiments.Table5(eval)))
			fmt.Println()
		}
		if *table == "6" || *table == "all" {
			fmt.Print(experiments.FormatTable6(experiments.Table6(eval)))
			fmt.Println()
		}
		if *table == "7" || *table == "all" {
			fmt.Print(experiments.FormatTable7(experiments.Table7(eval)))
		}
	default:
		fatalf("unknown table %q", *table)
	}

	switch *figure {
	case "":
	case "spectrum":
		rows, err := experiments.RunSpectrum(*pages, 400)
		if err != nil {
			fatalf("%v", err)
		}
		fmt.Print(experiments.FormatSpectrum(rows, *pages))
	case "stale-state":
		rep, err := experiments.RunStaleStateDemo()
		if err != nil {
			fatalf("%v", err)
		}
		fmt.Println("Stale-state pathology demonstration (gpmf-parser):")
		fmt.Println(" ", rep)
		if rep.Correct() {
			fmt.Println("  => naive persistent fuzzing misses real crashes and reports false ones; ClosureX does neither")
		}
	case "reproducibility":
		fmt.Println("Crash reproducibility: campaign crashes replayed in a fresh process")
		for _, tgt := range cfg.Targets {
			rep, err := experiments.RunReproducibility(tgt, *duration, *seed)
			if err != nil {
				fatalf("%v", err)
			}
			fmt.Println(" ", rep)
		}
	case "sections":
		for _, tgt := range cfg.Targets {
			out, err := experiments.SectionTransformation(tgt)
			if err != nil {
				fatalf("%v", err)
			}
			fmt.Println(out)
		}
	default:
		fatalf("unknown figure %q", *figure)
	}

	if *scaling {
		rep, err := experiments.RunParallelScaling(sweepTarget, nil, *scalingExecs, *seed)
		if err != nil {
			fatalf("%v", err)
		}
		fmt.Print(experiments.FormatScaling(rep))
		writeReport(*parallelJSON, "scaling", rep)
		for _, r := range rep.Rows {
			if r.Restarts > 0 || r.Quarantined > 0 {
				fatalf("parallel scaling: jobs=%d had %d shard restart(s), %d quarantine(s) in a fault-free run",
					r.Jobs, r.Restarts, r.Quarantined)
			}
		}
	}

	if *chaos {
		rep, err := experiments.RunChaosMatrix(sweepTarget, chaosJobs, *chaosExecs, *seed)
		if err != nil {
			fatalf("%v", err)
		}
		fmt.Print(experiments.FormatChaos(rep))
		writeReport(*chaosJSON, "chaos", rep)
		if !rep.AllPass {
			fatalf("chaos matrix failed")
		}
	}

	if *sanOverhead {
		rep, err := experiments.RunSanitizerOverhead(sweepTarget, *sanExecs, *seed)
		if err != nil {
			fatalf("%v", err)
		}
		fmt.Print(experiments.FormatSanitizer(rep))
		writeReport(*sanJSON, "sanitizer", rep)
	}

	if *elision {
		rep, err := experiments.RunRestoreElision(*elisionExecs, *seed)
		if err != nil {
			fatalf("%v", err)
		}
		fmt.Print(experiments.FormatElision(rep))
		writeReport(*elisionJSON, "elision", rep)
		for _, r := range rep.Rows {
			if !r.EdgesMatch {
				fatalf("restore elision: %s reached different edge counts across rounds or arms", r.Target)
			}
		}
	}

	if *dictGain {
		rep, err := experiments.RunDictGain(*dictExecs, *seed)
		if err != nil {
			fatalf("%v", err)
		}
		fmt.Print(experiments.FormatDictGain(rep))
		writeReport(*dictJSON, "harness", rep)
		for _, r := range rep.Rows {
			if !r.DeterministicOff {
				fatalf("dict gain: %s reached different edge counts across auto-dictionary-off rounds", r.Target)
			}
		}
	}

	if *synthGain {
		rep, err := experiments.RunSynthGain(*synthExecs, *seed)
		if err != nil {
			fatalf("%v", err)
		}
		fmt.Print(experiments.FormatSynthGain(rep))
		writeReport(*synthJSON, "synthesis", rep)
		// Any CLX130 is a synthesizer bug: a harness we emitted failed its
		// own certification. Fail the bench after writing the artifact.
		if rep.CLX130 > 0 {
			fatalf("synth-gain: %d CLX130 certification failure(s)", rep.CLX130)
		}
	}

	if *ablation {
		rows, err := experiments.RunAblation(*duration, *seed)
		if err != nil {
			fatalf("%v", err)
		}
		fmt.Print(experiments.FormatAblation(rows))
		res, err := experiments.RunDeferInitAblation(500)
		if err != nil {
			fatalf("%v", err)
		}
		fmt.Printf("\nDeferInitPass extension: %.0f ns/exec -> %.0f ns/exec (%.2fx), results equivalent: %v\n",
			res.NsPerExecBaseline, res.NsPerExecDeferred, res.Speedup, res.ResultsEquivalent)
	}
}

// writeReport writes a report to path as JSON when path is set.
func writeReport(path, what string, rep any) {
	if path == "" {
		return
	}
	if err := experiments.WriteJSON(path, rep); err != nil {
		fatalf("%v", err)
	}
	fmt.Printf("%s report written to %s\n", what, path)
}

func fatalf(format string, args ...interface{}) {
	fmt.Fprintf(os.Stderr, "closurex-bench: "+format+"\n", args...)
	os.Exit(1)
}
