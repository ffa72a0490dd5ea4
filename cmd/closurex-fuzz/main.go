// Command closurex-fuzz runs a fuzzing campaign on a registered benchmark
// (or a user MinC file) under a chosen execution mechanism, printing
// periodic status lines and a final crash report.
//
// Usage:
//
//	closurex-fuzz -target gpmf-parser -mechanism closurex -duration 10s
//	closurex-fuzz -file prog.c -seed-file s1.bin -seed-file s2.bin
//	closurex-fuzz -synth-target freetype -duration 10s
//
// With -synth-target the static harness synthesizer (analysis/synth) emits
// and certifies a dispatch harness for the named benchmark's
// under-exercised exported functions, registers it in the target registry
// as "<name>+synth", and fuzzes that synthesized target.
package main

import (
	"flag"
	"fmt"
	"os"
	"os/signal"
	"path/filepath"
	"strings"
	"syscall"
	"time"

	"closurex"
	"closurex/internal/analysis/synth"
	"closurex/internal/core"
	"closurex/internal/stats"
	"closurex/internal/targets"
)

type seedFiles []string

func (s *seedFiles) String() string     { return fmt.Sprint(*s) }
func (s *seedFiles) Set(v string) error { *s = append(*s, v); return nil }

func main() {
	var seeds seedFiles
	var (
		targetName = flag.String("target", "", "registered benchmark (see closurex-cc -list-targets)")
		synthName  = flag.String("synth-target", "", "synthesize, register and fuzz a dispatch harness for this benchmark's under-exercised functions")
		file       = flag.String("file", "", "MinC source file to fuzz")
		mechanism  = flag.String("mechanism", "closurex", "fresh | forkserver | persistent-naive | closurex")
		duration   = flag.Duration("duration", 10*time.Second, "fuzzing time")
		seed       = flag.Uint64("seed", 1, "campaign RNG seed")
		status     = flag.Duration("status", 2*time.Second, "status interval")
		jobs       = flag.Int("jobs", 1, "parallel campaign shards (each with its own process image)")
		shardBack  = flag.Duration("shard-backoff", 0, "base shard-restart cooldown, doubling per consecutive fault (0 = default 2ms; -jobs > 1)")
		statsJSON  = flag.String("stats-json", "", "append per-shard health snapshots to this JSON-lines file at every status interval")
	)
	var (
		outDir = flag.String("out", "", "directory to persist crashes/ and queue/ into")
		replay = flag.String("replay", "", "replay one input file instead of fuzzing")
		tmin   = flag.Bool("minimize-crashes", false, "minimize each crash input before reporting")
		cmin   = flag.Bool("minimize-corpus", false, "write the coverage-preserving corpus subset to -out")
	)
	var (
		lint      = flag.Bool("lint", false, "run the static restore-completeness lints and refuse to fuzz a module that fails them")
		sanitize  = flag.Bool("sanitize", false, "arm the heap sanitizer (shadow memory, redzones, free quarantine; statically elides provably safe checks)")
		noElide   = flag.Bool("sanitize-no-elide", false, "with -sanitize: keep every check, disabling the static elision analysis (benchmark configuration)")
		resilient = flag.Bool("resilient", false, "arm the restore watchdog + rebuild/fallback ladder")
		interproc = flag.Bool("interproc", false, "arm interprocedural restore elision: snapshot/restore/watch only the analysis-proven may-written global ranges")
		autoDict  = flag.Bool("auto-dict", false, "merge the statically harvested auto-dictionary (input-dataflow compare constants) into the mutation dictionary")
		auditRest = flag.Bool("audit-restore", false, "periodically re-check the full closure section at runtime to validate elision soundness")
		sentEvery = flag.Int64("sentinel-every", 0, "divergence sentinel period in execs (0 = off)")
		ckptPath  = flag.String("checkpoint", "", "write campaign checkpoints to this file (periodically and on exit/signal)")
		ckptEvery = flag.Duration("checkpoint-every", 30*time.Second, "periodic checkpoint interval (with -checkpoint)")
		resume    = flag.String("resume", "", "resume a campaign from a checkpoint file (same target/mechanism/seed)")
	)
	flag.Var(&seeds, "seed-file", "seed corpus file (repeatable; -file mode)")
	flag.Parse()

	// A supervisor signal stops the campaign at the next coarse check
	// instead of killing it mid-iteration, so every shard drains to a sync
	// boundary and the final checkpoint always lands on clean Step
	// boundaries. A second signal hard-exits for operators who cannot wait
	// for the drain.
	stop := make(chan struct{})
	sigCh := make(chan os.Signal, 2)
	signal.Notify(sigCh, os.Interrupt, syscall.SIGTERM)
	go func() {
		<-sigCh
		fmt.Fprintln(os.Stderr, "closurex-fuzz: signal received, draining shards and checkpointing... (again to force quit)")
		close(stop)
		<-sigCh
		fmt.Fprintln(os.Stderr, "closurex-fuzz: second signal, exiting now")
		os.Exit(130)
	}()

	opts := closurex.Options{
		Mechanism:       *mechanism,
		Seed:            *seed,
		Sanitize:        *sanitize,
		SanitizeNoElide: *noElide,
		Resilient:       *resilient,
		Interproc:       *interproc,
		AuditRestore:    *auditRest,
		AutoDict:        *autoDict,
		SentinelEvery:   *sentEvery,
		Stop:            stop,
		Jobs:            *jobs,
		ShardBackoff:    *shardBack,
	}
	if *ckptPath != "" {
		// Bit-identical resume needs the target's entropy pinned.
		opts.DeterministicRand = true
	}
	if *resume != "" {
		data, rerr := os.ReadFile(*resume)
		if rerr != nil {
			fatalf("%v", rerr)
		}
		opts.ResumeFrom = data
	}

	var f *closurex.Fuzzer
	var err error
	switch {
	case *synthName != "":
		base := targets.Get(*synthName)
		if base == nil {
			fatalf("unknown target %q for -synth-target (have %v)", *synthName, targets.Names())
		}
		nt, h, serr := synth.TargetFor(base, synth.Options{})
		if serr != nil {
			if h != nil {
				for _, d := range h.Diags {
					fmt.Fprintf(os.Stderr, "closurex-fuzz: synth: %s\n", d)
				}
			}
			fatalf("%v", serr)
		}
		if existing := targets.Get(nt.Name); existing != nil {
			nt = existing
		} else if rerr := core.RegisterTarget(nt); rerr != nil {
			fatalf("registering synthesized target: %v", rerr)
		}
		fmt.Printf("synthesized %q: %d dispatch arm(s), %d-byte header, certified; fuzzing it\n",
			nt.Name, len(h.Report.Arms), h.Report.HdrBytes)
		f, err = closurex.NewBenchmarkFuzzerOptions(nt.Name, *mechanism, opts)
	case *targetName != "":
		f, err = closurex.NewBenchmarkFuzzerOptions(*targetName, *mechanism, opts)
	case *file != "":
		data, rerr := os.ReadFile(*file)
		if rerr != nil {
			fatalf("%v", rerr)
		}
		var corpus [][]byte
		for _, sf := range seeds {
			b, rerr := os.ReadFile(sf)
			if rerr != nil {
				fatalf("%v", rerr)
			}
			corpus = append(corpus, b)
		}
		f, err = closurex.NewFuzzer(string(data), corpus, opts)
	default:
		flag.Usage()
		os.Exit(2)
	}
	if err != nil {
		fatalf("%v", err)
	}
	defer f.Close()

	if *lint {
		// A campaign against a module that fails the restore-completeness
		// lints would fuzz polluted state from iteration two onward; refuse
		// up front rather than let the sentinel discover it hours in.
		diags := f.Lint()
		for _, d := range diags {
			fmt.Fprintf(os.Stderr, "closurex-fuzz: lint: %s\n", d)
		}
		if closurex.HasLintErrors(diags) {
			fatalf("module failed the restore-completeness lints; not starting the campaign")
		}
		fmt.Printf("lint clean: module statically restartable under mechanism=%s\n", f.Mechanism())
	}

	if *replay != "" {
		data, rerr := os.ReadFile(*replay)
		if rerr != nil {
			fatalf("%v", rerr)
		}
		crashed, key := f.TryOne(data)
		if crashed {
			fmt.Printf("CRASH %s\n", key)
			os.Exit(3)
		}
		fmt.Println("no crash")
		return
	}

	if f.Jobs() > 1 {
		fmt.Printf("fuzzing with mechanism=%s jobs=%d for %v\n", f.Mechanism(), f.Jobs(), *duration)
	} else {
		fmt.Printf("fuzzing with mechanism=%s for %v\n", f.Mechanism(), *duration)
	}
	var healthLog *stats.HealthLog
	if *statsJSON != "" {
		healthLog, err = stats.OpenHealthLog(*statsJSON)
		if err != nil {
			fatalf("%v", err)
		}
		defer healthLog.Close()
	}
	deadline := time.Now().Add(*duration)
	lastCkpt := time.Now()
	for time.Now().Before(deadline) && !stopped(stop) {
		slice := *status
		if rem := time.Until(deadline); rem < slice {
			slice = rem
		}
		f.RunFor(slice)
		fmt.Println(f.Stats())
		if healthLog != nil {
			if err := healthLog.Append(healthSnapshot(f)); err != nil {
				fmt.Fprintf(os.Stderr, "closurex-fuzz: stats-json: %v\n", err)
			}
		}
		if *ckptPath != "" && time.Since(lastCkpt) >= *ckptEvery {
			if err := f.CheckpointTo(*ckptPath); err != nil {
				fmt.Fprintf(os.Stderr, "closurex-fuzz: checkpoint: %v\n", err)
			}
			lastCkpt = time.Now()
		}
		if f.HealthyShards() == 0 {
			fmt.Fprintln(os.Stderr, "closurex-fuzz: every shard quarantined; ending the campaign early")
			break
		}
	}
	if healthLog != nil {
		if err := healthLog.Append(healthSnapshot(f)); err != nil {
			fmt.Fprintf(os.Stderr, "closurex-fuzz: stats-json: %v\n", err)
		}
	}
	if *ckptPath != "" {
		if err := f.CheckpointTo(*ckptPath); err != nil {
			fatalf("final checkpoint: %v", err)
		}
		fmt.Printf("checkpoint written to %s\n", *ckptPath)
	}

	st := f.Stats()
	fmt.Printf("\nfinal: %s\n", st)
	if len(st.Hangs) > 0 {
		fmt.Printf("%d unique hang(s):\n", len(st.Hangs))
		for i := range st.Hangs {
			h := &st.Hangs[i]
			fmt.Printf("  %-50s first at %8.2fs, %5d hits\n", h.Key, h.FirstAt.Seconds(), h.Count)
		}
	}
	if len(st.Crashes) == 0 {
		fmt.Println("no crashes found")
		return
	}
	fmt.Printf("%d unique crash(es):\n", len(st.Crashes))
	for i := range st.Crashes {
		c := &st.Crashes[i]
		if *tmin {
			if min, err := f.MinimizeCrash(c.Input); err == nil {
				fmt.Printf("  minimized %d -> %d bytes\n", len(c.Input), len(min))
				c.Input = min
			}
		}
		fmt.Printf("  %-50s first at %8.2fs, %5d hits, input %q\n",
			c.Key, c.FirstAt.Seconds(), c.Count, preview(c.Input))
	}
	if *cmin && *outDir == "" {
		fatalf("-minimize-corpus requires -out")
	}
	if *outDir != "" {
		if err := persist(*outDir, f, st, *cmin); err != nil {
			fatalf("persisting results: %v", err)
		}
		fmt.Printf("crashes and corpus written to %s\n", *outDir)
	}
}

// persist writes triaged crash inputs and the corpus to disk, in the
// layout AFL users expect (crashes/ and queue/). With minimizeCorpus the
// queue is first reduced to its coverage-preserving subset.
func persist(dir string, f *closurex.Fuzzer, st closurex.Stats, minimizeCorpus bool) error {
	crashDir := filepath.Join(dir, "crashes")
	queueDir := filepath.Join(dir, "queue")
	for _, d := range []string{crashDir, queueDir} {
		if err := os.MkdirAll(d, 0o755); err != nil {
			return err
		}
	}
	sanitize := strings.NewReplacer("/", "_", ":", "_", "@", "_")
	for _, c := range st.Crashes {
		name := sanitize.Replace(c.Key) + ".bin"
		if err := os.WriteFile(filepath.Join(crashDir, name), c.Input, 0o644); err != nil {
			return err
		}
	}
	corpus := f.Corpus()
	if minimizeCorpus {
		before := len(corpus)
		corpus = f.MinimizeCorpus()
		fmt.Printf("corpus minimized: %d -> %d entries\n", before, len(corpus))
	}
	for i, in := range corpus {
		name := fmt.Sprintf("id_%06d.bin", i)
		if err := os.WriteFile(filepath.Join(queueDir, name), in, 0o644); err != nil {
			return err
		}
	}
	return nil
}

// stopped reports whether the supervisor channel has closed.
func stopped(stop <-chan struct{}) bool {
	select {
	case <-stop:
		return true
	default:
		return false
	}
}

// healthSnapshot assembles one -stats-json line from the fuzzer's current
// aggregate stats and per-shard supervision state.
func healthSnapshot(f *closurex.Fuzzer) stats.HealthSnapshot {
	st := f.Stats()
	snap := stats.HealthSnapshot{
		Execs:         st.Execs,
		Edges:         st.Edges,
		Corpus:        st.QueueLen,
		Crashes:       len(st.Crashes),
		Hangs:         len(st.Hangs),
		Divergences:   st.Divergences,
		HealthyShards: f.HealthyShards(),
	}
	if st.ExecsPerSec > 0 {
		snap.ElapsedSec = float64(st.Execs) / st.ExecsPerSec
	}
	for _, h := range f.ShardHealth() {
		rec := stats.ShardHealthRecord{
			Shard:             h.Shard,
			Execs:             h.Execs,
			Crashes:           h.Crashes,
			Hangs:             h.Hangs,
			ExecRate:          h.ExecRate,
			Restarts:          h.Restarts,
			Rebuilds:          h.Rebuilds,
			RestoreFailures:   h.RestoreFailures,
			ConsecutiveFaults: h.ConsecutiveFaults,
			HangEscalations:   h.HangEscalations,
			InboxDropped:      h.InboxDropped,
			Quarantined:       h.Quarantined,
			Stalled:           h.Stalled,
			LastFault:         h.LastFault,
			MechDegraded:      h.MechDegraded,
		}
		if !h.LastProgress.IsZero() {
			rec.LastProgress = h.LastProgress.UTC().Format(time.RFC3339Nano)
		}
		snap.Shards = append(snap.Shards, rec)
	}
	return snap
}

func preview(b []byte) string {
	if len(b) > 32 {
		return string(b[:32]) + "..."
	}
	return string(b)
}

func fatalf(format string, args ...interface{}) {
	fmt.Fprintf(os.Stderr, "closurex-fuzz: "+format+"\n", args...)
	os.Exit(1)
}
