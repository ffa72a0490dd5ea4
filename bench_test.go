// Benchmarks regenerating the paper's evaluation artifacts, one family per
// table/figure. ns/op is the per-test-case cost, so Table 5's speedup for
// a target is BenchmarkTable5/<target>/forkserver ÷ .../closurex. Custom
// metrics report coverage (Table 6) and executions-to-bug (Table 7).
//
//	go test -bench=. -benchmem
//
// For the full formatted tables (with Mann-Whitney significance over
// repeated trials) use: go run ./cmd/closurex-bench -table all
package closurex

import (
	"fmt"
	"runtime"
	"testing"

	"closurex/internal/core"
	"closurex/internal/execmgr"
	"closurex/internal/experiments"
	"closurex/internal/fuzz"
	"closurex/internal/harness"
	"closurex/internal/targets"
	"closurex/internal/vm"
)

// benchInstance builds a (target, mechanism) campaign for benchmarking.
func benchInstance(b *testing.B, targetName, mech string) *core.Instance {
	b.Helper()
	t := targets.Get(targetName)
	if t == nil {
		b.Fatalf("unknown target %s", targetName)
	}
	inst, err := core.NewInstance(t, mech, core.InstanceOptions{TrialSeed: 1})
	if err != nil {
		b.Fatal(err)
	}
	b.Cleanup(inst.Close)
	return inst
}

// BenchmarkTable5 measures the test-case execution rate of every Table 4
// benchmark under ClosureX and the AFL++ forkserver. ns/op = time per
// fuzzed test case, including mutation and coverage classification.
func BenchmarkTable5(b *testing.B) {
	for _, tg := range targets.All() {
		for _, mech := range []string{"closurex", "forkserver"} {
			b.Run(tg.Name+"/"+mech, func(b *testing.B) {
				inst := benchInstance(b, tg.Name, mech)
				inst.Campaign.RunExecs(64) // bootstrap seeds outside timing
				b.ReportAllocs()
				b.ResetTimer()
				var done int64
				for done < int64(b.N) {
					done += inst.Campaign.Step()
				}
				b.StopTimer()
				execsPerSec := float64(b.N) / b.Elapsed().Seconds()
				b.ReportMetric(execsPerSec, "execs/s")
			})
		}
	}
}

// BenchmarkTable6 runs a fixed-size campaign per benchmark and mechanism
// and reports edge coverage as a custom metric (edges and coverage %).
func BenchmarkTable6(b *testing.B) {
	const campaignExecs = 20000
	for _, tg := range targets.All() {
		for _, mech := range []string{"closurex", "forkserver"} {
			b.Run(tg.Name+"/"+mech, func(b *testing.B) {
				for i := 0; i < b.N; i++ {
					inst := benchInstance(b, tg.Name, mech)
					inst.Campaign.RunExecs(campaignExecs)
					cov := 100 * float64(inst.Campaign.Edges()) / float64(inst.TotalEdges())
					b.ReportMetric(float64(inst.Campaign.Edges()), "edges")
					b.ReportMetric(cov, "cov%")
				}
			})
		}
	}
}

// BenchmarkTable7 measures executions until the first planted bug is
// found, per buggy benchmark and mechanism (execs-to-bug metric; lower is
// better, and wall-clock time-to-bug is ns/op x execs-to-bug).
func BenchmarkTable7(b *testing.B) {
	const cap = 400000
	for _, tgName := range []string{"gpmf-parser", "libbpf", "c-blosc2", "md4c"} {
		for _, mech := range []string{"closurex", "forkserver"} {
			b.Run(tgName+"/"+mech, func(b *testing.B) {
				var totalExecs float64
				found := 0
				for i := 0; i < b.N; i++ {
					inst := benchInstance(b, tgName, mech)
					for inst.Campaign.Execs() < cap && len(inst.Campaign.Crashes()) == 0 {
						inst.Campaign.Step()
					}
					if len(inst.Campaign.Crashes()) > 0 {
						totalExecs += float64(inst.Campaign.Execs())
						found++
					}
				}
				if found > 0 {
					b.ReportMetric(totalExecs/float64(found), "execs-to-bug")
					b.ReportMetric(float64(found)/float64(b.N), "found-ratio")
				}
			})
		}
	}
}

// BenchmarkFigSpectrum measures raw per-execution cost of all four
// mechanisms on a trivial target with a 512-page image — the paper's
// motivating spectrum (fresh >> forkserver >> persistent ~= closurex).
func BenchmarkFigSpectrum(b *testing.B) {
	const src = `
int runs;
int main(void) {
	runs++;
	int f = fopen("/input", "r");
	if (!f) abort();
	int c = fgetc(f);
	fclose(f);
	return c;
}
`
	for _, mech := range execmgr.Names() {
		b.Run(mech, func(b *testing.B) {
			mod, err := core.Build("spectrum.c", src, core.VariantFor(mech))
			if err != nil {
				b.Fatal(err)
			}
			m, err := execmgr.New(mech, execmgr.Config{Module: mod, Options: vm.Options{ImagePages: 512}})
			if err != nil {
				b.Fatal(err)
			}
			defer m.Close()
			input := []byte{42}
			for i := 0; i < 8; i++ {
				m.Execute(input)
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				m.Execute(input)
			}
		})
	}
}

// BenchmarkParallelScaling measures aggregate fuzzing throughput of the
// parallel campaign executor at increasing shard counts (jobs = 1, 2, 4,
// GOMAXPROCS). Each shard owns a full process image + harness and merges
// coverage into the shared global bitmap; execs/s is the aggregate rate
// across the fleet. On a single-CPU host the curve is flat (sharding adds
// no overhead); on multi-core hosts it scales with cores.
func BenchmarkParallelScaling(b *testing.B) {
	jobsList := []int{1, 2, 4}
	if p := runtime.GOMAXPROCS(0); p > 4 {
		jobsList = append(jobsList, p)
	}
	for _, jobs := range jobsList {
		b.Run(fmt.Sprintf("jobs=%d", jobs), func(b *testing.B) {
			tg := targets.Get("gpmf-parser")
			inst, err := core.NewInstance(tg, "closurex", core.InstanceOptions{
				TrialSeed: 1, Jobs: jobs,
			})
			if err != nil {
				b.Fatal(err)
			}
			b.Cleanup(inst.Close)
			d := inst.Driver()
			d.RunExecs(256) // bootstrap seeds + warm every shard outside timing
			base := d.Execs()
			b.ResetTimer()
			d.RunExecs(base + int64(b.N))
			b.StopTimer()
			execsPerSec := float64(d.Execs()-base) / b.Elapsed().Seconds()
			b.ReportMetric(execsPerSec, "execs/s")
		})
	}
}

// BenchmarkRestoreDirtyTracking isolates the dirty-tracking incremental
// restore against the original full byte-copy on a 512-page (2 MiB)
// closure_global_section of which each execution dirties a single page.
// The restored state is byte-identical either way (the watchdog Verify
// checks it below); only the copy-back bandwidth differs. restore-B/op is
// the per-iteration number of section bytes actually copied.
func BenchmarkRestoreDirtyTracking(b *testing.B) {
	// 262144 8-byte ints = 2 MiB = 512 pages of writable globals.
	const src = `
int big[262144];
int touched;
int main(void) {
	int f = fopen("/input", "r");
	if (!f) abort();
	int c = fgetc(f);
	fclose(f);
	if (c < 0) c = 0;
	big[(c * 331) & 262143] = c + 1;
	touched++;
	return 0;
}
`
	for name, incremental := range map[string]bool{
		"incremental": true,
		"full-copy":   false,
	} {
		b.Run(name, func(b *testing.B) {
			mod, err := core.Build("dirty.c", src, core.ClosureX)
			if err != nil {
				b.Fatal(err)
			}
			v, err := vm.New(mod, vm.Options{})
			if err != nil {
				b.Fatal(err)
			}
			opts := harness.FullRestore()
			opts.IncrementalRestore = incremental
			h, err := harness.New(v, opts)
			if err != nil {
				b.Fatal(err)
			}
			if h.Incremental() != incremental {
				b.Fatalf("incremental restore armed=%v, want %v", h.Incremental(), incremental)
			}
			input := []byte{42}
			for i := 0; i < 8; i++ {
				h.RunOne(input)
			}
			before := h.Stats().GlobalBytes
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				h.RunOne(input)
			}
			b.StopTimer()
			copied := h.Stats().GlobalBytes - before
			b.ReportMetric(float64(copied)/float64(b.N), "restore-B/op")
			if err := h.Verify(); err != nil {
				b.Fatalf("restored state drifted: %v", err)
			}
		})
	}
}

// BenchmarkFigRestore breaks down the ClosureX harness's restoration cost
// (Figures 4 and 5): one leaky gpmf iteration with each restoration step
// isolated.
func BenchmarkFigRestore(b *testing.B) {
	configs := map[string]harness.Options{
		"full":         harness.FullRestore(),
		"globals-only": {RestoreGlobals: true},
		"heap-only":    {ResetHeap: true},
		"files-only":   {CloseFiles: true},
		"none":         {},
	}
	leaky := append([]byte("TMPC"), 'l', 4, 0, 1, 0, 3, 13, 64)
	for name, opts := range configs {
		opts := opts
		b.Run(name, func(b *testing.B) {
			tg := targets.Get("gpmf-parser")
			mod, err := core.Build(tg.Short+".c", tg.Source, core.ClosureX)
			if err != nil {
				b.Fatal(err)
			}
			v, err := vm.New(mod, vm.Options{})
			if err != nil {
				b.Fatal(err)
			}
			h, err := harness.New(v, opts)
			if err != nil {
				b.Fatal(err)
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				h.RunOne(leaky)
				if !opts.ResetHeap && v.Heap.LiveChunks() > 4096 {
					// Without heap restoration leaks accumulate; reset out
					// of band so the benchmark measures steady state.
					b.StopTimer()
					v.Heap.Reset()
					b.StartTimer()
				}
				if !opts.CloseFiles && v.FS.OpenCount() > 48 {
					b.StopTimer()
					for _, fd := range v.FS.LeakedFDs() {
						_ = v.FS.Close(fd)
					}
					b.StartTimer()
				}
			}
		})
	}
}

// BenchmarkAblationDeferInit measures the future-work DeferInitPass: a
// target with an expensive input-independent init phase, with the init
// re-executed per iteration vs hoisted out of the loop.
func BenchmarkAblationDeferInit(b *testing.B) {
	const src = `
int table[4096];
void closurex_init(void) {
	for (int i = 0; i < 4096; i++) table[i] = (i * 2654435761) & 0xffff;
}
int main(void) {
	closurex_init();
	int f = fopen("/input", "r");
	if (!f) abort();
	int c = fgetc(f);
	fclose(f);
	if (c < 0) c = 0;
	return table[c & 4095] & 255;
}
`
	for name, variant := range map[string]core.Variant{
		"init-per-iteration": core.ClosureX,
		"init-hoisted":       core.ClosureXDeferInit,
	} {
		b.Run(name, func(b *testing.B) {
			mod, err := core.Build("deferinit.c", src, variant)
			if err != nil {
				b.Fatal(err)
			}
			m, err := execmgr.New("closurex", execmgr.Config{Module: mod})
			if err != nil {
				b.Fatal(err)
			}
			defer m.Close()
			input := []byte{7}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				m.Execute(input)
			}
		})
	}
}

// BenchmarkCorrectnessProbe measures the §6.1.4 verification machinery
// itself: one fresh ground-truth probe plus one polluted ClosureX probe.
func BenchmarkCorrectnessProbe(b *testing.B) {
	rep, err := experiments.RunCorrectness("zlib", experiments.CorrectnessOptions{
		QueueExecs: 500, Pollution: 10, MaxCases: 2, Seed: 1,
	})
	if err != nil {
		b.Fatal(err)
	}
	if rep.DataflowMismatches != 0 {
		b.Fatal("correctness violated in benchmark setup")
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := experiments.RunCorrectness("zlib", experiments.CorrectnessOptions{
			QueueExecs: 500, Pollution: 10, MaxCases: 2, Seed: uint64(i + 2),
		}); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkFuzzerInternals tracks the shared fuzzing-loop costs that are
// identical across mechanisms (mutation and map classification).
func BenchmarkFuzzerInternals(b *testing.B) {
	b.Run("havoc", func(b *testing.B) {
		m := fuzz.NewMutator(fuzz.NewRNG(1), 4096)
		input := make([]byte, 256)
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			m.Havoc(input)
		}
	})
	b.Run("bitmap-update", func(b *testing.B) {
		bm := fuzz.NewBitmap()
		trace := make([]byte, fuzz.MapSize)
		for i := 0; i < 200; i++ {
			trace[i*13%fuzz.MapSize] = byte(i)
		}
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			trace[i%200] = 1
			bm.Update(trace)
		}
	})
}
