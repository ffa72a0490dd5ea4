package core

import (
	"testing"
	"time"

	"closurex/internal/targets"
)

// executeAllocs pins the steady-state heap allocations of one ClosureX
// Execute on each registered target's first seed, as AllocsPerRun reports
// them (the mean, rounded down). Interpretation, the builtins and the
// restore are allocation-free; the only allocation left is modelled heap
// drift. The heap is a bump allocator the harness does not rewind, so a
// target that mallocs a page or more per iteration faults in a fresh page
// frame every iteration (plus a page table every 512 pages): inflite
// measures 1.03 allocations per Execute and pins 1. tarlite drifts just
// under a page per iteration, 0.89 allocations per Execute (a frame on
// seven iterations in eight), and pins 0: it read 1 only while the page
// table was a map whose growth added allocations.
var executeAllocs = map[string]float64{
	"inflite": 1,
}

// TestExecuteAllocs measures testing.AllocsPerRun of one ClosureX Execute
// per target, after a warm-up that fills every scratch buffer, and
// requires exactly the pinned count (zero for unlisted targets).
func TestExecuteAllocs(t *testing.T) {
	for _, tg := range targets.All() {
		t.Run(tg.Short, func(t *testing.T) {
			in, err := NewInstance(noImage(tg), "closurex", InstanceOptions{TrialSeed: 1, DeterministicRand: true})
			if err != nil {
				t.Fatal(err)
			}
			defer in.Close()
			input := tg.Seeds()[0]
			for i := 0; i < 10; i++ {
				in.Mech.Execute(input)
			}
			got := testing.AllocsPerRun(50, func() { in.Mech.Execute(input) })
			if want := executeAllocs[tg.Short]; got != want {
				t.Errorf("%s: %v allocations per Execute, want %v", tg.Name, got, want)
			}
		})
	}
}

// forkServerExecuteAllocs pins the steady-state heap allocations of one
// forkserver Execute, fork to release, as AllocsPerRun reports them: the
// same on every target. Frames, page tables, the directory, register
// frames, buffers and the heap's chunk lists are recycled from the
// children before (see vm.VM.Fork); what is left is the child's VM,
// Memory and Heap headers and nine in the virtual filesystem (its clone,
// installing the input, and the target's open and close of it). Every
// target read 12 when this was pinned, against 32 to 52 before recycling.
const forkServerExecuteAllocs = 12

// TestForkServerExecuteAllocs measures testing.AllocsPerRun of one
// forkserver Execute per target, on the target's full image, after a
// warm-up that fills the free lists, and requires exactly the pinned
// count.
func TestForkServerExecuteAllocs(t *testing.T) {
	for _, tg := range targets.All() {
		t.Run(tg.Short, func(t *testing.T) {
			in, err := NewInstance(tg, "forkserver", InstanceOptions{TrialSeed: 1, DeterministicRand: true})
			if err != nil {
				t.Fatal(err)
			}
			defer in.Close()
			input := tg.Seeds()[0]
			for i := 0; i < 10; i++ {
				in.Mech.Execute(input)
			}
			got := testing.AllocsPerRun(50, func() { in.Mech.Execute(input) })
			if got != forkServerExecuteAllocs {
				t.Errorf("%s: %v allocations per forkserver Execute, want %v", tg.Name, got, forkServerExecuteAllocs)
			}
		})
	}
}

// BenchmarkInterpreterSeeds replays each target's seeds through its
// ClosureX mechanism: no mutation and no bitmap update, so it times the
// VM and the restore alone. One op runs every seed once; ns/instr divides
// the elapsed time by the instructions the seeds interpreted.
func BenchmarkInterpreterSeeds(b *testing.B) {
	for _, tg := range targets.All() {
		b.Run(tg.Short, func(b *testing.B) {
			in, err := NewInstance(noImage(tg), "closurex", InstanceOptions{TrialSeed: 1, DeterministicRand: true})
			if err != nil {
				b.Fatal(err)
			}
			defer in.Close()
			seeds := tg.Seeds()
			for _, s := range seeds {
				in.Mech.Execute(s)
			}
			var instrs int64
			b.ReportAllocs()
			b.ResetTimer()
			start := time.Now()
			for i := 0; i < b.N; i++ {
				for _, s := range seeds {
					instrs += in.Mech.Execute(s).Instrs
				}
			}
			elapsed := time.Since(start)
			if instrs > 0 {
				b.ReportMetric(float64(elapsed.Nanoseconds())/float64(instrs), "ns/instr")
			}
		})
	}
}
