package core

import (
	"testing"
	"time"

	"closurex/internal/targets"
)

// TestExecuteAllocs measures testing.AllocsPerRun of one ClosureX Execute
// per target's first seed, after a warm-up that fills every scratch
// buffer, and requires zero: interpretation, the builtins and the restore
// are allocation-free. The restore also gives back the heap pages each
// iteration's allocations touched, so a target that mallocs a page or
// more per iteration takes its frames back from the free list instead of
// faulting in fresh ones as its bump pointer drifts.
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
			if got := testing.AllocsPerRun(50, func() { in.Mech.Execute(input) }); got != 0 {
				t.Errorf("%s: %v allocations per Execute, want 0", tg.Name, got)
			}
		})
	}
}

// forkServerExecuteAllocs pins the steady-state heap allocations of one
// forkserver Execute, fork to release, as AllocsPerRun reports them: the
// same on every target. Frames, page tables, the directory, register
// frames, buffers, the heap's chunk lists and the whole virtual
// filesystem (its maps, files and descriptor entries) are recycled from
// the children before (see vm.VM.Fork); what is left is the child's VM,
// Memory and Heap headers. Every target read 3 when this was pinned, 12
// before the filesystem was recycled and 32 to 52 before any recycling.
const forkServerExecuteAllocs = 3

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
