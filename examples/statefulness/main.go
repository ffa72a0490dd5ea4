// Statefulness demonstrates why naive persistent fuzzing is incorrect and
// what the ClosureX harness restores — the narrative of the paper's
// Figures 4 and 5 plus the missed-crash / false-crash pathologies of §1.
//
//	go run ./examples/statefulness
package main

import (
	"fmt"
	"log"

	"closurex/internal/core"
	"closurex/internal/experiments"
	"closurex/internal/harness"
	"closurex/internal/passes"
	"closurex/internal/targets"
	"closurex/internal/vm"
)

func main() {
	fmt.Println("--- Figure 3: GlobalPass section transformation (md4c) ---")
	out, err := experiments.SectionTransformation("md4c")
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println(out)

	fmt.Println("--- Figures 4 & 5: what the harness restores, live ---")
	heapAndGlobalsWalkthrough()

	fmt.Println("--- Missed and false crashes under naive persistence ---")
	rep, err := experiments.RunStaleStateDemo()
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println(rep)
	if rep.Correct() {
		fmt.Println("=> naive persistent fuzzing MISSED a real crash and reported a FALSE one;")
		fmt.Println("   ClosureX caught the real crash and never false-crashed.")
	}

	fmt.Println("\n--- The spectrum: process-management cost per mechanism ---")
	rows, err := experiments.RunSpectrum(512, 300)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Print(experiments.FormatSpectrum(rows, 512))
}

// heapAndGlobalsWalkthrough drives one gpmf-parser iteration by hand and
// prints the chunk map and global section around the restore, mirroring
// the before/during/after panels of Figures 4 and 5.
func heapAndGlobalsWalkthrough() {
	t := targets.Get("gpmf-parser")
	mod, err := core.Build(t.Short+".c", t.Source, core.ClosureX)
	if err != nil {
		log.Fatal(err)
	}
	v, err := vm.New(mod, vm.Options{})
	if err != nil {
		log.Fatal(err)
	}
	h, err := harness.New(v, harness.FullRestore())
	if err != nil {
		log.Fatal(err)
	}

	snapBefore, _ := v.SnapshotSection("closure_global_section")
	fmt.Printf("before execution: %d live chunks, %d open FDs, %d global bytes snapshotted\n",
		v.Heap.LiveChunks(), v.FS.OpenCount(), len(snapBefore))

	// An input that leaks: the overheated-device early return keeps its
	// buffer and file handle.
	leaky := append([]byte("TMPC"), 'l', 4, 0, 1, 0, 3, 13, 64)
	v.SetInput(leaky)
	res := v.Call(passes.TargetMain)
	fmt.Printf("during/after target_main (ret=%d): %d live chunks, %d open FDs — the target leaked\n",
		res.Ret, v.Heap.LiveChunks(), v.FS.OpenCount())
	dirty := 0
	snapAfter, _ := v.SnapshotSection("closure_global_section")
	for i := range snapAfter {
		if snapAfter[i] != snapBefore[i] {
			dirty++
		}
	}
	fmt.Printf("global section: %d bytes modified by the test case\n", dirty)

	h.Restore()
	snapRestored, _ := v.SnapshotSection("closure_global_section")
	same := true
	for i := range snapRestored {
		if snapRestored[i] != snapBefore[i] {
			same = false
		}
	}
	fmt.Printf("after restore: %d live chunks, %d open FDs, globals identical to snapshot: %v\n",
		v.Heap.LiveChunks(), v.FS.OpenCount(), same)
	st := h.Stats()
	fmt.Printf("harness stats: freed %d chunks, closed %d FDs, copied %d global bytes\n\n",
		st.ChunksFreed, st.FDsClosed, st.GlobalBytes)
}
