package harness

import (
	"testing"

	"closurex/internal/faultinject"
	"closurex/internal/vm"
)

// newFaultyHarness builds a harness over statefulSrc on a VM with inj
// armed, which reaches the heap, the files and the harness restore steps.
func newFaultyHarness(t *testing.T, inj *faultinject.Injector) *Harness {
	t.Helper()
	m := buildInstrumented(t, statefulSrc)
	v, err := vm.New(m, vm.Options{Injector: inj})
	if err != nil {
		t.Fatal(err)
	}
	h, err := New(v, FullRestore())
	if err != nil {
		t.Fatal(err)
	}
	return h
}

func TestInjectedGlobalRestoreFailureCaughtByWatchdog(t *testing.T) {
	inj := faultinject.New(1)
	h := newFaultyHarness(t, inj)

	// Healthy iteration first: restore succeeds, watchdog is quiet.
	if res := h.RunOne([]byte("a")); res.Fault != nil {
		t.Fatalf("clean run faulted: %v", res.Fault)
	}
	if err := h.TakeRestoreError(); err != nil {
		t.Fatalf("clean run reported restore error: %v", err)
	}
	if err := h.Verify(); err != nil {
		t.Fatalf("watchdog tripped on a healthy image: %v", err)
	}

	// Now the global copy-back fails once: the iteration's result stands,
	// but the error is recorded and the polluted section is detectable.
	inj.FailAfter(faultinject.RestoreGlobals, 0, 1)
	if res := h.RunOne([]byte("b")); res.Fault != nil {
		t.Fatalf("iteration itself must not fault: %v", res.Fault)
	}
	if err := h.TakeRestoreError(); err == nil {
		t.Fatal("injected restore failure was not reported")
	}
	if err := h.Verify(); err == nil {
		t.Fatal("watchdog missed the polluted closure_global_section")
	}

	// A successful re-restore repairs the image.
	if err := h.Restore(); err != nil {
		t.Fatalf("repair restore failed: %v", err)
	}
	if err := h.Verify(); err != nil {
		t.Fatalf("watchdog still tripping after repair: %v", err)
	}
}

func TestInjectedHeapRestoreFailureLeavesDetectableChunks(t *testing.T) {
	inj := faultinject.New(2)
	h := newFaultyHarness(t, inj)

	// Fail the leaked-chunk sweep during restore ("allocation bookkeeping
	// failure during restore"): the leak from the iteration survives.
	inj.FailAfter(faultinject.RestoreHeap, 0, 1)
	if res := h.RunOne([]byte("a")); res.Fault != nil {
		t.Fatalf("iteration faulted: %v", res.Fault)
	}
	if err := h.TakeRestoreError(); err == nil {
		t.Fatal("heap restore failure not reported")
	}
	if n := h.VM().Heap.LiveChunks(); n == 0 {
		t.Fatal("expected the leaked chunk to survive the failed sweep")
	}
	if err := h.Verify(); err == nil {
		t.Fatal("watchdog missed the surviving test-case chunks")
	}
	if err := h.Restore(); err != nil {
		t.Fatalf("repair restore failed: %v", err)
	}
	if n := h.VM().Heap.LiveChunks(); n != 0 {
		t.Fatalf("%d chunks survive the repair", n)
	}
	if err := h.Verify(); err != nil {
		t.Fatalf("watchdog after repair: %v", err)
	}
}

func TestAllocationFailureMidIterationRestoresCleanly(t *testing.T) {
	inj := faultinject.New(3)
	h := newFaultyHarness(t, inj)

	// malloc fails mid-iteration: the target gets NULL, null-derefs, and
	// the sanitizer reports it — but the harness still restores a clean
	// image for the next test case.
	inj.FailAfter(faultinject.HeapAlloc, 0, 1)
	res := h.RunOne([]byte("a"))
	if res.Fault == nil || res.Fault.Kind != vm.FaultNullDeref {
		t.Fatalf("expected null deref from failed malloc, got %+v", res)
	}
	if err := h.TakeRestoreError(); err != nil {
		t.Fatalf("restore after the crash failed: %v", err)
	}
	if err := h.Verify(); err != nil {
		t.Fatalf("image dirty after crashing iteration: %v", err)
	}
	if res := h.RunOne([]byte("a")); res.Fault != nil || res.Ret != 1 {
		t.Fatalf("next iteration sees residue: %+v", res)
	}
}

func TestFDExhaustionMidIteration(t *testing.T) {
	inj := faultinject.New(4)
	h := newFaultyHarness(t, inj)

	// fopen fails as if the descriptor table were exhausted; the target
	// aborts on the NULL handle. The image must come back clean.
	inj.FailAfter(faultinject.VFSOpen, 0, 1)
	res := h.RunOne([]byte("a"))
	if res.Fault == nil || res.Fault.Kind != vm.FaultAbort {
		t.Fatalf("expected abort on failed fopen, got %+v", res)
	}
	if err := h.TakeRestoreError(); err != nil {
		t.Fatalf("restore error: %v", err)
	}
	if err := h.Verify(); err != nil {
		t.Fatalf("watchdog: %v", err)
	}
	if res := h.RunOne([]byte("a")); res.Fault != nil || res.Ret != 1 {
		t.Fatalf("recovery iteration: %+v", res)
	}
}

func TestInjectedCloseFailureLeaksDescriptorDetectably(t *testing.T) {
	inj := faultinject.New(5)
	h := newFaultyHarness(t, inj)

	// The exit path leaks the input FD; the harness tries to close it and
	// the close itself fails. The descriptor must remain visible to the
	// watchdog rather than silently vanishing from the books.
	inj.FailAfter(faultinject.VFSClose, 0, 1)
	res := h.RunOne([]byte("X")) // exit(9) path leaks the FD
	if !res.Exited {
		t.Fatalf("expected exit, got %+v", res)
	}
	if err := h.TakeRestoreError(); err == nil {
		t.Fatal("failed close not reported")
	}
	if n := h.VM().FS.OpenCount(); n != 1 {
		t.Fatalf("OpenCount = %d, want the leaked FD still live", n)
	}
	if err := h.Verify(); err == nil {
		t.Fatal("watchdog missed the leaked descriptor")
	}
	if err := h.Restore(); err != nil {
		t.Fatalf("repair restore: %v", err)
	}
	if err := h.Verify(); err != nil {
		t.Fatalf("watchdog after repair: %v", err)
	}
}

func TestDoubleRestoreAfterExitUnwindIsIdempotent(t *testing.T) {
	h := newHarness(t, statefulSrc, FullRestore())

	res := h.RunOne([]byte("X")) // exit-hook unwind; RunOne already restored
	if !res.Exited || res.ExitCode != 9 {
		t.Fatalf("expected exit(9), got %+v", res)
	}
	freed, closed := h.Stats().ChunksFreed, h.Stats().FDsClosed

	// Second restore on an already-clean image: no error, no extra work.
	if err := h.Restore(); err != nil {
		t.Fatalf("double restore errored: %v", err)
	}
	if h.Stats().ChunksFreed != freed || h.Stats().FDsClosed != closed {
		t.Fatalf("double restore repeated work: chunks %d->%d, fds %d->%d",
			freed, h.Stats().ChunksFreed, closed, h.Stats().FDsClosed)
	}
	if err := h.Verify(); err != nil {
		t.Fatalf("watchdog after double restore: %v", err)
	}
	if res := h.RunOne([]byte("a")); res.Fault != nil || res.Ret != 1 {
		t.Fatalf("iteration after double restore: %+v", res)
	}
}
