package harness

import (
	"bytes"
	"testing"

	"closurex/internal/faultinject"
	"closurex/internal/ir"
	"closurex/internal/mem"
	"closurex/internal/passes"
	"closurex/internal/targets"
	"closurex/internal/vm"
)

// Tests for the global restore: it copies back only the scoped bytes on
// the pages a run dirtied, and still leaves the section exactly as the
// init snapshot has it.

// TestRestoreElisionMatchesInitSnapshot runs every registered target with
// elision off and on: after every RunOne the closure section equals the
// init snapshot byte for byte, and the restore copied back no more than
// the pages the run dirtied, nor more than its scope. A fork of the harness runs each input first,
// stopping short of the restore, to count those pages.
func TestRestoreElisionMatchesInitSnapshot(t *testing.T) {
	copied := int64(0)
	for _, tg := range targets.All() {
		m := buildElided(t, tg.Source)
		inputs := tg.Seeds()
		for _, b := range tg.Bugs {
			inputs = append(inputs, b.Trigger)
		}
		for _, in := range tg.Seeds() {
			inputs = append(inputs, in[:len(in)/2])
		}
		for _, elide := range []bool{false, true} {
			v, err := vm.New(m, vm.Options{DeterministicRand: true})
			if err != nil {
				t.Fatal(err)
			}
			opts := FullRestore()
			opts.ElideRestore = elide
			h, err := New(v, opts)
			if err != nil {
				t.Fatal(err)
			}
			if h.ElisionActive() && !elide {
				t.Fatalf("%s: elision armed without ElideRestore", tg.Name)
			}
			init, _ := v.SnapshotSection(ir.SectionClosure)
			for i, in := range inputs {
				twin := h.Fork()
				twin.VM().SetInput(in)
				twin.VM().Call(passes.TargetMain)
				dirty := int64(len(twin.VM().Mem.WatchedDirty()))
				twin.Release()

				before := h.Stats().GlobalBytes
				h.RunOne(in)
				if err := h.TakeRestoreError(); err != nil {
					t.Fatalf("%s elide=%v input %d: restore: %v", tg.Name, elide, i, err)
				}
				n := h.Stats().GlobalBytes - before
				if n > dirty*mem.PageSize || n > int64(h.ElisionRangeBytes()) {
					t.Fatalf("%s elide=%v input %d: restore copied %d bytes, the run dirtied %d pages of a %d-byte scope",
						tg.Name, elide, i, n, dirty, h.ElisionRangeBytes())
				}
				copied += n
				got, _ := h.VM().SnapshotSection(ir.SectionClosure)
				if !bytes.Equal(got, init) {
					t.Fatalf("%s elide=%v input %d: %d section bytes differ from the init snapshot",
						tg.Name, elide, i, diffBytes(got, init))
				}
			}
		}
	}
	if copied == 0 {
		t.Fatal("no restore copied a byte; the section check is vacuous")
	}
}

func TestRestoreFaultLeavesDirtySetForRetry(t *testing.T) {
	// An injected copy-back failure must not consume the dirty set: the
	// retry (Restore is idempotent) still knows which pages to repair.
	inj := faultinject.New(1)
	h := newFaultyHarness(t, inj)
	fresh, _ := h.VM().SnapshotSection(ir.SectionClosure)

	inj.FailAfter(faultinject.RestoreGlobals, 0, 1)
	if res := h.RunOne([]byte("b")); res.Fault != nil {
		t.Fatalf("iteration itself must not fault: %v", res.Fault)
	}
	if err := h.TakeRestoreError(); err == nil {
		t.Fatal("injected restore failure was not reported")
	}
	after, _ := h.VM().SnapshotSection(ir.SectionClosure)
	if bytes.Equal(fresh, after) {
		t.Fatal("section unexpectedly clean after a failed restore; fault not exercised")
	}

	// The retry must repair the image from the dirty set left behind.
	if err := h.Restore(); err != nil {
		t.Fatalf("repair restore failed: %v", err)
	}
	repaired, _ := h.VM().SnapshotSection(ir.SectionClosure)
	if !bytes.Equal(fresh, repaired) {
		t.Fatal("retry after injected failure did not restore the section")
	}
	if err := h.Verify(); err != nil {
		t.Fatalf("watchdog rejected the repaired image: %v", err)
	}
}

// fullCopyHarness is the reference the dirty-page restore is held to: a
// harness that leaves the section alone, after whose every run the test
// writes the whole init snapshot back over the closure section.
func fullCopyHarness(t *testing.T) (*Harness, []byte) {
	t.Helper()
	opts := FullRestore()
	opts.RestoreGlobals = false
	h := newHarness(t, statefulSrc, opts)
	init, _ := h.VM().SnapshotSection(ir.SectionClosure)
	return h, init
}

func TestIncrementalRestoreMatchesFullCopy(t *testing.T) {
	hFull, init := fullCopyHarness(t)
	hIncr := newHarness(t, statefulSrc, FullRestore())

	inputs := [][]byte{[]byte("a"), []byte("X"), []byte("zz"), {0}, []byte("qqq")}
	for i := 0; i < 50; i++ {
		in := inputs[i%len(inputs)]
		rf := hFull.RunOne(in)
		if !hFull.VM().RestoreSection(ir.SectionClosure, init) {
			t.Fatal("full section copy refused")
		}
		ri := hIncr.RunOne(in)
		if (rf.Fault == nil) != (ri.Fault == nil) || rf.Ret != ri.Ret || rf.ExitCode != ri.ExitCode {
			t.Fatalf("run %d diverged: full=(%v,%v,%v) incr=(%v,%v,%v)",
				i, rf.Ret, rf.ExitCode, rf.Fault, ri.Ret, ri.ExitCode, ri.Fault)
		}
		sf, _ := hFull.VM().SnapshotSection(ir.SectionClosure)
		si, _ := hIncr.VM().SnapshotSection(ir.SectionClosure)
		if !bytes.Equal(sf, si) {
			t.Fatalf("run %d: post-restore sections differ in %d bytes", i, diffBytes(sf, si))
		}
	}
	if err := hIncr.Verify(); err != nil {
		t.Fatalf("watchdog rejected the incrementally restored image: %v", err)
	}
}

func TestIncrementalRestoreCopiesFewerBytes(t *testing.T) {
	h := newHarness(t, statefulSrc, FullRestore())

	const n = 20
	for i := 0; i < n; i++ {
		h.RunOne([]byte("a"))
	}
	// statefulSrc touches a handful of globals per run; dirty-page copy-back
	// must not exceed the n whole-section copies a full restore would make,
	// and must copy something, or the restore is not running at all.
	got := h.Stats().GlobalBytes
	full := int64(n * h.GlobalSnapshotSize())
	if got == 0 {
		t.Fatal("no restore copied a byte")
	}
	if got > full {
		t.Fatalf("dirty-page restore copied %d bytes, %d full copies %d", got, n, full)
	}
}
