package execmgr

import (
	"testing"

	"closurex/internal/mem"
	"closurex/internal/vm"
)

func TestSnapshotRestoresEverything(t *testing.T) {
	mech := newMech(t, "snapshot-lkm", statefulSrc)
	s := mech.(*SnapshotLKM)
	for i := 0; i < 50; i++ {
		// Alternate leaky, exiting and benign inputs; the snapshot restore
		// must erase all of it.
		for _, in := range []string{"L", "E", "a"} {
			res := mech.Execute([]byte(in))
			if res.Fault != nil {
				t.Fatalf("iter %d/%s: %v", i, in, res.Fault)
			}
			if in == "a" && res.Ret != 100+'a' {
				t.Fatalf("iter %d: stale state: %d", i, res.Ret)
			}
		}
		if got := s.child.Heap.LiveChunks(); got != 0 {
			t.Fatalf("iter %d: %d chunks survived restore", i, got)
		}
		if got := s.child.FS.OpenCount(); got != 0 {
			t.Fatalf("iter %d: %d FDs survived restore", i, got)
		}
	}
	// Exactly one template + one snapshot child for the whole run.
	if mech.Spawns() != 2 {
		t.Fatalf("Spawns = %d, want 2", mech.Spawns())
	}
	if s.DirtyPagesPerExec() <= 0 {
		t.Fatal("dirty-page accounting missing")
	}
}

func TestSnapshotDirtyPagesBounded(t *testing.T) {
	// The point of page-granular snapshotting: restore cost tracks what
	// the test case touched, not the image size.
	m := buildModule(t, statefulSrc, false)
	mech, err := New("snapshot-lkm", Config{Module: m, Options: vm.Options{ImagePages: 2048}})
	if err != nil {
		t.Fatal(err)
	}
	defer mech.Close()
	s := mech.(*SnapshotLKM)
	for i := 0; i < 20; i++ {
		mech.Execute([]byte("a"))
	}
	if avg := s.DirtyPagesPerExec(); avg > 64 {
		t.Fatalf("dirty pages per exec = %.1f — restore cost scales with image size?", avg)
	}
}

func TestSnapshotChildSharesCleanPagesAfterRestore(t *testing.T) {
	mech := newMech(t, "snapshot-lkm", statefulSrc)
	s := mech.(*SnapshotLKM)
	mech.Execute([]byte("a"))
	// After restore, the child must not hold private copies: page counts
	// return to the forked state and no dirty entries remain.
	if s.child.Mem.DirtyPages() != 0 {
		t.Fatalf("dirty list not drained: %d", s.child.Mem.DirtyPages())
	}
	if got, want := s.child.Mem.Pages(), s.template.Mem.Pages(); got > want {
		t.Fatalf("child kept extra pages after restore: %d > %d", got, want)
	}
}

func TestMemRestoreToModel(t *testing.T) {
	parent := mem.NewMemory()
	base := uint64(0x20000)
	if err := parent.Write(base, []byte("snapshot-content-123")); err != nil {
		t.Fatal(err)
	}
	child := parent.Fork()
	defer child.Release()
	child.TrackDirty(true)
	// Dirty a shared page, map a brand-new page, then restore.
	if err := child.Write(base, []byte("OVERWRITTEN")); err != nil {
		t.Fatal(err)
	}
	if err := child.Write(base+1024*mem.PageSize, []byte("new page")); err != nil {
		t.Fatal(err)
	}
	if child.DirtyPages() != 2 {
		t.Fatalf("dirty = %d, want 2", child.DirtyPages())
	}
	child.RestoreTo(parent)
	got, _ := child.Read(base, 20)
	if string(got) != "snapshot-content-123" {
		t.Fatalf("restore failed: %q", got)
	}
	got, _ = child.Read(base+1024*mem.PageSize, 8)
	for _, b := range got {
		if b != 0 {
			t.Fatalf("new page survived restore: %q", got)
		}
	}
	// Parent untouched throughout.
	got, _ = parent.Read(base, 20)
	if string(got) != "snapshot-content-123" {
		t.Fatalf("parent corrupted: %q", got)
	}
}
