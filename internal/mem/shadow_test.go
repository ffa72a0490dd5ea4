package mem

import "testing"

const (
	shBase = uint64(0x40000000)
	shEnd  = shBase + 1<<20
)

func TestShadowDefaultUnallocated(t *testing.T) {
	s := NewShadow(shBase, shEnd)
	if code, ok := s.Check(shBase, 8); ok || code != ShadowUnallocated {
		t.Fatalf("untouched heap: got (%#x,%v), want (ShadowUnallocated,false)", code, ok)
	}
	if !s.Covers(shBase) || !s.Covers(shEnd-1) || s.Covers(shEnd) || s.Covers(shBase-1) {
		t.Fatal("Covers bounds wrong")
	}
}

func TestShadowUnpoisonPartialGranule(t *testing.T) {
	s := NewShadow(shBase, shEnd)
	s.Unpoison(shBase, 13) // one full granule + 5-byte partial
	for n := 1; n <= 8; n++ {
		if _, ok := s.Check(shBase, n); !ok {
			t.Fatalf("full granule read of %d bytes rejected", n)
		}
	}
	// Bytes 8..12 valid, 13.. invalid.
	if _, ok := s.Check(shBase+8, 5); !ok {
		t.Fatal("valid partial prefix rejected")
	}
	if code, ok := s.Check(shBase+8, 6); ok || code != ShadowRedzone {
		t.Fatalf("tail overrun: got (%#x,%v), want redzone", code, ok)
	}
	if code, ok := s.Check(shBase+12, 1); !ok || code != 0 {
		t.Fatalf("last valid byte rejected (%#x,%v)", code, ok)
	}
	if _, ok := s.Check(shBase+13, 1); ok {
		t.Fatal("first invalid byte accepted")
	}
}

func TestShadowSpanningAccess(t *testing.T) {
	s := NewShadow(shBase, shEnd)
	s.Unpoison(shBase, 16)
	s.Poison(shBase+16, 16, ShadowRedzone)
	// An 8-byte access at offset 12 straddles granule 1 (valid) and granule
	// 2 (redzone): must fail with the redzone code.
	if code, ok := s.Check(shBase+12, 8); ok || code != ShadowRedzone {
		t.Fatalf("straddling access: got (%#x,%v), want redzone", code, ok)
	}
	// Straddling two valid granules passes.
	if _, ok := s.Check(shBase+4, 8); !ok {
		t.Fatal("straddle within valid span rejected")
	}
	// A spanning access whose FIRST granule is partial must fail even though
	// it begins inside the valid prefix (regression for the prefix check).
	s2 := NewShadow(shBase, shEnd)
	s2.Unpoison(shBase, 4)
	if code, ok := s2.Check(shBase+2, 8); ok || code != ShadowRedzone {
		t.Fatalf("partial-first-granule span: got (%#x,%v), want redzone", code, ok)
	}
}

func TestShadowPoisonCodesSurvive(t *testing.T) {
	s := NewShadow(shBase, shEnd)
	s.Unpoison(shBase, 32)
	s.Poison(shBase, 32, ShadowFreed)
	if code, ok := s.Check(shBase+8, 4); ok || code != ShadowFreed {
		t.Fatalf("freed granule: got (%#x,%v), want ShadowFreed", code, ok)
	}
	s.Unpoison(shBase, 32)
	if _, ok := s.Check(shBase, 8); !ok {
		t.Fatal("re-unpoisoned granule rejected")
	}
}

func TestShadowCloneIndependence(t *testing.T) {
	s := NewShadow(shBase, shEnd)
	s.Unpoison(shBase, 64)
	c := s.Clone()
	s.Poison(shBase, 64, ShadowFreed)
	if _, ok := c.Check(shBase, 8); !ok {
		t.Fatal("clone affected by original's poison")
	}
	if _, ok := s.Check(shBase, 8); ok {
		t.Fatal("original not poisoned")
	}
}

func TestShadowSnapshotRestoreDirty(t *testing.T) {
	s := NewShadow(shBase, shEnd)
	s.Unpoison(shBase, 128) // init-time state
	snap := s.Snapshot()
	if got := s.DirtyPages(); got != 0 {
		t.Fatalf("dirty pages right after snapshot: %d", got)
	}
	// Mutations on two distinct shadow pages: one existing, one that did not
	// exist at snapshot time.
	s.Poison(shBase, 64, ShadowFreed)
	farAddr := shBase + uint64(PageSize<<ShadowScale)*3
	s.Unpoison(farAddr, 32)
	if got := s.DirtyPages(); got != 2 {
		t.Fatalf("dirty pages = %d, want 2", got)
	}
	if n := s.RestoreDirty(snap); n != 2 {
		t.Fatalf("RestoreDirty restored %d pages, want 2", n)
	}
	if !s.Equal(snap) {
		t.Fatal("shadow differs from snapshot after restore")
	}
	if _, ok := s.Check(shBase, 8); !ok {
		t.Fatal("init-time unpoison lost in restore")
	}
	if code, _ := s.Check(farAddr, 8); code != ShadowUnallocated {
		t.Fatalf("snapshot-absent page not dropped: code %#x", code)
	}
	// Dirty tracking re-armed: next mutation is tracked again.
	s.Poison(shBase, 8, ShadowRedzone)
	if got := s.DirtyPages(); got != 1 {
		t.Fatalf("dirty pages after re-arm = %d, want 1", got)
	}
}

func TestShadowEqualTreatsAbsentAsUnallocated(t *testing.T) {
	s := NewShadow(shBase, shEnd)
	snap := s.Snapshot()
	// Materialize a page without changing its logical contents.
	s.Poison(shBase, 8, ShadowUnallocated)
	if !s.Equal(snap) {
		t.Fatal("all-unallocated materialized page should equal absent page")
	}
	s.Unpoison(shBase, 8)
	if s.Equal(snap) {
		t.Fatal("differing shadow reported equal")
	}
}

// TestHeapShadowIntegration drives the allocator with the shadow attached:
// allocations unpoison, redzones poison, frees quarantine-poison, and the
// quarantine snapshot/restore round-trips.
func TestHeapShadowIntegration(t *testing.T) {
	m := NewMemory()
	h := NewHeap(m, shBase, shEnd)
	h.AttachShadow()
	sh := h.Shadow()

	h.NoteSite("alpha", 10)
	a, err := h.Alloc(12)
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := sh.Check(a, 8); !ok {
		t.Fatal("allocated bytes poisoned")
	}
	if _, ok := sh.Check(a+8, 4); !ok {
		t.Fatal("allocated partial tail poisoned")
	}
	if code, ok := sh.Check(a+12, 1); ok || code != ShadowRedzone {
		t.Fatalf("tail redzone readable: (%#x,%v)", code, ok)
	}
	if code, ok := sh.Check(a+16, 8); ok || code != ShadowRedzone {
		t.Fatalf("alignment-gap redzone readable: (%#x,%v)", code, ok)
	}
	c, live := h.ChunkAt(a)
	if !live || c.AllocFn != "alpha" || c.AllocLine != 10 {
		t.Fatalf("allocation site not recorded: %+v", c)
	}

	quarBefore := h.QuarantineSnapshot()
	h.NoteSite("beta", 20)
	if err := h.Free(a); err != nil {
		t.Fatal(err)
	}
	if code, ok := sh.Check(a, 8); ok || code != ShadowFreed {
		t.Fatalf("freed chunk not poisoned: (%#x,%v)", code, ok)
	}
	q, freed := h.QuarantinedAt(a)
	if !freed || q.FreeFn != "beta" || q.FreeLine != 20 || q.AllocFn != "alpha" {
		t.Fatalf("quarantined chunk sites wrong: %+v", q)
	}
	if h.QuarantineLen() != len(quarBefore)+1 {
		t.Fatalf("quarantine len %d, want %d", h.QuarantineLen(), len(quarBefore)+1)
	}
	h.RestoreQuarantine(quarBefore)
	if h.QuarantineLen() != len(quarBefore) {
		t.Fatal("RestoreQuarantine did not roll back")
	}
	if _, freed := h.QuarantinedAt(a); freed {
		t.Fatal("freed chunk survived quarantine restore")
	}
}

// TestHeapShadowRealloc checks the shrink-in-place and move paths keep the
// shadow consistent.
func TestHeapShadowRealloc(t *testing.T) {
	m := NewMemory()
	h := NewHeap(m, shBase, shEnd)
	h.AttachShadow()
	sh := h.Shadow()
	a, err := h.Alloc(32)
	if err != nil {
		t.Fatal(err)
	}
	if err := m.Write(a, []byte("0123456789abcdef")); err != nil {
		t.Fatal(err)
	}
	// Shrink in place: tail becomes redzone.
	b, err := h.Realloc(a, 8)
	if err != nil || b != a {
		t.Fatalf("shrink: addr %#x err %v", b, err)
	}
	if _, ok := sh.Check(a, 8); !ok {
		t.Fatal("shrunk chunk head poisoned")
	}
	if code, ok := sh.Check(a+8, 8); ok || code != ShadowRedzone {
		t.Fatalf("shrunk tail not redzoned: (%#x,%v)", code, ok)
	}
	// Grow: moves; old span must be quarantine-poisoned.
	cAddr, err := h.Realloc(a, 64)
	if err != nil {
		t.Fatal(err)
	}
	if cAddr == a {
		t.Fatal("grow should have moved the chunk")
	}
	if _, ok := sh.Check(cAddr, 8); !ok {
		t.Fatal("moved chunk poisoned")
	}
	if code, ok := sh.Check(a, 8); ok || code != ShadowFreed {
		t.Fatalf("old span after move: (%#x,%v), want freed", code, ok)
	}
}

// BenchmarkShadowIteration is one persistent iteration's shadow work on a
// page the snapshot lacks: an allocation unpoisons into it, and the
// restore rolls it back to absent.
func BenchmarkShadowIteration(b *testing.B) {
	s := NewShadow(shBase, shEnd)
	s.Unpoison(shBase, 64) // init-time chunk on the first page
	snap := s.Snapshot()
	addr := shBase + uint64(PageSize<<ShadowScale)*5
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s.Unpoison(addr, 100)
		s.Poison(addr+104, 24, ShadowRedzone)
		s.RestoreDirty(snap)
	}
}
