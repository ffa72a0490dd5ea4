package harness

import (
	"errors"
	"testing"

	"closurex/internal/ir"
	"closurex/internal/lower"
	"closurex/internal/passes"
	"closurex/internal/vm"
)

// readOnlySrc reads a global but never writes one: the interprocedural
// may-write set is empty, so the scoped restore has ZERO bytes to copy
// back. It still leaks a heap chunk and a descriptor every iteration —
// state the zero-range restore must keep sweeping.
const readOnlySrc = `
int cfg;

int main(void) {
	int f = fopen("/input", "r");
	if (!f) abort();
	int c = fgetc(f);
	char *leak = (char*)malloc(32);
	leak[0] = (char)c;
	return c + cfg;   // leaks f and leak
}
`

func buildElided(t *testing.T, src string) *ir.Module {
	t.Helper()
	m, err := lower.Compile("t.c", src, vm.Builtins())
	if err != nil {
		t.Fatal(err)
	}
	pm := passes.NewManager(vm.Builtins())
	pm.Add(passes.ClosureXPipeline(true)...)
	pm.Add(passes.InterprocPass{})
	pm.Add(passes.NewCoveragePass(1))
	if err := pm.Run(m); err != nil {
		t.Fatal(err)
	}
	return m
}

// TestElisionZeroLengthMayWriteSet is the degenerate-scope regression: a
// target that writes no globals elides the ENTIRE section restore (zero
// ranges, zero copy-back bytes), and everything else the harness does —
// heap sweep, fd close, watchdog, audit — keeps working around the empty
// range list.
func TestElisionZeroLengthMayWriteSet(t *testing.T) {
	m := buildElided(t, readOnlySrc)
	info := m.Interproc
	if info == nil {
		t.Fatal("InterprocPass left no metadata")
	}
	if info.WholeSection || len(info.MayWriteGlobals) != 0 {
		t.Fatalf("expected empty may-write set, got whole=%v writes=%v",
			info.WholeSection, info.MayWriteGlobals)
	}
	v, err := vm.New(m, vm.Options{})
	if err != nil {
		t.Fatal(err)
	}
	opts := FullRestore()
	opts.ElideRestore = true
	opts.AuditEvery = 4
	h, err := New(v, opts)
	if err != nil {
		t.Fatal(err)
	}
	if !h.ElisionActive() {
		t.Fatal("elision not armed on a fully-bounded module")
	}
	if h.GlobalSnapshotSize() == 0 {
		t.Fatal("closure section empty — the zero-range case is vacuous")
	}
	if n := h.ElisionRangeBytes(); n != 0 {
		t.Fatalf("ElisionRangeBytes = %d, want 0 for a read-only section", n)
	}
	for i := 0; i < 12; i++ {
		res := h.RunOne([]byte("a"))
		if res.Fault != nil {
			t.Fatalf("run %d fault: %v", i, res.Fault)
		}
		if err := h.TakeRestoreError(); err != nil {
			t.Fatalf("run %d restore: %v", i, err)
		}
		if n := h.VM().Heap.LiveChunks(); n != 0 {
			t.Fatalf("run %d: %d live chunks after zero-range restore", i, n)
		}
		if n := h.VM().FS.OpenCount(); n != 0 {
			t.Fatalf("run %d: %d open FDs after zero-range restore", i, n)
		}
	}
	if err := h.Verify(); err != nil {
		t.Fatalf("watchdog after zero-range restores: %v", err)
	}
	if err := h.Audit(); err != nil {
		t.Fatalf("explicit audit after zero-range restores: %v", err)
	}
	st := h.Stats()
	if st.GlobalBytes != 0 {
		t.Fatalf("restore copied %d global bytes; a read-only section needs none", st.GlobalBytes)
	}
	if st.AuditRuns < 3 || st.AuditFailures != 0 {
		t.Fatalf("audits = %d run / %d failed", st.AuditRuns, st.AuditFailures)
	}
	if st.ChunksFreed != 12 || st.FDsClosed != 12 {
		t.Fatalf("sweep stats = %d chunks / %d fds, want 12/12", st.ChunksFreed, st.FDsClosed)
	}

	// A dirty page is not enough: drift outside the empty scope stays
	// for the audit to find, and the restore copies nothing back.
	sec, _ := h.VM().Layout.Section(ir.SectionClosure)
	b, _ := h.VM().Mem.LoadByte(sec.Addr)
	if err := h.VM().Mem.Write(sec.Addr, []byte{b ^ 0xff}); err != nil {
		t.Fatal(err)
	}
	if err := h.Restore(); err != nil {
		t.Fatalf("restore over out-of-scope drift: %v", err)
	}
	if n := h.Stats().GlobalBytes; n != 0 {
		t.Fatalf("the empty scope copied back %d bytes", n)
	}
	if err := h.Audit(); !errors.Is(err, ErrAudit) {
		t.Fatalf("audit over out-of-scope drift = %v, want ErrAudit", err)
	}
}
