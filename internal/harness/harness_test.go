package harness

import (
	"bytes"
	"testing"

	"closurex/internal/ir"
	"closurex/internal/lower"
	"closurex/internal/passes"
	"closurex/internal/vm"
)

// statefulSrc mutates globals, leaks heap chunks and file handles, and
// exits on a magic byte — one of everything the harness must undo.
const statefulSrc = `
int runs;
int last_byte;
char scratch[32];

int main(void) {
	runs++;
	int f = fopen("/input", "r");
	if (!f) abort();
	int c = fgetc(f);
	last_byte = c;
	scratch[runs % 32] = (char)c;
	char *leak = (char*)malloc(64);
	leak[0] = (char)c;
	if (c == 'X') exit(9);     // leaks f and leak
	char *tmp = (char*)malloc(16);
	free(tmp);
	fclose(f);
	return runs;
}
`

func buildInstrumented(t *testing.T, src string) *ir.Module {
	t.Helper()
	m, err := lower.Compile("t.c", src, vm.Builtins())
	if err != nil {
		t.Fatal(err)
	}
	pm := passes.NewManager(vm.Builtins())
	pm.Add(passes.ClosureXPipeline(true)...)
	pm.Add(passes.NewCoveragePass(1))
	if err := pm.Run(m); err != nil {
		t.Fatal(err)
	}
	return m
}

func newHarness(t *testing.T, src string, opts Options) *Harness {
	t.Helper()
	m := buildInstrumented(t, src)
	v, err := vm.New(m, vm.Options{})
	if err != nil {
		t.Fatal(err)
	}
	h, err := New(v, opts)
	if err != nil {
		t.Fatal(err)
	}
	return h
}

func TestGlobalsRestoredBetweenRuns(t *testing.T) {
	h := newHarness(t, statefulSrc, FullRestore())
	for i := 0; i < 5; i++ {
		res := h.RunOne([]byte("a"))
		if res.Fault != nil {
			t.Fatalf("run %d fault: %v", i, res.Fault)
		}
		// runs is restored to 0 before each run, so main returns 1 always.
		if res.Ret != 1 {
			t.Fatalf("run %d returned %d; global state leaked across runs", i, res.Ret)
		}
	}
}

func TestWithoutGlobalRestoreStateLeaks(t *testing.T) {
	opts := FullRestore()
	opts.RestoreGlobals = false
	h := newHarness(t, statefulSrc, opts)
	if res := h.RunOne([]byte("a")); res.Ret != 1 {
		t.Fatalf("first run = %d", res.Ret)
	}
	if res := h.RunOne([]byte("a")); res.Ret != 2 {
		t.Fatalf("second run = %d; expected stale-state increment", res.Ret)
	}
}

func TestHeapChunksReclaimed(t *testing.T) {
	h := newHarness(t, statefulSrc, FullRestore())
	for i := 0; i < 10; i++ {
		h.RunOne([]byte("a"))
		if n := h.VM().Heap.LiveChunks(); n != 0 {
			t.Fatalf("run %d: %d live chunks after restore", i, n)
		}
	}
	if h.Stats().ChunksFreed != 10 {
		t.Fatalf("ChunksFreed = %d, want 10 (one leak per run)", h.Stats().ChunksFreed)
	}
}

func TestFDsClosedOnExitPath(t *testing.T) {
	h := newHarness(t, statefulSrc, FullRestore())
	for i := 0; i < 200; i++ { // far beyond the FD limit
		res := h.RunOne([]byte("X"))
		if !res.Exited || res.ExitCode != 9 {
			t.Fatalf("run %d: %+v, want exit(9)", i, res)
		}
		if n := h.VM().FS.OpenCount(); n != 0 {
			t.Fatalf("run %d: %d open FDs after restore", i, n)
		}
	}
	st := h.Stats()
	if st.ExitsUnwound != 200 || st.FDsClosed != 200 {
		t.Fatalf("stats = %+v", st)
	}
}

func TestWithoutFileCleanupFDsExhaust(t *testing.T) {
	opts := FullRestore()
	opts.CloseFiles = false
	m := buildInstrumented(t, statefulSrc)
	v, err := vm.New(m, vm.Options{})
	if err != nil {
		t.Fatal(err)
	}
	v.FS.SetFDLimit(8)
	h, err := New(v, opts)
	if err != nil {
		t.Fatal(err)
	}
	sawAbort := false
	for i := 0; i < 20; i++ {
		res := h.RunOne([]byte("X")) // exit path leaks the FD
		if res.Fault != nil && res.Fault.Kind == vm.FaultAbort {
			sawAbort = true
			break
		}
	}
	if !sawAbort {
		t.Fatal("FD exhaustion never produced the false crash")
	}
}

func TestSnapshotMatchesFreshAfterManyRuns(t *testing.T) {
	// Dataflow-equivalence style check: state after N polluted iterations +
	// restore equals the state a brand-new harness starts from.
	h := newHarness(t, statefulSrc, FullRestore())
	fresh, ok := h.VM().SnapshotSection(ir.SectionClosure)
	if !ok {
		t.Fatal("no closure section")
	}
	inputs := [][]byte{[]byte("a"), []byte("X"), []byte("zz"), {0}, []byte("qqq")}
	for i := 0; i < 100; i++ {
		h.RunOne(inputs[i%len(inputs)])
	}
	after, _ := h.VM().SnapshotSection(ir.SectionClosure)
	if !bytes.Equal(fresh, after) {
		t.Fatal("closure section drifted despite restoration")
	}
}

func TestDeferredInitRunsOnceAndPersists(t *testing.T) {
	src := `
int table[4];
int inits;
void closurex_init(void) {
	inits++;
	for (int i = 0; i < 4; i++) table[i] = (i + 1) * 10;
}
int main(void) {
	closurex_init();
	return table[3] + inits;
}
`
	h := newHarness(t, src, FullRestore())
	// DeferInitPass removed the call from main; the harness ran init once.
	// The snapshot was taken after init, so table persists across runs.
	for i := 0; i < 3; i++ {
		res := h.RunOne(nil)
		if res.Fault != nil {
			t.Fatal(res.Fault)
		}
		if res.Ret != 41 {
			t.Fatalf("run %d = %d, want 41 (table[3]=40 + inits=1)", i, res.Ret)
		}
	}
}

func TestInitFDRewoundNotClosed(t *testing.T) {
	src := `
int cfg_first;
void closurex_init(void) {
	int f = fopen("/config", "r");
	if (!f) abort();
	cfg_first = fgetc(f);
	// deliberately left open: an initialization-time handle
}
int cfg_fd_probe(void) {
	return 0;
}
int main(void) {
	return cfg_first;
}
`
	m := buildInstrumented(t, src)
	v, err := vm.New(m, vm.Options{Files: map[string][]byte{"/config": []byte("C")}})
	if err != nil {
		t.Fatal(err)
	}
	h, err := New(v, FullRestore())
	if err != nil {
		t.Fatal(err)
	}
	if got := v.FS.OpenCount(); got != 1 {
		t.Fatalf("init FD count = %d", got)
	}
	for i := 0; i < 5; i++ {
		res := h.RunOne(nil)
		if res.Fault != nil || res.Ret != 'C' {
			t.Fatalf("run %d: ret=%d fault=%v", i, res.Ret, res.Fault)
		}
		if got := v.FS.OpenCount(); got != 1 {
			t.Fatalf("init FD closed: count = %d", got)
		}
	}
	if h.Stats().FDsRewound != 5 {
		t.Fatalf("FDsRewound = %d", h.Stats().FDsRewound)
	}
}

func TestHarnessRequiresInstrumentedModule(t *testing.T) {
	m, err := lower.Compile("t.c", "int main(void) { return 0; }", vm.Builtins())
	if err != nil {
		t.Fatal(err)
	}
	v, _ := vm.New(m, vm.Options{})
	if _, err := New(v, FullRestore()); err == nil {
		t.Fatal("harness accepted un-renamed module")
	}
}

func TestGlobalSnapshotSizeReported(t *testing.T) {
	h := newHarness(t, statefulSrc, FullRestore())
	// runs(8) + last_byte(8) + scratch(32) = 48, padded per layout rules.
	if h.GlobalSnapshotSize() < 48 {
		t.Fatalf("snapshot size = %d, want >= 48", h.GlobalSnapshotSize())
	}
	if h.Stats().GlobalBytes != 0 {
		t.Fatal("GlobalBytes counted before any run")
	}
	h.RunOne(nil)
	if h.Stats().GlobalBytes != int64(h.GlobalSnapshotSize()) {
		t.Fatalf("GlobalBytes = %d", h.Stats().GlobalBytes)
	}
}
