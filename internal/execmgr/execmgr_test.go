package execmgr

import (
	"strings"
	"testing"

	"closurex/internal/ir"
	"closurex/internal/lower"
	"closurex/internal/passes"
	"closurex/internal/vm"
)

// statefulSrc returns 100*runs + first input byte; leaks a chunk and an FD
// when the first byte is 'L'; crashes (null deref) when it is 'C'; exits
// when it is 'E'.
const statefulSrc = `
int runs;
int main(void) {
	runs++;
	int f = fopen("/input", "r");
	if (!f) abort();
	int c = fgetc(f);
	if (c < 0) c = 0;
	if (c == 'C') {
		int *p = 0;
		return *p;
	}
	if (c == 'E') exit(5);
	if (c == 'L') {
		char *leak = (char*)malloc(32);
		leak[0] = 1;
		return 100 * runs + c;
	}
	fclose(f);
	return 100 * runs + c;
}
`

// buildModule compiles src with the pipeline appropriate for mechanism.
func buildModule(t testing.TB, src string, closureX bool) *ir.Module {
	t.Helper()
	m, err := lower.Compile("t.c", src, vm.Builtins())
	if err != nil {
		t.Fatal(err)
	}
	pm := passes.NewManager(vm.Builtins())
	if closureX {
		pm.Add(passes.ClosureXPipeline(false)...)
		pm.Add(passes.NewCoveragePass(1))
	} else {
		pm.Add(passes.RenameMainPass{}, passes.NewCoveragePass(1))
	}
	if err := pm.Run(m); err != nil {
		t.Fatal(err)
	}
	return m
}

func newMech(t *testing.T, name, src string) Mechanism {
	t.Helper()
	m := buildModule(t, src, name == "closurex")
	mech, err := New(name, Config{Module: m})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(mech.Close)
	return mech
}

func TestUnknownMechanism(t *testing.T) {
	if _, err := New("warp-drive", Config{}); err == nil {
		t.Fatal("unknown mechanism accepted")
	}
	// The resilience ladder is an option of the closurex mechanism, not a
	// mechanism name of its own.
	m := buildModule(t, statefulSrc, true)
	if _, err := New("closurex-resilient", Config{Module: m}); err == nil || !strings.Contains(err.Error(), "unknown mechanism") {
		t.Fatalf("New(closurex-resilient) = %v, want an unknown-mechanism error", err)
	}
}

func TestRequiresInstrumentedModule(t *testing.T) {
	m, _ := lower.Compile("t.c", "int main(void) { return 0; }", vm.Builtins())
	for _, name := range Names() {
		if _, err := New(name, Config{Module: m}); err == nil {
			t.Errorf("%s accepted module without target_main", name)
		}
	}
}

func TestClosureXRejectsUnhookedExit(t *testing.T) {
	m := buildModule(t, statefulSrc, false) // coverage-only: exit not hooked
	if _, err := NewClosureX(Config{Module: m}); err == nil {
		t.Fatal("ClosureX accepted module with raw exit calls")
	}
}

// Correct mechanisms must make every execution look like the first:
// runs == 1 every time.
func TestIsolationOfCorrectMechanisms(t *testing.T) {
	for _, name := range []string{"fresh", "forkserver", "snapshot-lkm", "closurex"} {
		t.Run(name, func(t *testing.T) {
			mech := newMech(t, name, statefulSrc)
			for i := 0; i < 10; i++ {
				res := mech.Execute([]byte("a"))
				if res.Fault != nil {
					t.Fatalf("exec %d fault: %v", i, res.Fault)
				}
				if res.Ret != 100+'a' {
					t.Fatalf("exec %d = %d, want %d (stale state?)", i, res.Ret, 100+'a')
				}
			}
			if mech.Execs() != 10 {
				t.Fatalf("Execs = %d", mech.Execs())
			}
		})
	}
}

// The naive persistent mechanism must exhibit the stale-state pathology.
func TestNaivePersistentLeaksState(t *testing.T) {
	mech := newMech(t, "persistent-naive", statefulSrc)
	r1 := mech.Execute([]byte("a"))
	r2 := mech.Execute([]byte("a"))
	if r1.Ret != 100+'a' {
		t.Fatalf("first exec = %d", r1.Ret)
	}
	if r2.Ret != 200+'a' {
		t.Fatalf("second exec = %d, want stale-state %d", r2.Ret, 200+'a')
	}
}

func TestNaivePersistentRecyclesOnExitAndCrash(t *testing.T) {
	mech := newMech(t, "persistent-naive", statefulSrc)
	base := mech.Spawns()
	res := mech.Execute([]byte("E"))
	if !res.Exited || res.ExitCode != 5 {
		t.Fatalf("res = %+v", res)
	}
	if mech.Spawns() != base+1 {
		t.Fatalf("no respawn after exit: %d", mech.Spawns())
	}
	// After recycling, state is fresh again.
	if r := mech.Execute([]byte("a")); r.Ret != 100+'a' {
		t.Fatalf("after respawn = %d", r.Ret)
	}
	res = mech.Execute([]byte("C"))
	if res.Fault == nil || res.Fault.Kind != vm.FaultNullDeref {
		t.Fatalf("crash input: %+v", res)
	}
	if r := mech.Execute([]byte("a")); r.Ret != 100+'a' {
		t.Fatalf("after crash respawn = %d", r.Ret)
	}
}

func TestNaivePersistentRestartEvery(t *testing.T) {
	m := buildModule(t, statefulSrc, false)
	mech, err := New("persistent-naive", Config{Module: m, RestartEvery: 3})
	if err != nil {
		t.Fatal(err)
	}
	defer mech.Close()
	// Pattern: 1,2,3 then recycle, 1,2,3, ...
	want := []int64{1, 2, 3, 1, 2, 3, 1}
	for i, w := range want {
		res := mech.Execute([]byte("a"))
		if res.Ret != 100*w+'a' {
			t.Fatalf("exec %d = %d, want %d", i, res.Ret, 100*w+'a')
		}
	}
}

func TestCrashDetectionAcrossMechanisms(t *testing.T) {
	for _, name := range Names() {
		t.Run(name, func(t *testing.T) {
			mech := newMech(t, name, statefulSrc)
			res := mech.Execute([]byte("C"))
			if res.Fault == nil || res.Fault.Kind != vm.FaultNullDeref {
				t.Fatalf("fault = %v, want NullDeref", res.Fault)
			}
			// The mechanism survives the crash and keeps executing.
			res = mech.Execute([]byte("b"))
			if res.Fault != nil || res.Ret != 100+'b' {
				t.Fatalf("post-crash exec: %+v", res)
			}
		})
	}
}

func TestClosureXSingleProcessAcrossManyExecs(t *testing.T) {
	mech := newMech(t, "closurex", statefulSrc)
	for i := 0; i < 500; i++ {
		in := []byte("L") // leaks a chunk and an FD every run
		if res := mech.Execute(in); res.Fault != nil {
			t.Fatalf("exec %d fault: %v", i, res.Fault)
		}
	}
	if mech.Spawns() != 1 {
		t.Fatalf("Spawns = %d, want 1 (single process for the campaign)", mech.Spawns())
	}
	cx := mech.(*ClosureX)
	if got := cx.Harness().VM().Heap.LiveChunks(); got != 0 {
		t.Fatalf("live chunks after campaign: %d", got)
	}
	if got := cx.Harness().VM().FS.OpenCount(); got != 0 {
		t.Fatalf("open FDs after campaign: %d", got)
	}
}

func TestForkServerSpawnAccounting(t *testing.T) {
	mech := newMech(t, "forkserver", statefulSrc)
	for i := 0; i < 7; i++ {
		mech.Execute([]byte("a"))
	}
	// 1 template + 7 children.
	if mech.Spawns() != 8 {
		t.Fatalf("Spawns = %d, want 8", mech.Spawns())
	}
}

func TestFreshSpawnAccounting(t *testing.T) {
	mech := newMech(t, "fresh", statefulSrc)
	for i := 0; i < 5; i++ {
		mech.Execute([]byte("a"))
	}
	if mech.Spawns() != 5 || mech.Execs() != 5 {
		t.Fatalf("Spawns=%d Execs=%d", mech.Spawns(), mech.Execs())
	}
}

func TestCoverageFlowsThroughMechanisms(t *testing.T) {
	for _, name := range Names() {
		t.Run(name, func(t *testing.T) {
			m := buildModule(t, statefulSrc, name == "closurex")
			cov := make([]byte, 1<<16)
			mech, err := New(name, Config{Module: m, Options: vm.Options{CovMap: cov}})
			if err != nil {
				t.Fatal(err)
			}
			defer mech.Close()
			mech.Execute([]byte("a"))
			nonzero := 0
			for _, c := range cov {
				if c != 0 {
					nonzero++
				}
			}
			if nonzero == 0 {
				t.Fatal("no coverage recorded")
			}
		})
	}
}

// Differential check: for inputs that do not crash, all three correct
// mechanisms agree on the result, and ClosureX agrees with fresh-process
// execution even after many intervening runs.
func TestMechanismEquivalence(t *testing.T) {
	freshM := newMech(t, "fresh", statefulSrc)
	forkM := newMech(t, "forkserver", statefulSrc)
	cxM := newMech(t, "closurex", statefulSrc)
	inputs := [][]byte{[]byte("a"), []byte("z"), []byte("L"), []byte("E"), {}, {0x7f}}
	for _, in := range inputs {
		rf := freshM.Execute(in)
		rk := forkM.Execute(in)
		rc := cxM.Execute(in)
		if rf.Ret != rk.Ret || rf.Ret != rc.Ret ||
			rf.Exited != rc.Exited || rf.ExitCode != rc.ExitCode {
			t.Fatalf("divergence on %q: fresh=%+v fork=%+v closurex=%+v", in, rf, rk, rc)
		}
	}
}

// Throughput shape: ClosureX must beat the forkserver, which must beat
// fresh-process execution, on a realistic image size.
func TestThroughputOrdering(t *testing.T) {
	if testing.Short() {
		t.Skip("throughput comparison")
	}
	const pages = 512 // ~2 MiB image, mid-range for Table 4
	timeN := func(name string, n int) float64 {
		m := buildModule(t, statefulSrc, name == "closurex")
		mech, err := New(name, Config{Module: m, Options: vm.Options{ImagePages: pages}})
		if err != nil {
			t.Fatal(err)
		}
		defer mech.Close()
		start := nowNs()
		for i := 0; i < n; i++ {
			mech.Execute([]byte("a"))
		}
		return float64(nowNs()-start) / float64(n)
	}
	const n = 300
	fresh := timeN("fresh", n)
	fork := timeN("forkserver", n)
	cx := timeN("closurex", n)
	t.Logf("ns/exec: fresh=%.0f forkserver=%.0f closurex=%.0f", fresh, fork, cx)
	if !(cx < fork && fork < fresh) {
		t.Fatalf("ordering violated: fresh=%.0f fork=%.0f closurex=%.0f", fresh, fork, cx)
	}
}
