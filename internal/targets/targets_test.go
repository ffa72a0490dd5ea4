package targets

import (
	"testing"

	"closurex/internal/execmgr"
	"closurex/internal/fuzz"
	"closurex/internal/ir"
	"closurex/internal/lower"
	"closurex/internal/passes"
	"closurex/internal/vm"
)

// compileTarget lowers a target to pristine IR.
func compileTarget(t *testing.T, tg *Target) *ir.Module {
	t.Helper()
	m, err := lower.Compile(tg.Short+".c", tg.Source, vm.Builtins())
	if err != nil {
		t.Fatalf("%s: compile: %v", tg.Name, err)
	}
	return m
}

// freshRun executes one input in a brand-new process image.
func freshRun(t *testing.T, m *ir.Module, input []byte) vm.Result {
	t.Helper()
	v, err := vm.New(m, vm.Options{DeterministicRand: true, RandSeed: 1})
	if err != nil {
		t.Fatal(err)
	}
	v.SetInput(input)
	return v.Call("main")
}

func TestRegistryComplete(t *testing.T) {
	bench := Benchmarks()
	if len(bench) != 10 {
		t.Fatalf("benchmarks = %d, want 10 (Table 4)", len(bench))
	}
	want := map[string]bool{
		"bsdtar": true, "libpcap": true, "gpmf-parser": true, "libbpf": true,
		"freetype": true, "giftext": true, "zlib": true, "libdwarf": true,
		"c-blosc2": true, "md4c": true,
	}
	for _, tg := range bench {
		if !want[tg.Name] {
			t.Errorf("unexpected target %q", tg.Name)
		}
		delete(want, tg.Name)
		if tg.ImagePages <= 0 || tg.MaxInputLen <= 0 || tg.Source == "" {
			t.Errorf("%s: incomplete registration", tg.Name)
		}
		if Get(tg.Name) != tg || Get(tg.Short) != tg {
			t.Errorf("%s: Get lookup broken", tg.Name)
		}
	}
	if len(want) != 0 {
		t.Errorf("missing targets: %v", want)
	}
	if Get("nope") != nil {
		t.Error("Get of unknown target returned non-nil")
	}
	// Auxiliary targets resolve by name but stay out of the Table 4 set.
	sd := Get("sandefect")
	if sd == nil || !sd.Aux {
		t.Fatalf("sandefect not registered as auxiliary: %+v", sd)
	}
	if len(All()) != len(bench)+1 {
		t.Errorf("All() = %d targets, want %d benchmarks + sandefect", len(All()), len(bench))
	}
}

// The paper's 15 planted 0-day-class bugs live in the Table 4 suite; the
// auxiliary sandefect target carries its own five seeded defects on top.
func TestBugCountsMatchTable7(t *testing.T) {
	wantBugs := map[string]int{
		"c-blosc2": 4, "gpmf-parser": 6, "libbpf": 3, "md4c": 2,
	}
	total := 0
	for _, tg := range Benchmarks() {
		want := wantBugs[tg.Name]
		if len(tg.Bugs) != want {
			t.Errorf("%s: %d bugs, want %d", tg.Name, len(tg.Bugs), want)
		}
		total += len(tg.Bugs)
	}
	if total != 15 {
		t.Errorf("total planted bugs = %d, want 15 (the paper's 0-day count)", total)
	}
	if sd := Get("sandefect"); len(sd.Bugs) != 5 {
		t.Errorf("sandefect seeded defects = %d, want 5", len(sd.Bugs))
	}
}

func TestAllTargetsCompile(t *testing.T) {
	for _, tg := range All() {
		tg := tg
		t.Run(tg.Name, func(t *testing.T) {
			m := compileTarget(t, tg)
			if m.Func("main") == nil {
				t.Fatal("no main")
			}
			// And the full ClosureX pipeline applies cleanly.
			pm := passes.NewManager(vm.Builtins())
			pm.Add(passes.ClosureXPipeline(true)...)
			pm.Add(passes.NewCoveragePass(1))
			if err := pm.Run(m); err != nil {
				t.Fatalf("pipeline: %v", err)
			}
		})
	}
}

func TestSeedsRunClean(t *testing.T) {
	for _, tg := range All() {
		tg := tg
		t.Run(tg.Name, func(t *testing.T) {
			m := compileTarget(t, tg)
			seeds := tg.Seeds()
			if len(seeds) == 0 {
				t.Fatal("no seeds")
			}
			for i, s := range seeds {
				if len(s) > tg.MaxInputLen {
					t.Errorf("seed %d len %d exceeds MaxInputLen %d", i, len(s), tg.MaxInputLen)
				}
				res := freshRun(t, m, s)
				if res.Fault != nil {
					t.Errorf("seed %d faulted: %v", i, res.Fault)
				}
				if res.Exited {
					t.Errorf("seed %d exited(%d): seeds must parse", i, res.ExitCode)
				}
			}
		})
	}
}

func TestPlantedBugsFire(t *testing.T) {
	for _, tg := range All() {
		for i := range tg.Bugs {
			bug := &tg.Bugs[i]
			t.Run(bug.ID, func(t *testing.T) {
				m := compileTarget(t, tg)
				res := freshRun(t, m, bug.Trigger)
				if res.Fault == nil {
					t.Fatalf("trigger did not crash (ret=%d exited=%v)", res.Ret, res.Exited)
				}
				if res.Fault.Kind != bug.Kind {
					t.Fatalf("fault kind = %s, want %s (%v)", res.Fault.Kind, bug.Kind, res.Fault)
				}
				if res.Fault.Fn != bug.Func {
					t.Fatalf("fault in %s, want %s (%v)", res.Fault.Fn, bug.Func, res.Fault)
				}
			})
		}
	}
}

func TestBugIDsUniqueAndResolvable(t *testing.T) {
	seen := map[string]bool{}
	for _, tg := range All() {
		for i := range tg.Bugs {
			id := tg.Bugs[i].ID
			if seen[id] {
				t.Errorf("duplicate bug id %q", id)
			}
			seen[id] = true
			gotT, gotB := BugByID(id)
			if gotT != tg || gotB != &tg.Bugs[i] {
				t.Errorf("BugByID(%q) broken", id)
			}
		}
	}
	if _, b := BugByID("nope"); b != nil {
		t.Error("BugByID of unknown id returned non-nil")
	}
}

// Distinct planted bugs must triage into distinct buckets.
func TestBugTriageKeysDistinct(t *testing.T) {
	keys := map[string]string{}
	for _, tg := range All() {
		m := compileTarget(t, tg)
		for i := range tg.Bugs {
			bug := &tg.Bugs[i]
			res := freshRun(t, m, bug.Trigger)
			if res.Fault == nil {
				t.Fatalf("%s: no fault", bug.ID)
			}
			key := res.Fault.Key()
			if prev, dup := keys[key]; dup {
				t.Errorf("bugs %s and %s share triage key %s", prev, bug.ID, key)
			}
			keys[key] = bug.ID
		}
	}
}

// Targets mutate global state: running a seed twice in the same process
// without restoration must diverge somewhere (it is what makes the
// naive-persistent baseline observably wrong).
func TestTargetsHaveMutableGlobalState(t *testing.T) {
	for _, tg := range All() {
		tg := tg
		t.Run(tg.Name, func(t *testing.T) {
			m := compileTarget(t, tg)
			pm := passes.NewManager(vm.Builtins())
			pm.Add(passes.GlobalPass{})
			if err := pm.Run(m); err != nil {
				t.Fatal(err)
			}
			v, err := vm.New(m, vm.Options{DeterministicRand: true, RandSeed: 1})
			if err != nil {
				t.Fatal(err)
			}
			before, ok := v.SnapshotSection(ir.SectionClosure)
			if !ok || len(before) == 0 {
				t.Fatal("no writable globals")
			}
			v.SetInput(tg.Seeds()[0])
			if res := v.Call("main"); res.Fault != nil {
				t.Fatal(res.Fault)
			}
			after, _ := v.SnapshotSection(ir.SectionClosure)
			same := true
			for i := range before {
				if before[i] != after[i] {
					same = false
					break
				}
			}
			if same {
				t.Fatal("parsing a seed left globals untouched; target is stateless")
			}
		})
	}
}

// Clean targets must not crash under a short fuzzing smoke run; buggy
// targets may only crash with their planted triage keys.
func TestFuzzSmokeNoUnexpectedCrashes(t *testing.T) {
	if testing.Short() {
		t.Skip("fuzz smoke")
	}
	for _, tg := range All() {
		tg := tg
		t.Run(tg.Name, func(t *testing.T) {
			m := compileTarget(t, tg)
			pm := passes.NewManager(vm.Builtins())
			pm.Add(passes.ClosureXPipeline(false)...)
			pm.Add(passes.NewCoveragePass(1))
			if err := pm.Run(m); err != nil {
				t.Fatal(err)
			}
			cov := make([]byte, fuzz.MapSize)
			mech, err := execmgr.New("closurex", execmgr.Config{Module: m, Options: vm.Options{CovMap: cov}})
			if err != nil {
				t.Fatal(err)
			}
			defer mech.Close()
			c := fuzz.NewCampaign(fuzz.Config{
				Executor:    mech,
				CovMap:      cov,
				Seeds:       tg.Seeds(),
				Seed:        7,
				MaxInputLen: tg.MaxInputLen,
			})
			c.RunExecs(3000)
			allowed := map[string]bool{}
			for i := range tg.Bugs {
				res := freshRun(t, compileTarget(t, tg), tg.Bugs[i].Trigger)
				if res.Fault != nil {
					allowed[res.Fault.Key()] = true
				}
			}
			for _, cr := range c.Crashes() {
				if !allowed[cr.Key] {
					t.Errorf("unexpected crash %s (input %q)", cr.Key, cr.Input)
				}
			}
		})
	}
}
