package passes

import (
	"testing"

	"closurex/internal/analysis"
	"closurex/internal/ir"
	"closurex/internal/lower"
	"closurex/internal/targets"
	"closurex/internal/vm"
)

func lookupTarget(t *testing.T, name string) *targets.Target {
	t.Helper()
	tgt := targets.Get(name)
	if tgt == nil {
		t.Fatalf("unknown target %s", name)
	}
	return tgt
}

func optCompile(t *testing.T, src string) *ir.Module {
	t.Helper()
	m, err := lower.Compile("t.c", src, vm.Builtins())
	if err != nil {
		t.Fatal(err)
	}
	return m
}

func runMain(t *testing.T, m *ir.Module) vm.Result {
	t.Helper()
	v, err := vm.New(m, vm.Options{})
	if err != nil {
		t.Fatal(err)
	}
	name := "main"
	if m.Func(name) == nil {
		name = TargetMain
	}
	return v.Call(name)
}

func countInstr(m *ir.Module, op ir.Op) int {
	n := 0
	for _, f := range m.Funcs {
		for _, b := range f.Blocks {
			for i := range b.Instrs {
				if b.Instrs[i].Op == op {
					n++
				}
			}
		}
	}
	return n
}

func TestConstFoldReducesBinOps(t *testing.T) {
	m := optCompile(t, `
int main(void) {
	int a = 2 + 3 * 4;
	int b = (a > 10) ? 100 : 200;
	return a + b - 14;
}`)
	before := countInstr(m, ir.OpBin)
	pm := NewManager(vm.Builtins())
	pm.Add(OptimizePipeline()...)
	if err := pm.Run(m); err != nil {
		t.Fatal(err)
	}
	after := countInstr(m, ir.OpBin)
	if after >= before {
		t.Fatalf("OpBin count %d -> %d; nothing folded", before, after)
	}
	if res := runMain(t, m); res.Fault != nil || res.Ret != 100 {
		t.Fatalf("optimized result = %d (%v), want 100", res.Ret, res.Fault)
	}
}

func TestConstFoldPreservesDivByZeroFault(t *testing.T) {
	m := optCompile(t, `
int main(void) {
	int z = 0;
	return 7 / z;
}`)
	pm := NewManager(vm.Builtins())
	pm.Add(OptimizePipeline()...)
	if err := pm.Run(m); err != nil {
		t.Fatal(err)
	}
	res := runMain(t, m)
	if res.Fault == nil || res.Fault.Kind != vm.FaultDivByZero {
		t.Fatalf("fault = %v, want DivByZero preserved", res.Fault)
	}
}

func TestConstBranchBecomesDeadBlock(t *testing.T) {
	m := optCompile(t, `
int main(void) {
	if (1 > 2) {
		return 111;
	}
	return 42;
}`)
	blocksBefore := m.NumBlocks()
	pm := NewManager(vm.Builtins())
	pm.Add(OptimizePipeline()...)
	if err := pm.Run(m); err != nil {
		t.Fatal(err)
	}
	if m.NumBlocks() >= blocksBefore {
		t.Fatalf("blocks %d -> %d; dead branch not removed", blocksBefore, m.NumBlocks())
	}
	if res := runMain(t, m); res.Ret != 42 {
		t.Fatalf("result = %d", res.Ret)
	}
}

func TestDeadBlockRemapsTargets(t *testing.T) {
	// Build: entry -> b3 directly, with b1/b2 dead; the surviving branch
	// targets must be remapped after compaction.
	b := ir.NewBuilder("f", 1)
	dead1 := b.NewBlock()
	dead2 := b.NewBlock()
	live := b.NewBlock()
	exit := b.NewBlock()
	b.Br(live)
	b.SetBlock(dead1)
	b.Br(dead2)
	b.SetBlock(dead2)
	b.Ret(-1)
	b.SetBlock(live)
	b.CondBr(0, exit, live)
	b.SetBlock(exit)
	b.Ret(0)
	m := ir.NewModule("t")
	_ = m.AddFunc(b.F)
	if err := (DeadBlockPass{}).Run(m); err != nil {
		t.Fatal(err)
	}
	if err := analysis.VerifyStructure(m, analysis.Builtins{}).Err(); err != nil {
		t.Fatalf("verify after dead-block removal: %v", err)
	}
	if len(b.F.Blocks) != 3 {
		t.Fatalf("blocks = %d, want 3", len(b.F.Blocks))
	}
	v, _ := vm.New(m, vm.Options{})
	if res := v.Call("f", 1); res.Fault != nil || res.Ret != 1 {
		t.Fatalf("remapped function broken: %+v", res)
	}
}

// Semantics preservation across every benchmark target: optimized and
// unoptimized builds must agree on all seeds and all planted triggers.
func TestOptimizationPreservesTargetSemantics(t *testing.T) {
	for _, name := range []string{"gpmf-parser", "zlib", "md4c", "libbpf"} {
		name := name
		t.Run(name, func(t *testing.T) {
			tgt := lookupTarget(t, name)
			plain := optCompile(t, tgt.Source)
			opt := plain.Clone()
			pm := NewManager(vm.Builtins())
			pm.Add(OptimizePipeline()...)
			if err := pm.Run(opt); err != nil {
				t.Fatal(err)
			}
			inputs := tgt.Seeds()
			for i := range tgt.Bugs {
				inputs = append(inputs, tgt.Bugs[i].Trigger)
			}
			for i, in := range inputs {
				r1 := runWith(t, plain, in)
				r2 := runWith(t, opt, in)
				if r1.Ret != r2.Ret || r1.Exited != r2.Exited ||
					(r1.Fault == nil) != (r2.Fault == nil) {
					t.Fatalf("input %d diverged: %+v vs %+v", i, r1, r2)
				}
				if r1.Fault != nil && r1.Fault.Kind != r2.Fault.Kind {
					t.Fatalf("input %d fault kind diverged: %v vs %v", i, r1.Fault, r2.Fault)
				}
			}
		})
	}
}

func runWith(t *testing.T, m *ir.Module, input []byte) vm.Result {
	t.Helper()
	v, err := vm.New(m, vm.Options{DeterministicRand: true, RandSeed: 7})
	if err != nil {
		t.Fatal(err)
	}
	v.SetInput(input)
	return v.Call("main")
}

func TestDeadCodeEliminationShrinks(t *testing.T) {
	m := optCompile(t, `
int main(void) {
	int unused = 5 * 9;
	int chain = unused + 1;
	int z = 4;
	return z;
}`)
	count := func() int {
		n := 0
		for _, f := range m.Funcs {
			for _, b := range f.Blocks {
				n += len(b.Instrs)
			}
		}
		return n
	}
	before := count()
	pm := NewManager(vm.Builtins())
	pm.Add(OptimizePipeline()...)
	if err := pm.Run(m); err != nil {
		t.Fatal(err)
	}
	if count() >= before {
		t.Fatalf("instructions %d -> %d; DCE removed nothing", before, count())
	}
	if res := runMain(t, m); res.Fault != nil || res.Ret != 4 {
		t.Fatalf("result after DCE: %+v", res)
	}
}

func TestDeadCodeKeepsFaultingOps(t *testing.T) {
	// An unused division must survive DCE (it can fault).
	m := optCompile(t, `
int main(void) {
	int z = 0;
	int unused = 9 / z;
	return 1;
}`)
	pm := NewManager(vm.Builtins())
	pm.Add(OptimizePipeline()...)
	if err := pm.Run(m); err != nil {
		t.Fatal(err)
	}
	res := runMain(t, m)
	if res.Fault == nil || res.Fault.Kind != vm.FaultDivByZero {
		t.Fatalf("DCE removed a faulting op: %+v", res)
	}
}

func TestOptimizeThenInstrumentStillVerifies(t *testing.T) {
	m := optCompile(t, sampleSrc)
	pm := NewManager(vm.Builtins())
	pm.Add(OptimizePipeline()...)
	pm.Add(ClosureXPipeline(false)...)
	pm.Add(NewCoveragePass(1))
	if err := pm.Run(m); err != nil {
		t.Fatal(err)
	}
	v, _ := vm.New(m, vm.Options{Files: map[string][]byte{"/input": []byte("x")}})
	if res := v.Call(TargetMain); res.Fault != nil || res.Ret != 21 {
		t.Fatalf("optimized+instrumented run: %+v", res)
	}
}
