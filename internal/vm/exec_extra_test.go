package vm

import (
	"fmt"
	"testing"

	"closurex/internal/ir"
)

// Tests for interpreter internals that the main suite doesn't stress:
// register-frame pooling under recursion, budget charging in builtins,
// stack frame reuse, and snapshot semantics under CoW forks.

func TestRegisterPoolIsolationUnderRecursion(t *testing.T) {
	// ackermann-ish nest: deep recursion with live registers across calls
	// would corrupt results if pooled frames aliased.
	b := ir.NewBuilder("nest", 2)
	base := b.NewBlock()
	rec := b.NewBlock()
	b.CondBr(b.Bin(ir.Le, 0, b.Const(0)), base, rec)
	b.SetBlock(base)
	b.Ret(1) // returns register 1 (acc)
	b.SetBlock(rec)
	// r = nest(n-1, acc) + nest(n-2, acc) + n  -- registers live across
	// both calls.
	n1 := b.Call("nest", b.Bin(ir.Sub, 0, b.Const(1)), 1)
	n2 := b.Call("nest", b.Bin(ir.Sub, 0, b.Const(2)), 1)
	sum := b.Bin(ir.Add, b.Bin(ir.Add, n1, n2), 0)
	b.Ret(sum)
	m := buildModule(t, nil, b.F)
	v, _ := New(m, Options{})
	r1 := v.Call("nest", 12, 0)
	r2 := v.Call("nest", 12, 0)
	if r1.Fault != nil || r1.Ret != r2.Ret {
		t.Fatalf("recursion unstable: %d vs %d (%v)", r1.Ret, r2.Ret, r1.Fault)
	}
	// Fibonacci-like recurrence f(n)=f(n-1)+f(n-2)+n with f(<=0)=acc=0.
	model := make([]int64, 13)
	f := func(n int) int64 {
		if n <= 0 {
			return 0
		}
		return model[n]
	}
	for n := 1; n <= 12; n++ {
		model[n] = f(n-1) + f(n-2) + int64(n)
	}
	if r1.Ret != model[12] {
		t.Fatalf("nest(12) = %d, model %d", r1.Ret, model[12])
	}
}

func TestPooledFramesZeroedBetweenCalls(t *testing.T) {
	// A function that reads an uninitialized register would see garbage if
	// pooled frames weren't cleared. The builder never emits such code, so
	// hand-assemble it.
	f := &ir.Func{Name: "dirty", NumParams: 0, NumRegs: 4}
	f.Blocks = []*ir.Block{{Instrs: []ir.Instr{
		{Op: ir.OpRet, Dst: -1, A: 3, B: -1}, // return r3 without writing it
	}}}
	set := &ir.Func{Name: "setter", NumParams: 0, NumRegs: 4}
	set.Blocks = []*ir.Block{{Instrs: []ir.Instr{
		{Op: ir.OpConst, Dst: 3, A: -1, B: -1, Imm: 0x5a5a},
		{Op: ir.OpRet, Dst: -1, A: 3, B: -1},
	}}}
	m := ir.NewModule("t")
	_ = m.AddFunc(f)
	_ = m.AddFunc(set)
	v, _ := New(m, Options{})
	if r := v.Call("setter"); r.Ret != 0x5a5a {
		t.Fatalf("setter = %#x", r.Ret)
	}
	if r := v.Call("dirty"); r.Ret != 0 {
		t.Fatalf("pooled frame leaked: r3 = %#x", r.Ret)
	}
}

func TestBudgetChargedByMemoryBuiltins(t *testing.T) {
	// A loop of large memsets must hit the budget, not run forever.
	b := ir.NewBuilder("spin", 0)
	p := b.Call("malloc", b.Const(8192))
	loop := b.NewBlock()
	b.Br(loop)
	b.SetBlock(loop)
	_ = b.Call("memset", p, b.Const(0), b.Const(8192))
	b.Br(loop)
	m := buildModule(t, nil, b.F)
	v, _ := New(m, Options{Budget: 100_000})
	res := v.Call("spin")
	if res.Fault == nil || res.Fault.Kind != FaultTimeout {
		t.Fatalf("fault = %v, want Timeout", res.Fault)
	}
}

func TestFrameExhaustion(t *testing.T) {
	// A huge frame exceeds the stack segment even at shallow depth.
	b := ir.NewBuilder("big", 0)
	b.Alloca(int64(StackEnd-StackBase) + 4096)
	b.Ret(-1)
	m := buildModule(t, nil, b.F)
	v, _ := New(m, Options{})
	res := v.Call("big")
	if res.Fault == nil || res.Fault.Kind != FaultStackOverflow {
		t.Fatalf("fault = %v, want StackOverflow", res.Fault)
	}
}

func TestSnapshotGlobalsWholeImage(t *testing.T) {
	g1 := &ir.Global{Name: "a", Size: 8, Init: []byte{1}}
	g2 := &ir.Global{Name: "b", Size: 8, Init: []byte{2}, Const: true, Section: ir.SectionRodata}
	b := ir.NewBuilder("f", 0)
	b.Ret(-1)
	m := buildModule(t, []*ir.Global{g1, g2}, b.F)
	v, _ := New(m, Options{})
	snap := v.SnapshotGlobals()
	if len(snap) == 0 {
		t.Fatal("empty snapshot")
	}
	// Both initializers must be present somewhere in the image.
	found1, found2 := false, false
	for _, by := range snap {
		if by == 1 {
			found1 = true
		}
		if by == 2 {
			found2 = true
		}
	}
	if !found1 || !found2 {
		t.Fatalf("snapshot missing initializers: %v %v", found1, found2)
	}
}

func TestRestoreSectionRejectsBadInput(t *testing.T) {
	g := &ir.Global{Name: "a", Size: 8}
	b := ir.NewBuilder("f", 0)
	b.Ret(-1)
	m := buildModule(t, []*ir.Global{g}, b.F)
	v, _ := New(m, Options{})
	if v.RestoreSection("no-such-section", []byte{1}) {
		t.Fatal("restored unknown section")
	}
	if v.RestoreSection(ir.SectionData, []byte{1, 2, 3}) {
		t.Fatal("restored with wrong length")
	}
}

func TestForkInheritsHeapAndFiles(t *testing.T) {
	b := ir.NewBuilder("alloc", 0)
	p := b.Call("malloc", b.Const(64))
	b.Store(p, b.Const(77), 0, 8)
	b.Ret(p)
	read := ir.NewBuilder("read", 1)
	read.Ret(read.Load(0, 0, 8))
	m := buildModule(t, nil, b.F, read.F)
	parent, _ := New(m, Options{})
	res := parent.Call("alloc")
	if res.Fault != nil {
		t.Fatal(res.Fault)
	}
	addr := res.Ret
	child := parent.Fork()
	defer child.Release()
	// The child sees the parent's live chunk and its contents.
	if r := child.Call("read", addr); r.Fault != nil || r.Ret != 77 {
		t.Fatalf("child read = %d (%v)", r.Ret, r.Fault)
	}
	if child.Heap.LiveChunks() != 1 {
		t.Fatalf("child chunks = %d", child.Heap.LiveChunks())
	}
}

func TestCovNilMapSafe(t *testing.T) {
	// Instrumented code must run without a coverage map attached.
	b := ir.NewBuilder("f", 0)
	b.F.Blocks[0].Instrs = append([]ir.Instr{{Op: ir.OpCov, Dst: -1, A: -1, B: -1, Imm: 5}},
		b.F.Blocks[0].Instrs...)
	b.Ret(b.Const(9))
	m := buildModule(t, nil, b.F)
	v, _ := New(m, Options{}) // no CovMap
	if res := v.Call("f"); res.Fault != nil || res.Ret != 9 {
		t.Fatalf("res = %+v", res)
	}
}

func TestImagePagesMaterialized(t *testing.T) {
	b := ir.NewBuilder("f", 0)
	b.Ret(-1)
	m := buildModule(t, nil, b.F)
	v0, _ := New(m, Options{})
	v1, _ := New(m, Options{ImagePages: 64})
	if v1.Mem.Pages() < v0.Mem.Pages()+64 {
		t.Fatalf("image pages not resident: %d vs %d", v1.Mem.Pages(), v0.Mem.Pages())
	}
}

// BenchmarkImageFork times the forkserver's per-test-case step on an
// image-shaped VM: vm.Fork, then Release, of an image with md4c's 1,600
// resident ImagePages and of one with half as many. A fork copies the
// page table and takes a reference on every resident frame, so the cost
// should scale with the page count.
func BenchmarkImageFork(b *testing.B) {
	fb := ir.NewBuilder("f", 0)
	fb.Ret(-1)
	m := buildModule(b, nil, fb.F)
	for _, pages := range []int{800, 1600} {
		b.Run(fmt.Sprintf("pages=%d", pages), func(b *testing.B) {
			v, err := New(m, Options{ImagePages: pages})
			if err != nil {
				b.Fatal(err)
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				v.Fork().Release()
			}
		})
	}
}
