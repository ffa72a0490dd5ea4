package vm

import (
	"testing"
	"testing/quick"

	"closurex/internal/analysis"
	"closurex/internal/ir"
)

// buildModule wraps fns into a verified module.
func buildModule(t testing.TB, globals []*ir.Global, fns ...*ir.Func) *ir.Module {
	t.Helper()
	m := ir.NewModule("test")
	for _, g := range globals {
		m.AddGlobal(g)
	}
	for _, f := range fns {
		if err := m.AddFunc(f); err != nil {
			t.Fatal(err)
		}
	}
	if err := analysis.VerifyStructure(m, analysis.NewBuiltins(Builtins())).Err(); err != nil {
		t.Fatalf("Verify: %v", err)
	}
	return m
}

func run(t *testing.T, m *ir.Module, fn string, args ...int64) Result {
	t.Helper()
	v, err := New(m, Options{})
	if err != nil {
		t.Fatal(err)
	}
	return v.Call(fn, args...)
}

func TestArithmetic(t *testing.T) {
	cases := []struct {
		op   ir.BinOp
		a, b int64
		want int64
	}{
		{ir.Add, 2, 3, 5},
		{ir.Sub, 2, 3, -1},
		{ir.Mul, -4, 6, -24},
		{ir.Div, 7, 2, 3},
		{ir.Div, -7, 2, -3},
		{ir.Div, -9223372036854775808, -1, -9223372036854775808},
		{ir.Rem, 7, 3, 1},
		{ir.Rem, -7, 3, -1},
		{ir.Rem, -9223372036854775808, -1, 0},
		{ir.Shl, 1, 4, 16},
		{ir.Shr, -8, 1, -4},
		{ir.Shl, 1, 64 + 2, 4}, // count masked to 6 bits
		{ir.And, 0b1100, 0b1010, 0b1000},
		{ir.Or, 0b1100, 0b1010, 0b1110},
		{ir.Xor, 0b1100, 0b1010, 0b0110},
		{ir.Eq, 4, 4, 1},
		{ir.Ne, 4, 4, 0},
		{ir.Lt, -1, 0, 1},
		{ir.Le, 0, 0, 1},
		{ir.Gt, 1, 2, 0},
		{ir.Ge, 2, 2, 1},
		{ir.Ult, -1, 0, 0}, // unsigned: max > 0
		{ir.Ugt, -1, 0, 1},
		{ir.Ule, 1, 1, 1},
		{ir.Uge, 0, -1, 0},
	}
	for _, c := range cases {
		b := ir.NewBuilder("f", 2)
		b.Ret(b.Bin(c.op, 0, 1))
		m := buildModule(t, nil, b.F)
		res := run(t, m, "f", c.a, c.b)
		if res.Fault != nil {
			t.Errorf("%s(%d,%d): fault %v", c.op, c.a, c.b, res.Fault)
			continue
		}
		if res.Ret != c.want {
			t.Errorf("%s(%d,%d) = %d, want %d", c.op, c.a, c.b, res.Ret, c.want)
		}
	}
}

func TestUnaryOps(t *testing.T) {
	cases := []struct {
		op      ir.UnOp
		a, want int64
	}{
		{ir.Neg, 5, -5}, {ir.Not, 0, 1}, {ir.Not, 7, 0}, {ir.BNot, 0, -1},
	}
	for _, c := range cases {
		b := ir.NewBuilder("f", 1)
		b.Ret(b.Un(c.op, 0))
		m := buildModule(t, nil, b.F)
		if res := run(t, m, "f", c.a); res.Ret != c.want {
			t.Errorf("%s(%d) = %d, want %d", c.op, c.a, res.Ret, c.want)
		}
	}
}

func TestDivByZeroFaults(t *testing.T) {
	for _, op := range []ir.BinOp{ir.Div, ir.Rem} {
		b := ir.NewBuilder("f", 2)
		b.Ret(b.Bin(op, 0, 1))
		m := buildModule(t, nil, b.F)
		res := run(t, m, "f", 10, 0)
		if res.Fault == nil || res.Fault.Kind != FaultDivByZero {
			t.Errorf("%s by zero: fault = %v, want DivByZero", op, res.Fault)
		}
	}
}

func TestControlFlowLoop(t *testing.T) {
	// sum 1..n via a loop: tests CondBr, Br, Mov.
	b := ir.NewBuilder("sum", 1)
	sum := b.Const(0)
	i := b.Const(1)
	header := b.NewBlock()
	body := b.NewBlock()
	exit := b.NewBlock()
	b.Br(header)
	b.SetBlock(header)
	b.CondBr(b.Bin(ir.Le, i, 0), body, exit)
	b.SetBlock(body)
	b.Mov(sum, b.Bin(ir.Add, sum, i))
	b.Mov(i, b.Bin(ir.Add, i, b.Const(1)))
	b.Br(header)
	b.SetBlock(exit)
	b.Ret(sum)
	m := buildModule(t, nil, b.F)
	if res := run(t, m, "sum", 10); res.Ret != 55 {
		t.Fatalf("sum(10) = %d, want 55", res.Ret)
	}
}

func TestRecursionAndCalls(t *testing.T) {
	// fib(n) recursive.
	b := ir.NewBuilder("fib", 1)
	rec := b.NewBlock()
	base := b.NewBlock()
	b.CondBr(b.Bin(ir.Lt, 0, b.Const(2)), base, rec)
	b.SetBlock(base)
	b.Ret(0)
	b.SetBlock(rec)
	f1 := b.Call("fib", b.Bin(ir.Sub, 0, b.Const(1)))
	f2 := b.Call("fib", b.Bin(ir.Sub, 0, b.Const(2)))
	b.Ret(b.Bin(ir.Add, f1, f2))
	m := buildModule(t, nil, b.F)
	if res := run(t, m, "fib", 15); res.Ret != 610 {
		t.Fatalf("fib(15) = %d, want 610", res.Ret)
	}
}

func TestStackOverflowDepth(t *testing.T) {
	b := ir.NewBuilder("inf", 1)
	b.Ret(b.Call("inf", 0))
	m := buildModule(t, nil, b.F)
	res := run(t, m, "inf", 0)
	if res.Fault == nil || res.Fault.Kind != FaultStackOverflow {
		t.Fatalf("fault = %v, want StackOverflow", res.Fault)
	}
}

func TestTimeoutBudget(t *testing.T) {
	b := ir.NewBuilder("spin", 0)
	loop := b.NewBlock()
	b.Br(loop)
	b.SetBlock(loop)
	b.Br(loop)
	m := buildModule(t, nil, b.F)
	v, err := New(m, Options{Budget: 1000})
	if err != nil {
		t.Fatal(err)
	}
	res := v.Call("spin")
	if res.Fault == nil || res.Fault.Kind != FaultTimeout {
		t.Fatalf("fault = %v, want Timeout", res.Fault)
	}
}

func TestFrameLocalsLoadStore(t *testing.T) {
	// store 0xAB into a local array byte and read it back.
	b := ir.NewBuilder("f", 0)
	off := b.Alloca(16)
	addr := b.FrameAddr(off)
	b.Store(addr, b.Const(0xAB), 3, 1)
	b.Ret(b.Load(addr, 3, 1))
	m := buildModule(t, nil, b.F)
	if res := run(t, m, "f"); res.Ret != 0xAB {
		t.Fatalf("local byte = %#x, want 0xAB (fault %v)", res.Ret, res.Fault)
	}
}

func TestFreshFramesAreZeroed(t *testing.T) {
	// callee writes a local then returns; second call must read zero.
	cal := ir.NewBuilder("dirty", 1)
	off := cal.Alloca(8)
	addr := cal.FrameAddr(off)
	old := cal.Load(addr, 0, 8)
	cal.Store(addr, cal.Const(0x5a5a), 0, 8)
	cal.Ret(old)
	b := ir.NewBuilder("main", 0)
	first := b.Call("dirty", b.Const(0))
	_ = first
	second := b.Call("dirty", b.Const(0))
	b.Ret(second)
	m := buildModule(t, nil, cal.F, b.F)
	if res := run(t, m, "main"); res.Ret != 0 {
		t.Fatalf("stale frame observed: %#x", res.Ret)
	}
}

func TestGlobalLoadStore(t *testing.T) {
	g := &ir.Global{Name: "counter", Size: 8}
	b := ir.NewBuilder("bump", 0)
	ga := b.GlobalAddr(0)
	v := b.Load(ga, 0, 8)
	nv := b.Bin(ir.Add, v, b.Const(1))
	b.Store(ga, nv, 0, 8)
	b.Ret(nv)
	m := buildModule(t, []*ir.Global{g}, b.F)
	vmach, err := New(m, Options{})
	if err != nil {
		t.Fatal(err)
	}
	for want := int64(1); want <= 3; want++ {
		if res := vmach.Call("bump"); res.Ret != want {
			t.Fatalf("bump = %d, want %d", res.Ret, want)
		}
	}
}

func TestGlobalInitializer(t *testing.T) {
	g := &ir.Global{Name: "magic", Size: 8, Init: []byte{0x2a}}
	b := ir.NewBuilder("get", 0)
	b.Ret(b.Load(b.GlobalAddr(0), 0, 8))
	m := buildModule(t, []*ir.Global{g}, b.F)
	if res := run(t, m, "get"); res.Ret != 42 {
		t.Fatalf("init global = %d, want 42", res.Ret)
	}
}

func TestNullDerefFaults(t *testing.T) {
	b := ir.NewBuilder("f", 0)
	b.Ret(b.Load(b.Const(0), 0, 8))
	m := buildModule(t, nil, b.F)
	res := run(t, m, "f")
	if res.Fault == nil || res.Fault.Kind != FaultNullDeref {
		t.Fatalf("fault = %v, want NullDeref", res.Fault)
	}
}

func TestWildAccessFaults(t *testing.T) {
	b := ir.NewBuilder("f", 0)
	b.Ret(b.Load(b.Const(0x7000_0000), 0, 8))
	m := buildModule(t, nil, b.F)
	res := run(t, m, "f")
	if res.Fault == nil || res.Fault.Kind != FaultWild {
		t.Fatalf("fault = %v, want Wild", res.Fault)
	}
}

func TestGlobalOOBFaults(t *testing.T) {
	g := &ir.Global{Name: "g", Size: 8}
	b := ir.NewBuilder("f", 0)
	ga := b.GlobalAddr(0)
	b.Ret(b.Load(ga, 4096, 8)) // way past the globals image
	m := buildModule(t, []*ir.Global{g}, b.F)
	res := run(t, m, "f")
	if res.Fault == nil || res.Fault.Kind != FaultGlobalOOB {
		t.Fatalf("fault = %v, want GlobalOOB", res.Fault)
	}
}

func TestWriteRodataFaults(t *testing.T) {
	g := &ir.Global{Name: "s", Size: 8, Const: true, Section: ir.SectionRodata, Init: []byte("hi")}
	b := ir.NewBuilder("f", 0)
	b.Store(b.GlobalAddr(0), b.Const(1), 0, 1)
	b.Ret(-1)
	m := buildModule(t, []*ir.Global{g}, b.F)
	res := run(t, m, "f")
	if res.Fault == nil || res.Fault.Kind != FaultWriteRodata {
		t.Fatalf("fault = %v, want WriteRodata", res.Fault)
	}
}

func TestHeapMallocFreeRoundTrip(t *testing.T) {
	b := ir.NewBuilder("f", 0)
	p := b.Call("malloc", b.Const(32))
	b.Store(p, b.Const(123), 8, 8)
	v := b.Load(p, 8, 8)
	r := b.Call("free", p)
	_ = r
	b.Ret(v)
	m := buildModule(t, nil, b.F)
	res := run(t, m, "f")
	if res.Fault != nil || res.Ret != 123 {
		t.Fatalf("heap round trip = %d, fault %v", res.Ret, res.Fault)
	}
}

func TestHeapOOBFaults(t *testing.T) {
	b := ir.NewBuilder("f", 0)
	p := b.Call("malloc", b.Const(8))
	b.Ret(b.Load(p, 8, 8)) // one past the end
	m := buildModule(t, nil, b.F)
	res := run(t, m, "f")
	if res.Fault == nil || res.Fault.Kind != FaultHeapOOB {
		t.Fatalf("fault = %v, want HeapOOB", res.Fault)
	}
}

func TestUseAfterFreeFaults(t *testing.T) {
	b := ir.NewBuilder("f", 0)
	p := b.Call("malloc", b.Const(8))
	_ = b.Call("free", p)
	b.Ret(b.Load(p, 0, 8))
	m := buildModule(t, nil, b.F)
	res := run(t, m, "f")
	if res.Fault == nil || res.Fault.Kind != FaultUseAfterFree {
		t.Fatalf("fault = %v, want UseAfterFree", res.Fault)
	}
}

func TestDoubleFreeFaults(t *testing.T) {
	b := ir.NewBuilder("f", 0)
	p := b.Call("malloc", b.Const(8))
	_ = b.Call("free", p)
	_ = b.Call("free", p)
	b.Ret(-1)
	m := buildModule(t, nil, b.F)
	res := run(t, m, "f")
	if res.Fault == nil || res.Fault.Kind != FaultDoubleFree {
		t.Fatalf("fault = %v, want DoubleFree", res.Fault)
	}
}

func TestExitUnwinds(t *testing.T) {
	inner := ir.NewBuilder("inner", 0)
	_ = inner.Call("exit", inner.Const(3))
	inner.Ret(-1)
	outer := ir.NewBuilder("outer", 0)
	_ = outer.Call("inner")
	outer.Ret(outer.Const(99)) // must never execute
	m := buildModule(t, nil, inner.F, outer.F)
	res := run(t, m, "outer")
	if !res.Exited || res.ExitCode != 3 || res.Fault != nil {
		t.Fatalf("res = %+v, want clean exit(3)", res)
	}
}

func TestAbortFaults(t *testing.T) {
	b := ir.NewBuilder("f", 0)
	_ = b.Call("abort")
	b.Ret(-1)
	m := buildModule(t, nil, b.F)
	res := run(t, m, "f")
	if res.Fault == nil || res.Fault.Kind != FaultAbort {
		t.Fatalf("fault = %v, want Abort", res.Fault)
	}
}

func TestUnreachableFaults(t *testing.T) {
	b := ir.NewBuilder("f", 0)
	b.Unreachable()
	m := buildModule(t, nil, b.F)
	res := run(t, m, "f")
	if res.Fault == nil || res.Fault.Kind != FaultUnreachable {
		t.Fatalf("fault = %v, want Unreachable", res.Fault)
	}
}

func TestMemcpyNegativeSizeFaults(t *testing.T) {
	b := ir.NewBuilder("f", 0)
	p := b.Call("malloc", b.Const(16))
	q := b.Call("malloc", b.Const(16))
	_ = b.Call("memcpy", p, q, b.Const(-5))
	b.Ret(-1)
	m := buildModule(t, nil, b.F)
	res := run(t, m, "f")
	if res.Fault == nil || res.Fault.Kind != FaultNegativeSize {
		t.Fatalf("fault = %v, want NegativeSize", res.Fault)
	}
}

func TestCallUnknownFunctionFaults(t *testing.T) {
	m := ir.NewModule("t")
	b := ir.NewBuilder("f", 0)
	b.Ret(-1)
	_ = m.AddFunc(b.F)
	v, err := New(m, Options{})
	if err != nil {
		t.Fatal(err)
	}
	res := v.Call("missing")
	if res.Fault == nil || res.Fault.Kind != FaultBadCall {
		t.Fatalf("fault = %v, want BadCall", res.Fault)
	}
}

func TestCoverageMapAndPathTrace(t *testing.T) {
	b := ir.NewBuilder("f", 1)
	then := b.NewBlock()
	els := b.NewBlock()
	b.F.Blocks[0].Instrs = append(b.F.Blocks[0].Instrs, ir.Instr{Op: ir.OpCov, Imm: 0x11, Dst: -1, A: -1, B: -1})
	b.CondBr(0, then, els)
	b.SetBlock(then)
	b.F.Blocks[then].Instrs = append(b.F.Blocks[then].Instrs, ir.Instr{Op: ir.OpCov, Imm: 0x22, Dst: -1, A: -1, B: -1})
	b.Ret(b.Const(1))
	b.SetBlock(els)
	b.F.Blocks[els].Instrs = append(b.F.Blocks[els].Instrs, ir.Instr{Op: ir.OpCov, Imm: 0x33, Dst: -1, A: -1, B: -1})
	b.Ret(b.Const(0))
	m := buildModule(t, nil, b.F)

	cov := make([]byte, 1<<16)
	v, err := New(m, Options{CovMap: cov, TraceEdges: true})
	if err != nil {
		t.Fatal(err)
	}
	r1 := v.Call("f", 1)
	var hits int
	for _, c := range cov {
		if c != 0 {
			hits++
		}
	}
	if hits != 2 {
		t.Fatalf("edges hit = %d, want 2", hits)
	}
	if r1.PathLen != 2 {
		t.Fatalf("PathLen = %d, want 2", r1.PathLen)
	}
	r2 := v.Call("f", 0)
	if r1.PathHash == r2.PathHash {
		t.Fatal("different paths produced identical path hashes")
	}
	r3 := v.Call("f", 1)
	if r1.PathHash != r3.PathHash {
		t.Fatal("same path produced different hashes")
	}
}

func TestForkChildIsolation(t *testing.T) {
	g := &ir.Global{Name: "state", Size: 8}
	b := ir.NewBuilder("bump", 0)
	ga := b.GlobalAddr(0)
	nv := b.Bin(ir.Add, b.Load(ga, 0, 8), b.Const(1))
	b.Store(ga, nv, 0, 8)
	b.Ret(nv)
	m := buildModule(t, []*ir.Global{g}, b.F)
	parent, err := New(m, Options{})
	if err != nil {
		t.Fatal(err)
	}
	// Every forked child starts from the same image: bump always returns 1.
	for i := 0; i < 5; i++ {
		child := parent.Fork()
		if res := child.Call("bump"); res.Ret != 1 {
			t.Fatalf("child %d bump = %d, want 1", i, res.Ret)
		}
		child.Release()
	}
	// The parent image was never dirtied.
	if res := parent.Fork().Call("bump"); res.Ret != 1 {
		t.Fatalf("parent dirtied: bump = %d", res.Ret)
	}
}

func TestSnapshotRestoreSection(t *testing.T) {
	g := &ir.Global{Name: "v", Size: 8, Init: []byte{7}, Section: ir.SectionClosure}
	b := ir.NewBuilder("set", 1)
	b.Store(b.GlobalAddr(0), 0, 0, 8)
	b.Ret(-1)
	get := ir.NewBuilder("get", 0)
	get.Ret(get.Load(get.GlobalAddr(0), 0, 8))
	m := buildModule(t, []*ir.Global{g}, b.F, get.F)
	v, err := New(m, Options{})
	if err != nil {
		t.Fatal(err)
	}
	snap, ok := v.SnapshotSection(ir.SectionClosure)
	if !ok {
		t.Fatal("no closure section")
	}
	v.Call("set", 1234)
	if res := v.Call("get"); res.Ret != 1234 {
		t.Fatalf("set failed: %d", res.Ret)
	}
	if !v.RestoreSection(ir.SectionClosure, snap) {
		t.Fatal("restore failed")
	}
	if res := v.Call("get"); res.Ret != 7 {
		t.Fatalf("after restore get = %d, want 7", res.Ret)
	}
}

func TestDeterministicRand(t *testing.T) {
	b := ir.NewBuilder("r", 0)
	b.Ret(b.Call("rand"))
	m := buildModule(t, nil, b.F)
	v1, _ := New(m, Options{DeterministicRand: true, RandSeed: 42})
	v2, _ := New(m, Options{DeterministicRand: true, RandSeed: 42})
	if v1.Call("r").Ret != v2.Call("r").Ret {
		t.Fatal("deterministic rand differs across identically-seeded VMs")
	}
	v3, _ := New(m, Options{})
	v4, _ := New(m, Options{})
	if v3.Call("r").Ret == v4.Call("r").Ret {
		t.Fatal("nondeterministic VMs produced identical rand (collision unlikely)")
	}
}

// TestForkInheritsDeterministicRand: under DeterministicRand a forked
// child continues the template's rand() stream, as a real fork copies the
// PRNG state, so every child matches a fresh image with the same seed.
// Without it each child draws fresh entropy.
func TestForkInheritsDeterministicRand(t *testing.T) {
	b := ir.NewBuilder("r", 0)
	b.Ret(b.Call("rand"))
	m := buildModule(t, nil, b.F)
	opts := Options{DeterministicRand: true, RandSeed: 42}
	tmpl, _ := New(m, opts)
	for c := 0; c < 2; c++ {
		child := tmpl.Fork()
		fresh, _ := New(m, opts)
		for i := 0; i < 8; i++ {
			if got, want := child.Call("r").Ret, fresh.Call("r").Ret; got != want {
				t.Fatalf("child %d call %d: rand %d, fresh image %d", c, i, got, want)
			}
		}
		child.Release()
	}
	nd, _ := New(m, Options{})
	c1, c2 := nd.Fork(), nd.Fork()
	if c1.Call("r").Ret == c2.Call("r").Ret {
		t.Fatal("nondeterministic children produced identical rand (collision unlikely)")
	}
}

// Property: compiled arithmetic matches direct Go evaluation for safe ops.
func TestArithmeticDifferentialProperty(t *testing.T) {
	f := func(a, b int64, opSel uint8) bool {
		safe := []ir.BinOp{ir.Add, ir.Sub, ir.Mul, ir.And, ir.Or, ir.Xor, ir.Eq, ir.Lt, ir.Ugt}
		op := safe[int(opSel)%len(safe)]
		bld := ir.NewBuilder("f", 2)
		bld.Ret(bld.Bin(op, 0, 1))
		m := ir.NewModule("p")
		_ = m.AddFunc(bld.F)
		v, err := New(m, Options{})
		if err != nil {
			return false
		}
		res := v.Call("f", a, b)
		if res.Fault != nil {
			return false
		}
		var want int64
		switch op {
		case ir.Add:
			want = a + b
		case ir.Sub:
			want = a - b
		case ir.Mul:
			want = a * b
		case ir.And:
			want = a & b
		case ir.Or:
			want = a | b
		case ir.Xor:
			want = a ^ b
		case ir.Eq:
			want = b2i(a == b)
		case ir.Lt:
			want = b2i(a < b)
		case ir.Ugt:
			want = b2i(uint64(a) > uint64(b))
		}
		return res.Ret == want
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

func TestFaultKeyStable(t *testing.T) {
	f := &Fault{Kind: FaultNullDeref, Fn: "parse", Line: 42}
	if f.Key() != "null-pointer-dereference@parse:42" {
		t.Fatalf("Key = %q", f.Key())
	}
	if f.Error() == "" {
		t.Fatal("empty error")
	}
}
