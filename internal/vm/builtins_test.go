package vm

import (
	"strings"
	"testing"

	"closurex/internal/analysis"
	"closurex/internal/ir"
	"closurex/internal/vfs"
)

// cstring places a NUL-terminated constant in a rodata global and returns
// its index.
func cstring(m *ir.Module, name, s string) int {
	return m.AddGlobal(&ir.Global{
		Name: name, Size: int64(len(s) + 1), Init: append([]byte(s), 0),
		Const: true, Section: ir.SectionRodata,
	})
}

func TestFopenFreadLifecycle(t *testing.T) {
	m := ir.NewModule("t")
	pathIdx := cstring(m, ".str.path", vfs.InputPath)
	modeIdx := cstring(m, ".str.mode", "r")
	b := ir.NewBuilder("readbyte", 0)
	fd := b.Call("fopen", b.GlobalAddr(pathIdx), b.GlobalAddr(modeIdx))
	buf := b.FrameAddr(b.Alloca(16))
	n := b.Call("fread", buf, b.Const(1), b.Const(16), fd)
	_ = b.Call("fclose", fd)
	first := b.Load(buf, 0, 1)
	b.Ret(b.Bin(ir.Add, b.Bin(ir.Mul, n, b.Const(1000)), first))
	_ = m.AddFunc(b.F)
	if err := analysis.VerifyStructure(m, analysis.NewBuiltins(Builtins())).Err(); err != nil {
		t.Fatal(err)
	}
	v, err := New(m, Options{Files: map[string][]byte{vfs.InputPath: []byte("Zebra")}})
	if err != nil {
		t.Fatal(err)
	}
	res := v.Call("readbyte")
	if res.Fault != nil {
		t.Fatalf("fault: %v", res.Fault)
	}
	if res.Ret != 5*1000+'Z' {
		t.Fatalf("ret = %d, want %d", res.Ret, 5*1000+'Z')
	}
	if v.FS.OpenCount() != 0 {
		t.Fatalf("descriptor leaked: %d", v.FS.OpenCount())
	}
}

func TestFopenMissingReturnsNull(t *testing.T) {
	m := ir.NewModule("t")
	pathIdx := cstring(m, ".str", "/does-not-exist")
	modeIdx := cstring(m, ".mode", "r")
	b := ir.NewBuilder("f", 0)
	b.Ret(b.Call("fopen", b.GlobalAddr(pathIdx), b.GlobalAddr(modeIdx)))
	_ = m.AddFunc(b.F)
	v, _ := New(m, Options{})
	if res := v.Call("f"); res.Ret != 0 || res.Fault != nil {
		t.Fatalf("fopen missing = %d, fault %v; want NULL", res.Ret, res.Fault)
	}
}

func TestDoubleFcloseFaults(t *testing.T) {
	m := ir.NewModule("t")
	pathIdx := cstring(m, ".p", vfs.InputPath)
	modeIdx := cstring(m, ".m", "r")
	b := ir.NewBuilder("f", 0)
	fd := b.Call("fopen", b.GlobalAddr(pathIdx), b.GlobalAddr(modeIdx))
	_ = b.Call("fclose", fd)
	_ = b.Call("fclose", fd)
	b.Ret(-1)
	_ = m.AddFunc(b.F)
	v, _ := New(m, Options{Files: map[string][]byte{vfs.InputPath: []byte("x")}})
	res := v.Call("f")
	if res.Fault == nil || res.Fault.Kind != FaultBadFree {
		t.Fatalf("fault = %v, want BadFree (double fclose)", res.Fault)
	}
}

func TestFseekFtellFsizeFgetc(t *testing.T) {
	m := ir.NewModule("t")
	pathIdx := cstring(m, ".p", vfs.InputPath)
	modeIdx := cstring(m, ".m", "r")
	b := ir.NewBuilder("f", 0)
	fd := b.Call("fopen", b.GlobalAddr(pathIdx), b.GlobalAddr(modeIdx))
	sz := b.Call("fsize", fd)
	_ = b.Call("fseek", fd, b.Const(-1), b.Const(vfs.SeekEnd))
	last := b.Call("fgetc", fd)
	eof := b.Call("fgetc", fd)
	pos := b.Call("ftell", fd)
	// pack: sz*1e6 + last*1e3 + (eof<0)*100 + pos
	r := b.Bin(ir.Mul, sz, b.Const(1000000))
	r = b.Bin(ir.Add, r, b.Bin(ir.Mul, last, b.Const(1000)))
	isEOF := b.Bin(ir.Lt, eof, b.Const(0))
	r = b.Bin(ir.Add, r, b.Bin(ir.Mul, isEOF, b.Const(100)))
	r = b.Bin(ir.Add, r, pos)
	b.Ret(r)
	_ = m.AddFunc(b.F)
	v, _ := New(m, Options{Files: map[string][]byte{vfs.InputPath: []byte("abcd")}})
	res := v.Call("f")
	want := int64(4*1000000 + 'd'*1000 + 100 + 4)
	if res.Fault != nil || res.Ret != want {
		t.Fatalf("packed = %d (fault %v), want %d", res.Ret, res.Fault, want)
	}
}

func TestStringBuiltins(t *testing.T) {
	m := ir.NewModule("t")
	aIdx := cstring(m, ".a", "hello")
	bIdx := cstring(m, ".b", "help")
	b := ir.NewBuilder("f", 0)
	la := b.Call("strlen", b.GlobalAddr(aIdx))
	cmp := b.Call("strcmp", b.GlobalAddr(aIdx), b.GlobalAddr(bIdx))
	ncmp := b.Call("strncmp", b.GlobalAddr(aIdx), b.GlobalAddr(bIdx), b.Const(3))
	dst := b.Call("malloc", b.Const(16))
	_ = b.Call("strcpy", dst, b.GlobalAddr(aIdx))
	copied := b.Call("strlen", dst)
	// pack: la*1000 + (cmp<0)*100 + (ncmp==0)*10 + (copied==5)
	r := b.Bin(ir.Mul, la, b.Const(1000))
	r = b.Bin(ir.Add, r, b.Bin(ir.Mul, b.Bin(ir.Lt, cmp, b.Const(0)), b.Const(100)))
	r = b.Bin(ir.Add, r, b.Bin(ir.Mul, b.Bin(ir.Eq, ncmp, b.Const(0)), b.Const(10)))
	r = b.Bin(ir.Add, r, b.Bin(ir.Eq, copied, b.Const(5)))
	b.Ret(r)
	_ = m.AddFunc(b.F)
	v, _ := New(m, Options{})
	res := v.Call("f")
	if res.Fault != nil || res.Ret != 5111 {
		t.Fatalf("packed = %d (fault %v), want 5111", res.Ret, res.Fault)
	}
}

func TestMemcpyMemsetMemcmp(t *testing.T) {
	m := ir.NewModule("t")
	b := ir.NewBuilder("f", 0)
	p := b.Call("malloc", b.Const(8))
	q := b.Call("malloc", b.Const(8))
	_ = b.Call("memset", p, b.Const(0x41), b.Const(8))
	_ = b.Call("memcpy", q, p, b.Const(8))
	eq := b.Call("memcmp", p, q, b.Const(8))
	b.Store(q, b.Const(0x42), 7, 1)
	ne := b.Call("memcmp", p, q, b.Const(8))
	r := b.Bin(ir.Mul, b.Bin(ir.Eq, eq, b.Const(0)), b.Const(10))
	r = b.Bin(ir.Add, r, b.Bin(ir.Lt, ne, b.Const(0)))
	b.Ret(r)
	_ = m.AddFunc(b.F)
	v, _ := New(m, Options{})
	res := v.Call("f")
	if res.Fault != nil || res.Ret != 11 {
		t.Fatalf("packed = %d (fault %v), want 11", res.Ret, res.Fault)
	}
}

// TestScratchBuffersBounded checks that the builtins' scratch buffers are
// kept for reuse across calls, and that a transfer larger than
// scratchKeep still copies correctly without the VM keeping its buffer.
func TestScratchBuffersBounded(t *testing.T) {
	for _, n := range []int64{64, scratchKeep + 1} {
		m := ir.NewModule("t")
		b := ir.NewBuilder("f", 0)
		p := b.Call("malloc", b.Const(n))
		q := b.Call("malloc", b.Const(n))
		_ = b.Call("memset", p, b.Const(0x5a), b.Const(n))
		_ = b.Call("memcpy", q, p, b.Const(n))
		b.Ret(b.Call("memcmp", p, q, b.Const(n)))
		_ = m.AddFunc(b.F)
		v, err := New(m, Options{})
		if err != nil {
			t.Fatal(err)
		}
		for i := 0; i < 3; i++ {
			if res := v.Call("f"); res.Fault != nil || res.Ret != 0 {
				t.Fatalf("n=%d call %d: ret %d, fault %v", n, i, res.Ret, res.Fault)
			}
		}
		for slot, buf := range v.scratch {
			if n > scratchKeep && cap(buf) > scratchKeep {
				t.Errorf("n=%d: slot %d keeps a %d-byte buffer", n, slot, cap(buf))
			}
			if n <= scratchKeep && cap(buf) < int(n) {
				t.Errorf("n=%d: slot %d kept %d bytes, want the %d-byte buffer reused", n, slot, cap(buf), n)
			}
		}
	}
}

func TestMemcpyOOBDetected(t *testing.T) {
	m := ir.NewModule("t")
	b := ir.NewBuilder("f", 0)
	p := b.Call("malloc", b.Const(8))
	q := b.Call("malloc", b.Const(4))
	_ = b.Call("memcpy", q, p, b.Const(8)) // dst too small
	b.Ret(-1)
	_ = m.AddFunc(b.F)
	v, _ := New(m, Options{})
	res := v.Call("f")
	if res.Fault == nil || res.Fault.Kind != FaultHeapOOB {
		t.Fatalf("fault = %v, want HeapOOB", res.Fault)
	}
}

func TestStdoutCapture(t *testing.T) {
	m := ir.NewModule("t")
	sIdx := cstring(m, ".s", "gif89a")
	b := ir.NewBuilder("f", 0)
	_ = b.Call("puts", b.GlobalAddr(sIdx))
	_ = b.Call("print_int", b.Const(-42))
	_ = b.Call("putchar", b.Const('!'))
	b.Ret(-1)
	_ = m.AddFunc(b.F)
	v, _ := New(m, Options{})
	res := v.Call("f")
	if res.Fault != nil {
		t.Fatal(res.Fault)
	}
	if got := string(v.Stdout); got != "gif89a\n-42!" {
		t.Fatalf("stdout = %q", got)
	}
}

func TestMallocHugeReturnsNull(t *testing.T) {
	m := ir.NewModule("t")
	b := ir.NewBuilder("f", 0)
	b.Ret(b.Call("malloc", b.Const(1<<40)))
	_ = m.AddFunc(b.F)
	v, _ := New(m, Options{})
	if res := v.Call("f"); res.Ret != 0 || res.Fault != nil {
		t.Fatalf("huge malloc = %d, fault %v; want NULL", res.Ret, res.Fault)
	}
	// Negative size too.
	b2 := ir.NewBuilder("g", 0)
	b2.Ret(b2.Call("malloc", b2.Const(-1)))
	_ = m.AddFunc(b2.F)
	v2, _ := New(m, Options{})
	if res := v2.Call("g"); res.Ret != 0 {
		t.Fatalf("malloc(-1) = %d, want NULL", res.Ret)
	}
}

func TestCallocZeroesAndGuards(t *testing.T) {
	m := ir.NewModule("t")
	b := ir.NewBuilder("f", 0)
	p := b.Call("calloc", b.Const(4), b.Const(8))
	b.Ret(b.Load(p, 24, 8))
	_ = m.AddFunc(b.F)
	v, _ := New(m, Options{})
	if res := v.Call("f"); res.Fault != nil || res.Ret != 0 {
		t.Fatalf("calloc read = %d, fault %v", res.Ret, res.Fault)
	}
	// Overflowing n*size returns NULL.
	b2 := ir.NewBuilder("g", 0)
	b2.Ret(b2.Call("calloc", b2.Const(1<<32), b2.Const(1<<32)))
	_ = m.AddFunc(b2.F)
	v2, _ := New(m, Options{})
	if res := v2.Call("g"); res.Ret != 0 {
		t.Fatalf("overflowing calloc = %d, want NULL", res.Ret)
	}
}

func TestAssertBuiltin(t *testing.T) {
	m := ir.NewModule("t")
	b := ir.NewBuilder("f", 1)
	_ = b.Call("assert", 0)
	b.Ret(b.Const(1))
	_ = m.AddFunc(b.F)
	v, _ := New(m, Options{})
	if res := v.Call("f", 1); res.Fault != nil {
		t.Fatalf("assert(1) faulted: %v", res.Fault)
	}
	if res := v.Call("f", 0); res.Fault == nil || res.Fault.Kind != FaultAbort {
		t.Fatalf("assert(0) fault = %v, want Abort", res.Fault)
	}
}

func TestFDExhaustionThenAbortPattern(t *testing.T) {
	// Model of the false-crash pathology: target opens without closing;
	// under a tiny FD limit fopen eventually returns NULL and the target
	// aborts.
	m := ir.NewModule("t")
	pIdx := cstring(m, ".p", vfs.InputPath)
	mIdx := cstring(m, ".m", "r")
	b := ir.NewBuilder("leaky", 0)
	fd := b.Call("fopen", b.GlobalAddr(pIdx), b.GlobalAddr(mIdx))
	ok := b.NewBlock()
	bad := b.NewBlock()
	b.CondBr(fd, ok, bad)
	b.SetBlock(bad)
	_ = b.Call("abort")
	b.Unreachable()
	b.SetBlock(ok)
	b.Ret(fd)
	_ = m.AddFunc(b.F)
	v, _ := New(m, Options{Files: map[string][]byte{vfs.InputPath: []byte("x")}})
	v.FS.SetFDLimit(4)
	var crashed bool
	for i := 0; i < 10; i++ {
		res := v.Call("leaky")
		if res.Crashed() {
			if res.Fault.Kind != FaultAbort {
				t.Fatalf("iteration %d: fault %v, want Abort", i, res.Fault)
			}
			if i != 4 {
				t.Fatalf("crashed at iteration %d, want 4 (limit)", i)
			}
			crashed = true
			break
		}
	}
	if !crashed {
		t.Fatal("FD exhaustion never manifested")
	}
}

func TestBuiltinsRegistryConsistency(t *testing.T) {
	names := Builtins()
	for _, required := range []string{"malloc", "free", "exit", "fopen", "fclose",
		"closurex_malloc", "closurex_free", "closurex_exit", "closurex_fopen", "closurex_fclose"} {
		if !names[required] {
			t.Errorf("builtin %q missing", required)
		}
	}
	if !IsBuiltin("memcpy") || IsBuiltin("not_a_builtin") {
		t.Fatal("IsBuiltin misbehaves")
	}
}

func TestStrlenUnterminatedHitsSanitizer(t *testing.T) {
	// strlen walking a chunk with no NUL must fault at the chunk end, not
	// run forever.
	m := ir.NewModule("t")
	b := ir.NewBuilder("f", 0)
	p := b.Call("malloc", b.Const(8))
	_ = b.Call("memset", p, b.Const('A'), b.Const(8))
	b.Ret(b.Call("strlen", p))
	_ = m.AddFunc(b.F)
	v, _ := New(m, Options{})
	res := v.Call("f")
	if res.Fault == nil || res.Fault.Kind != FaultHeapOOB {
		t.Fatalf("fault = %v, want HeapOOB", res.Fault)
	}
	if !strings.Contains(res.Fault.Error(), "heap") {
		t.Fatalf("fault message: %v", res.Fault)
	}
}
