package ir

import (
	"strings"
	"testing"
)

// buildAddFunc assembles: func add(a, b) { return a + b }
func buildAddFunc() *Func {
	b := NewBuilder("add", 2)
	sum := b.Bin(Add, 0, 1)
	b.Ret(sum)
	return b.F
}

func TestAddFuncDuplicate(t *testing.T) {
	m := NewModule("t")
	if err := m.AddFunc(buildAddFunc()); err != nil {
		t.Fatal(err)
	}
	if err := m.AddFunc(buildAddFunc()); err == nil {
		t.Fatal("duplicate function accepted")
	}
}

func TestRenameFuncErrors(t *testing.T) {
	m := NewModule("t")
	_ = m.AddFunc(buildAddFunc())
	if err := m.RenameFunc("missing", "x"); err == nil {
		t.Fatal("renaming missing function succeeded")
	}
	b := NewBuilder("other", 0)
	b.Ret(-1)
	_ = m.AddFunc(b.F)
	if err := m.RenameFunc("add", "other"); err == nil {
		t.Fatal("rename onto existing name succeeded")
	}
}

func TestRewriteCalls(t *testing.T) {
	m := NewModule("t")
	b := NewBuilder("f", 0)
	r := b.Call("malloc", b.Const(8))
	b.Ret(r)
	_ = m.AddFunc(b.F)
	n := m.RewriteCalls("malloc", "closurex_malloc")
	if n != 1 {
		t.Fatalf("rewrote %d calls, want 1", n)
	}
	if got := b.F.Blocks[0].Instrs[1].Callee; got != "closurex_malloc" {
		t.Fatalf("callee = %q", got)
	}
}

func TestCloneIsDeep(t *testing.T) {
	m := NewModule("orig")
	m.AddGlobal(&Global{Name: "g", Size: 8, Init: []byte{1, 2}})
	_ = m.AddFunc(buildAddFunc())
	c := m.Clone()

	// Mutate the clone; original must not change.
	c.Globals[0].Init[0] = 99
	c.Globals[0].Section = SectionClosure
	c.Funcs[0].Blocks[0].Instrs[0].Bin = Sub
	if err := c.RenameFunc("add", "renamed"); err != nil {
		t.Fatal(err)
	}

	if m.Globals[0].Init[0] != 1 || m.Globals[0].Section != SectionData {
		t.Fatal("clone shares global state with original")
	}
	if m.Funcs[0].Blocks[0].Instrs[0].Bin != Add {
		t.Fatal("clone shares instruction storage")
	}
	if m.Func("add") == nil {
		t.Fatal("rename in clone affected original index")
	}
	if c.Func("renamed") == nil || c.Func("add") != nil {
		t.Fatal("clone func index broken")
	}
}

func TestGlobalIndexAndSectionDefault(t *testing.T) {
	m := NewModule("t")
	i := m.AddGlobal(&Global{Name: "counter", Size: 8})
	if m.GlobalIndex("counter") != i {
		t.Fatalf("GlobalIndex = %d, want %d", m.GlobalIndex("counter"), i)
	}
	if m.GlobalIndex("nope") != -1 {
		t.Fatal("missing global found")
	}
	if m.Globals[i].Section != SectionData {
		t.Fatalf("default section = %q", m.Globals[i].Section)
	}
}

func TestPrintStable(t *testing.T) {
	m := NewModule("demo")
	m.AddGlobal(&Global{Name: "g", Size: 8, Init: []byte{0xab}})
	_ = m.AddFunc(buildAddFunc())
	out1 := Print(m)
	out2 := Print(m)
	if out1 != out2 {
		t.Fatal("Print not deterministic")
	}
	for _, want := range []string{"module demo", "global @0 g size=8 section=.data init=ab",
		"func add(params=2 regs=3 frame=0)", "r2 = add r0, r1", "ret r2"} {
		if !strings.Contains(out1, want) {
			t.Fatalf("Print output missing %q:\n%s", want, out1)
		}
	}
}

func TestFormatInstrCoversOpcodes(t *testing.T) {
	cases := []struct {
		in   Instr
		want string
	}{
		{Instr{Op: OpConst, Dst: 1, Imm: -4}, "r1 = const -4"},
		{Instr{Op: OpMov, Dst: 1, A: 2}, "r1 = mov r2"},
		{Instr{Op: OpUn, Dst: 0, Un: BNot, A: 3}, "r0 = bnot r3"},
		{Instr{Op: OpLoad, Dst: 2, A: 1, Imm: 8, Size: 4}, "r2 = load4 [r1+8]"},
		{Instr{Op: OpStore, A: 1, B: 2, Imm: -8, Size: 1}, "store1 [r1-8], r2"},
		{Instr{Op: OpGlobalAddr, Dst: 0, Imm: 2}, "r0 = gaddr @2"},
		{Instr{Op: OpFrameAddr, Dst: 0, Imm: 16}, "r0 = faddr 16"},
		{Instr{Op: OpCall, Dst: 3, Callee: "f", Args: []int{1, 2}}, "r3 = call f(r1, r2)"},
		{Instr{Op: OpRet, A: -1}, "ret"},
		{Instr{Op: OpRet, A: 2}, "ret r2"},
		{Instr{Op: OpBr, Targets: [2]int{4, 0}}, "br b4"},
		{Instr{Op: OpCondBr, A: 1, Targets: [2]int{2, 3}}, "condbr r1, b2, b3"},
		{Instr{Op: OpCov, Imm: 0x1f}, "cov 0x1f"},
		{Instr{Op: OpUnreachable}, "unreachable"},
	}
	for _, c := range cases {
		if got := FormatInstr(&c.in); got != c.want {
			t.Errorf("FormatInstr(%s) = %q, want %q", c.in.Op, got, c.want)
		}
	}
}

func TestNumBlocks(t *testing.T) {
	m := NewModule("t")
	_ = m.AddFunc(buildAddFunc())
	b := NewBuilder("two", 0)
	nxt := b.NewBlock()
	b.Br(nxt)
	b.SetBlock(nxt)
	b.Ret(-1)
	_ = m.AddFunc(b.F)
	if got := m.NumBlocks(); got != 3 {
		t.Fatalf("NumBlocks = %d, want 3", got)
	}
}

func TestBuilderAllocaAlignment(t *testing.T) {
	b := NewBuilder("f", 0)
	o1 := b.Alloca(3)
	o2 := b.Alloca(9)
	o3 := b.Alloca(8)
	if o1 != 0 || o2 != 8 || o3 != 24 {
		t.Fatalf("offsets = %d,%d,%d; want 0,8,24", o1, o2, o3)
	}
	if b.F.FrameSize != 32 {
		t.Fatalf("FrameSize = %d, want 32", b.F.FrameSize)
	}
}
