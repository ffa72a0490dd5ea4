package ir_test

import (
	"strings"
	"testing"

	"closurex/internal/analysis"
	"closurex/internal/ir"
)

// These tests check their modules with the analysis verifier, which
// imports ir, so they live in the external test package.

func verifyStructure(t *testing.T, m *ir.Module) {
	t.Helper()
	if err := analysis.VerifyStructure(m, analysis.Builtins{}).Err(); err != nil {
		t.Fatalf("VerifyStructure: %v", err)
	}
}

// addFunc assembles: func add(a, b) { return a + b }
func addFunc() *ir.Func {
	b := ir.NewBuilder("add", 2)
	sum := b.Bin(ir.Add, 0, 1)
	b.Ret(sum)
	return b.F
}

func TestBuilderProducesVerifiableFunc(t *testing.T) {
	m := ir.NewModule("t")
	if err := m.AddFunc(addFunc()); err != nil {
		t.Fatal(err)
	}
	verifyStructure(t, m)
}

func TestBuilderFinishAcceptsTerminatedFunc(t *testing.T) {
	b := ir.NewBuilder("f", 1)
	b.Ret(0)
	f, err := b.Finish()
	if err != nil {
		t.Fatal(err)
	}
	if f.Name != "f" || len(f.Blocks) != 1 {
		t.Fatalf("Finish returned %+v", f)
	}
	m := ir.NewModule("t")
	if err := m.AddFunc(f); err != nil {
		t.Fatal(err)
	}
	verifyStructure(t, m)
}

func TestRenameFuncRewritesCallSites(t *testing.T) {
	m := ir.NewModule("t")
	_ = m.AddFunc(addFunc())
	b := ir.NewBuilder("main", 0)
	x := b.Const(1)
	y := b.Const(2)
	r := b.Call("add", x, y)
	b.Ret(r)
	_ = m.AddFunc(b.F)

	if err := m.RenameFunc("add", "target_add"); err != nil {
		t.Fatal(err)
	}
	if m.Func("add") != nil {
		t.Fatal("old name still resolves")
	}
	if m.Func("target_add") == nil {
		t.Fatal("new name does not resolve")
	}
	mainFn := m.Func("main")
	found := false
	for _, blk := range mainFn.Blocks {
		for _, in := range blk.Instrs {
			if in.Op == ir.OpCall {
				if in.Callee != "target_add" {
					t.Fatalf("call site not rewritten: %q", in.Callee)
				}
				found = true
			}
		}
	}
	if !found {
		t.Fatal("no call instruction found")
	}
	verifyStructure(t, m)
}

// structureDefects builds a one-function module around blocks and
// returns the structural verifier's findings with the given ID.
func structureDefects(numRegs int, blocks []*ir.Block, id string) analysis.Diagnostics {
	m := ir.NewModule("t")
	_ = m.AddFunc(&ir.Func{Name: "bad", NumRegs: numRegs, Blocks: blocks})
	return analysis.VerifyStructure(m, analysis.Builtins{}).ByID(id)
}

func TestVerifyCatchesUnterminatedBlock(t *testing.T) {
	ds := structureDefects(1, []*ir.Block{{Instrs: []ir.Instr{{Op: ir.OpConst, Dst: 0, Imm: 1}}}},
		analysis.IDBadTerminator)
	if len(ds) == 0 || !strings.Contains(ds.String(), "falls through") {
		t.Fatalf("diagnostics = %v, want falls-through", ds)
	}
}

func TestVerifyCatchesMidBlockTerminator(t *testing.T) {
	ds := structureDefects(1, []*ir.Block{{Instrs: []ir.Instr{
		{Op: ir.OpRet, A: -1},
		{Op: ir.OpRet, A: -1},
	}}}, analysis.IDBadTerminator)
	if len(ds) == 0 {
		t.Fatal("mid-block terminator accepted")
	}
}

func TestVerifyCatchesBadBranchTarget(t *testing.T) {
	ds := structureDefects(1, []*ir.Block{{Instrs: []ir.Instr{{Op: ir.OpBr, Targets: [2]int{7, 0}}}}},
		analysis.IDBadTarget)
	if len(ds) == 0 {
		t.Fatal("bad branch target accepted")
	}
}

func TestVerifyCatchesBadAccessSize(t *testing.T) {
	ds := structureDefects(2, []*ir.Block{{Instrs: []ir.Instr{
		{Op: ir.OpLoad, Dst: 0, A: 1, Size: 3},
		{Op: ir.OpRet, A: -1},
	}}}, analysis.IDBadSize)
	if len(ds) == 0 {
		t.Fatal("size-3 load accepted")
	}
}

func TestVerifyCatchesBadGlobalIndex(t *testing.T) {
	ds := structureDefects(1, []*ir.Block{{Instrs: []ir.Instr{
		{Op: ir.OpGlobalAddr, Dst: 0, Imm: 3},
		{Op: ir.OpRet, A: -1},
	}}}, analysis.IDBadGlobal)
	if len(ds) == 0 {
		t.Fatal("bad global index accepted")
	}
}
