package analysis

import (
	"strings"
	"testing"

	"closurex/internal/ir"
)

var testBuiltins = NewBuiltins(map[string]bool{
	"malloc": true, "free": true, "exit": true, "fopen": true, "memcpy": true,
})

// validModule hand-assembles a small well-formed module:
//
//	func helper(a) { b0: ret a }
//	func main()    { b0: r0=1; condbr r0 -> b1, b2
//	                 b1: r1 = helper(r0); br b3
//	                 b2: r2 = 7; br b3
//	                 b3: ret }
func validModule() *ir.Module {
	m := ir.NewModule("t")
	m.AddGlobal(&ir.Global{Name: "g", Size: 8, Section: ir.SectionData})
	helper := &ir.Func{Name: "helper", NumParams: 1, NumRegs: 1, Blocks: []*ir.Block{
		{Instrs: []ir.Instr{{Op: ir.OpRet, A: 0, Dst: -1}}},
	}}
	main := &ir.Func{Name: "main", NumParams: 0, NumRegs: 3, Blocks: []*ir.Block{
		{Instrs: []ir.Instr{
			{Op: ir.OpConst, Dst: 0, Imm: 1},
			{Op: ir.OpCondBr, A: 0, Dst: -1, Targets: [2]int{1, 2}},
		}},
		{Instrs: []ir.Instr{
			{Op: ir.OpCall, Dst: 1, Callee: "helper", Args: []int{0}},
			{Op: ir.OpBr, Dst: -1, Targets: [2]int{3, 0}},
		}},
		{Instrs: []ir.Instr{
			{Op: ir.OpConst, Dst: 2, Imm: 7},
			{Op: ir.OpBr, Dst: -1, Targets: [2]int{3, 0}},
		}},
		{Instrs: []ir.Instr{{Op: ir.OpRet, A: -1, Dst: -1}}},
	}}
	if err := m.AddFunc(helper); err != nil {
		panic(err)
	}
	if err := m.AddFunc(main); err != nil {
		panic(err)
	}
	return m
}

func TestVerifyCleanModule(t *testing.T) {
	ds := Verify(validModule(), testBuiltins)
	if len(ds) != 0 {
		t.Fatalf("clean module produced diagnostics:\n%s", ds)
	}
}

// TestVerifyBrokenModules drives the verifier over one seeded defect per
// invariant and asserts the intended catalog ID fires (and, where set,
// that its message carries wantMsg). The structural leg must see every
// defect but a CLX109 one, which only the dataflow leg can.
func TestVerifyBrokenModules(t *testing.T) {
	cases := []struct {
		name    string
		breakM  func(m *ir.Module)
		wantID  string
		wantMsg string
	}{
		{
			name: "missing terminator",
			breakM: func(m *ir.Module) {
				b := m.Func("main").Blocks[3]
				b.Instrs = []ir.Instr{{Op: ir.OpConst, Dst: 0, Imm: 9}}
			},
			wantID:  IDBadTerminator,
			wantMsg: "falls through",
		},
		{
			name: "terminator mid-block",
			breakM: func(m *ir.Module) {
				b := m.Func("main").Blocks[3]
				b.Instrs = []ir.Instr{
					{Op: ir.OpRet, A: -1, Dst: -1},
					{Op: ir.OpConst, Dst: 0, Imm: 9},
					{Op: ir.OpRet, A: -1, Dst: -1},
				}
			},
			wantID: IDBadTerminator,
		},
		{
			name: "empty block",
			breakM: func(m *ir.Module) {
				m.Func("main").Blocks[3].Instrs = nil
			},
			wantID: IDBadTerminator,
		},
		{
			name: "branch target out of range",
			breakM: func(m *ir.Module) {
				m.Func("main").Blocks[1].Instrs[1].Targets[0] = 99
			},
			wantID: IDBadTarget,
		},
		{
			name: "negative branch target",
			breakM: func(m *ir.Module) {
				m.Func("main").Blocks[0].Instrs[1].Targets[1] = -2
			},
			wantID: IDBadTarget,
		},
		{
			name: "use before def",
			breakM: func(m *ir.Module) {
				// b3 reads r1, which only the b1 arm of the diamond assigns.
				b := m.Func("main").Blocks[3]
				b.Instrs = []ir.Instr{{Op: ir.OpRet, A: 1, Dst: -1}}
			},
			wantID: IDUnassignedUse,
		},
		{
			name: "use above def in straight line",
			breakM: func(m *ir.Module) {
				// A "reordered pass" swapped the def below its use.
				b := m.Func("main").Blocks[2]
				b.Instrs = []ir.Instr{
					{Op: ir.OpMov, Dst: 0, A: 2},
					{Op: ir.OpConst, Dst: 2, Imm: 7},
					{Op: ir.OpBr, Dst: -1, Targets: [2]int{3, 0}},
				}
			},
			wantID: IDUnassignedUse,
		},
		{
			name: "unknown callee",
			breakM: func(m *ir.Module) {
				m.Func("main").Blocks[1].Instrs[0].Callee = "launder_state"
			},
			wantID: IDBadCallee,
		},
		{
			name: "call arity mismatch",
			breakM: func(m *ir.Module) {
				m.Func("main").Blocks[1].Instrs[0].Args = []int{0, 0}
			},
			wantID: IDBadArity,
		},
		{
			name: "global index out of range",
			breakM: func(m *ir.Module) {
				b := m.Func("main").Blocks[2]
				b.Instrs = append([]ir.Instr{{Op: ir.OpGlobalAddr, Dst: 2, Imm: 42}}, b.Instrs...)
			},
			wantID: IDBadGlobal,
		},
		{
			name: "too few call args",
			breakM: func(m *ir.Module) {
				h := m.Func("helper")
				h.NumParams, h.NumRegs = 2, 2
			},
			wantID:  IDBadArity,
			wantMsg: "1 args, want 2",
		},
		{
			name: "register out of range",
			breakM: func(m *ir.Module) {
				m.Func("main").Blocks[2].Instrs[0].Dst = 55
			},
			wantID: IDBadRegister,
		},
		{
			name: "src register out of range",
			breakM: func(m *ir.Module) {
				b := m.Func("main").Blocks[2]
				b.Instrs = append([]ir.Instr{{Op: ir.OpMov, Dst: 2, A: 5}}, b.Instrs...)
			},
			wantID:  IDBadRegister,
			wantMsg: "src register 5",
		},
		{
			name: "bad access size",
			breakM: func(m *ir.Module) {
				b := m.Func("main").Blocks[2]
				b.Instrs = append([]ir.Instr{{Op: ir.OpLoad, Dst: 2, A: 0, Size: 3}}, b.Instrs...)
			},
			wantID: IDBadSize,
		},
		{
			name: "unknown section attribute",
			breakM: func(m *ir.Module) {
				m.Globals[0].Section = ".fancy"
			},
			wantID: IDBadSection,
		},
		{
			name: "function without blocks",
			breakM: func(m *ir.Module) {
				m.Func("helper").Blocks = nil
			},
			wantID: IDEmptyFunc,
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			m := validModule()
			// The seeded defect must be invisible to a clean build...
			if ds := Verify(m, testBuiltins); len(ds) != 0 {
				t.Fatalf("precondition: base module not clean:\n%s", ds)
			}
			tc.breakM(m)
			ds := Verify(m, testBuiltins)
			if !ds.HasErrors() {
				t.Fatalf("verifier missed the seeded defect")
			}
			hits := ds.ByID(tc.wantID)
			if len(hits) == 0 {
				t.Fatalf("want %s among %v:\n%s", tc.wantID, ds.IDs(), ds)
			}
			if !strings.Contains(hits.String(), tc.wantMsg) {
				t.Fatalf("%s message lacks %q:\n%s", tc.wantID, tc.wantMsg, hits)
			}
			sds := VerifyStructure(m, testBuiltins)
			if tc.wantID == IDUnassignedUse {
				if len(sds) != 0 {
					t.Fatalf("structural leg reported a dataflow defect:\n%s", sds)
				}
			} else if len(sds.ByID(tc.wantID)) == 0 {
				t.Fatalf("structural leg missed %s:\n%s", tc.wantID, sds)
			}
		})
	}
}

// TestVerifyResolvesBuiltinCallee: a callee that is no module function
// resolves only through the builtin set the verifier is given.
func TestVerifyResolvesBuiltinCallee(t *testing.T) {
	m := validModule()
	m.Func("main").Blocks[1].Instrs[0].Callee = "mystery"
	if ds := VerifyStructure(m, testBuiltins); len(ds.ByID(IDBadCallee)) != 1 {
		t.Fatalf("unresolved callee not reported once:\n%s", ds)
	}
	if ds := Verify(m, NewBuiltins(map[string]bool{"mystery": true})); len(ds) != 0 {
		t.Fatalf("builtin callee rejected:\n%s", ds)
	}
}

// TestVerifyStructureAllocFree pins the per-pass gate's cost: on a clean
// module, with the builtin slot order prepared once, it allocates nothing.
func TestVerifyStructureAllocFree(t *testing.T) {
	m := validModule()
	if n := testing.AllocsPerRun(100, func() { VerifyStructure(m, testBuiltins) }); n != 0 {
		t.Fatalf("VerifyStructure allocates %.0f times per clean module, want 0", n)
	}
}

// TestVerifyDefiniteAssignmentDiamond proves the dataflow leg accepts the
// register-defined-on-both-arms pattern the lowerer emits for ternaries
// and short-circuit operators — a pure dominance check would reject it.
func TestVerifyDefiniteAssignmentDiamond(t *testing.T) {
	m := ir.NewModule("t")
	f := &ir.Func{Name: "main", NumParams: 0, NumRegs: 2, Blocks: []*ir.Block{
		{Instrs: []ir.Instr{
			{Op: ir.OpConst, Dst: 0, Imm: 1},
			{Op: ir.OpCondBr, A: 0, Dst: -1, Targets: [2]int{1, 2}},
		}},
		{Instrs: []ir.Instr{
			{Op: ir.OpConst, Dst: 1, Imm: 10},
			{Op: ir.OpBr, Dst: -1, Targets: [2]int{3, 0}},
		}},
		{Instrs: []ir.Instr{
			{Op: ir.OpConst, Dst: 1, Imm: 20},
			{Op: ir.OpBr, Dst: -1, Targets: [2]int{3, 0}},
		}},
		// r1 assigned on every path though neither def dominates the use.
		{Instrs: []ir.Instr{{Op: ir.OpRet, A: 1, Dst: -1}}},
	}}
	if err := m.AddFunc(f); err != nil {
		t.Fatal(err)
	}
	if ds := Verify(m, testBuiltins); len(ds) != 0 {
		t.Fatalf("diamond-assigned register flagged:\n%s", ds)
	}
}

func TestDiagnosticRendering(t *testing.T) {
	d := Diagnostic{ID: "CLX001", Sev: SevError, Pass: "HeapPass",
		Func: "parse", Block: 2, Instr: 4, Line: 17, Msg: "raw malloc"}
	s := d.String()
	for _, want := range []string{"CLX001", "error", "HeapPass", "parse", "b2#4", "line 17", "raw malloc"} {
		if !strings.Contains(s, want) {
			t.Fatalf("rendered diagnostic %q missing %q", s, want)
		}
	}
	ds := Diagnostics{d}
	if err := ds.Err(); err == nil || !strings.Contains(err.Error(), "CLX001") {
		t.Fatalf("Err() = %v, want CLX001 rendering", err)
	}
	if (Diagnostics{}).Err() != nil {
		t.Fatal("empty diagnostics must convert to nil error")
	}
}
