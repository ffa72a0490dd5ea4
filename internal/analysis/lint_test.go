package analysis

import (
	"reflect"
	"testing"

	"closurex/internal/ir"
)

// hookedModule hand-assembles a module shaped like ClosureX pipeline output:
// entry renamed to target_main, heap/file/exit traffic routed through the
// closurex_* wrappers, writable globals in closure_global_section, constants
// in .rodata, and every block carrying a unique coverage probe.
func hookedModule() *ir.Module {
	m := ir.NewModule("t")
	m.AddGlobal(&ir.Global{Name: "state", Size: 8, Section: ir.SectionClosure})
	m.AddGlobal(&ir.Global{Name: "tbl", Size: 16, Const: true, Section: ir.SectionRodata})
	f := &ir.Func{Name: TargetMain, NumParams: 0, NumRegs: 4, Blocks: []*ir.Block{
		{Instrs: []ir.Instr{
			{Op: ir.OpCov, Dst: -1, Imm: 11},
			{Op: ir.OpConst, Dst: 0, Imm: 8},
			{Op: ir.OpCall, Dst: 1, Callee: "closurex_malloc", Args: []int{0}},
			{Op: ir.OpCall, Dst: 2, Callee: "closurex_free", Args: []int{1}},
			{Op: ir.OpBr, Dst: -1, Targets: [2]int{1, 0}},
		}},
		{Instrs: []ir.Instr{
			{Op: ir.OpCov, Dst: -1, Imm: 22},
			{Op: ir.OpCall, Dst: 3, Callee: "closurex_exit", Args: []int{0}},
			{Op: ir.OpRet, A: -1, Dst: -1},
		}},
	}}
	if err := m.AddFunc(f); err != nil {
		panic(err)
	}
	return m
}

func TestLintCleanModule(t *testing.T) {
	if ds := Lint(hookedModule()); len(ds) != 0 {
		t.Fatalf("hooked module produced diagnostics:\n%s", ds)
	}
}

// TestLintSeededDefects seeds one defect per catalog lint and asserts each
// is caught by exactly the intended lint ID — no more, no less (the
// acceptance criterion for the restore-completeness catalog).
func TestLintSeededDefects(t *testing.T) {
	entry := func(m *ir.Module) *ir.Func { return m.Func(TargetMain) }
	cases := []struct {
		name   string
		breakM func(m *ir.Module)
		wantID string
	}{
		{
			name: "raw malloc survives HeapPass",
			breakM: func(m *ir.Module) {
				entry(m).Blocks[0].Instrs[2].Callee = "malloc"
			},
			wantID: IDRawHeapCall,
		},
		{
			name: "raw free survives HeapPass",
			breakM: func(m *ir.Module) {
				entry(m).Blocks[0].Instrs[3].Callee = "free"
			},
			wantID: IDRawHeapCall,
		},
		{
			name: "raw fopen survives FilePass",
			breakM: func(m *ir.Module) {
				entry(m).Blocks[0].Instrs[2].Callee = "fopen"
			},
			wantID: IDRawFileCall,
		},
		{
			name: "raw exit survives ExitPass",
			breakM: func(m *ir.Module) {
				entry(m).Blocks[1].Instrs[1].Callee = "exit"
			},
			wantID: IDRawExitCall,
		},
		{
			name: "writable global left outside closure_global_section",
			breakM: func(m *ir.Module) {
				m.Globals[0].Section = ir.SectionData
			},
			wantID: IDGlobalSection,
		},
		{
			name: "entry point never renamed",
			breakM: func(m *ir.Module) {
				if err := m.RenameFunc(TargetMain, "main"); err != nil {
					panic(err)
				}
			},
			wantID: IDMainNotHooked,
		},
		{
			name: "coverage probe IDs collide",
			breakM: func(m *ir.Module) {
				entry(m).Blocks[1].Instrs[0].Imm = 11 // same cell as b0's probe
			},
			wantID: IDCovCollision,
		},
		{
			name: "block stripped of its probe",
			breakM: func(m *ir.Module) {
				b := entry(m).Blocks[1]
				b.Instrs = b.Instrs[1:] // drop the OpCov, keep the block
			},
			wantID: IDProbeMissing,
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			m := hookedModule()
			if ds := Lint(m); len(ds) != 0 {
				t.Fatalf("precondition: base module not clean:\n%s", ds)
			}
			tc.breakM(m)
			ds := Lint(m)
			if !ds.HasErrors() {
				t.Fatalf("lint missed the seeded defect")
			}
			if ids := ds.IDs(); !reflect.DeepEqual(ids, []string{tc.wantID}) {
				t.Fatalf("defect caught by %v, want exactly [%s]:\n%s", ids, tc.wantID, ds)
			}
			// Every diagnostic must blame the pass that owns the invariant.
			for _, d := range ds {
				if d.Pass == "" {
					t.Fatalf("diagnostic without a responsible pass: %s", d)
				}
			}
		})
	}
}

// TestLintShadowedLibcName: a target defining its own function named after a
// libc routine is the target's code, not an unhooked runtime call.
func TestLintShadowedLibcName(t *testing.T) {
	m := hookedModule()
	own := &ir.Func{Name: "free", NumParams: 1, NumRegs: 1, Blocks: []*ir.Block{
		{Instrs: []ir.Instr{
			{Op: ir.OpCov, Dst: -1, Imm: 33},
			{Op: ir.OpRet, A: -1, Dst: -1},
		}},
	}}
	if err := m.AddFunc(own); err != nil {
		t.Fatal(err)
	}
	m.Func(TargetMain).Blocks[0].Instrs[3].Callee = "free" // now a module call
	if ds := Lint(m); len(ds) != 0 {
		t.Fatalf("module-defined 'free' flagged as raw libc call:\n%s", ds)
	}
}

// TestLintSharedToleratesRawCalls: baseline builds keep raw heap/file/exit
// calls by design; the shared subset must not flag them but must still
// police the entry point and coverage geometry.
func TestLintSharedToleratesRawCalls(t *testing.T) {
	m := hookedModule()
	f := m.Func(TargetMain)
	f.Blocks[0].Instrs[2].Callee = "malloc"
	f.Blocks[0].Instrs[3].Callee = "free"
	f.Blocks[1].Instrs[1].Callee = "exit"
	m.Globals[0].Section = ir.SectionData
	if ds := LintShared(m); len(ds) != 0 {
		t.Fatalf("LintShared flagged baseline-legitimate state:\n%s", ds)
	}
	// ...but the shared invariants still hold.
	f.Blocks[1].Instrs[0].Imm = 11
	ds := LintShared(m)
	if ids := ds.IDs(); !reflect.DeepEqual(ids, []string{IDCovCollision}) {
		t.Fatalf("collision under LintShared caught by %v, want [%s]", ids, IDCovCollision)
	}
}

// TestLintUninstrumentedStaysQuiet: a module with zero probes is simply
// pre-coverage; CLX007 must not fire on every block.
func TestLintUninstrumentedStaysQuiet(t *testing.T) {
	m := hookedModule()
	for _, b := range m.Func(TargetMain).Blocks {
		out := b.Instrs[:0]
		for _, in := range b.Instrs {
			if in.Op != ir.OpCov {
				out = append(out, in)
			}
		}
		b.Instrs = out
	}
	if ds := Lint(m); len(ds) != 0 {
		t.Fatalf("uninstrumented module flagged:\n%s", ds)
	}
}

func TestLintCatalogCoversAllIDs(t *testing.T) {
	cat := LintCatalog()
	for _, id := range []string{IDRawHeapCall, IDRawFileCall, IDRawExitCall,
		IDGlobalSection, IDMainNotHooked, IDCovCollision, IDProbeMissing} {
		if cat[id] == "" {
			t.Errorf("lint catalog missing entry for %s", id)
		}
	}
	if len(cat) != 7 {
		t.Errorf("lint catalog has %d entries, want 7", len(cat))
	}
}

func TestCheckShortCircuitsOnBrokenStructure(t *testing.T) {
	m := hookedModule()
	// Both a structural defect and a lint defect; Check must surface only
	// the verifier findings so the root cause isn't drowned in noise.
	m.Func(TargetMain).Blocks[1].Instrs = m.Func(TargetMain).Blocks[1].Instrs[:2]
	m.Globals[0].Section = ir.SectionData
	builtins := map[string]bool{"closurex_malloc": true, "closurex_free": true, "closurex_exit": true}
	ds := Check(m, NewBuiltins(builtins))
	if !ds.HasErrors() {
		t.Fatal("Check missed the structural defect")
	}
	for _, d := range ds {
		if d.ID == IDGlobalSection {
			t.Fatalf("Check linted a structurally broken module:\n%s", ds)
		}
	}
}
