package passes

import (
	"errors"
	"strings"
	"testing"

	"closurex/internal/analysis"
	"closurex/internal/ir"
	"closurex/internal/vm"
)

// sectionScramblerPass simulates a buggy pass: it wipes a global's section
// attribute (CLX110), which the structural gate after every pass catches.
type sectionScramblerPass struct{}

func (sectionScramblerPass) Name() string        { return "SectionScramblerPass" }
func (sectionScramblerPass) Description() string { return "test-only: corrupts a global's section" }
func (sectionScramblerPass) Run(m *ir.Module) error {
	m.Globals[0].Section = ""
	return nil
}

// unassignedReadPass simulates a buggy pass that leaves the IR
// structurally sound: it prepends a read of a fresh, never-assigned
// register to the first function (CLX109). Only the dataflow leg of the
// deep verifier sees it.
type unassignedReadPass struct{}

func (unassignedReadPass) Name() string        { return "UnassignedReadPass" }
func (unassignedReadPass) Description() string { return "test-only: reads an unassigned register" }
func (unassignedReadPass) Run(m *ir.Module) error {
	f := m.Funcs[0]
	r := f.NumRegs
	f.NumRegs++
	b := f.Blocks[0]
	b.Instrs = append([]ir.Instr{{Op: ir.OpMov, Dst: r, A: r, B: -1}}, b.Instrs...)
	return nil
}

// wantPassDiag asserts err names the offending pass and carries the
// catalog ID as an errors.Is-able diagnostics error.
func wantPassDiag(t *testing.T, err error, prefix, id string) {
	t.Helper()
	if err == nil {
		t.Fatalf("pipeline accepted the %s corruption", id)
	}
	if !strings.Contains(err.Error(), prefix) {
		t.Fatalf("error does not start with %q: %v", prefix, err)
	}
	if !strings.Contains(err.Error(), id) {
		t.Fatalf("error does not carry the catalog ID %s: %v", id, err)
	}
	if !errors.Is(err, analysis.ErrDiagnostics) {
		t.Fatalf("failure not errors.Is-able as diagnostics: %v", err)
	}
}

func TestVerifyEachAttributesOffendingPass(t *testing.T) {
	// The structural gate runs after every pass, verify-each or not.
	m := compileSample(t)
	err := NewManager(vm.Builtins()).
		Add(RenameMainPass{}, sectionScramblerPass{}, NewCoveragePass(1)).Run(m)
	wantPassDiag(t, err, "after pass SectionScramblerPass", analysis.IDBadSection)

	// A read of an unassigned register passes the structural gate...
	pipeline := func() []Pass { return []Pass{RenameMainPass{}, unassignedReadPass{}, NewCoveragePass(1)} }
	if err := NewManager(vm.Builtins()).Add(pipeline()...).Run(compileSample(t)); err != nil {
		t.Fatalf("structural gate flagged a structurally sound module: %v", err)
	}
	// ...and only the deep verify-each sweep attributes it.
	err = NewManager(vm.Builtins()).VerifyEach(true).Add(pipeline()...).Run(compileSample(t))
	wantPassDiag(t, err, "verify-each: pass UnassignedReadPass", analysis.IDUnassignedUse)
}

func TestVerifyEachQuietOnHealthyPipeline(t *testing.T) {
	m := compileSample(t)
	pm := NewManager(vm.Builtins()).VerifyEach(true)
	pm.Add(ClosureXPipeline(true)...)
	pm.Add(NewCoveragePass(1))
	if err := pm.Run(m); err != nil {
		t.Fatalf("verify-each flagged the canonical pipeline: %v", err)
	}
}

func TestCoveragePassRejectsPreexistingDuplicateProbes(t *testing.T) {
	m := ir.NewModule("t")
	f := &ir.Func{Name: "f", NumRegs: 1, Blocks: []*ir.Block{
		{Instrs: []ir.Instr{
			{Op: ir.OpCov, Dst: -1, Imm: 7},
			{Op: ir.OpBr, Dst: -1, Targets: [2]int{1, 0}},
		}},
		{Instrs: []ir.Instr{
			{Op: ir.OpCov, Dst: -1, Imm: 7}, // hand-placed duplicate
			{Op: ir.OpRet, A: -1, Dst: -1},
		}},
	}}
	if err := m.AddFunc(f); err != nil {
		t.Fatal(err)
	}
	err := NewCoveragePass(1).Run(m)
	if err == nil {
		t.Fatal("duplicate pre-existing probes accepted (collisions used to be silently ignored)")
	}
	if !errors.Is(err, analysis.ErrDiagnostics) {
		t.Fatalf("collision error not errors.Is-able as diagnostics: %v", err)
	}
	if !strings.Contains(err.Error(), analysis.IDCovCollision) {
		t.Fatalf("collision error missing catalog ID %s: %v", analysis.IDCovCollision, err)
	}
}

// TestCoveragePassProbesCollisionsApart seeds a probe squatting on another
// block's preferred hash slot; the pass must deterministically assign the
// next free slot instead of silently aliasing the two blocks.
func TestCoveragePassProbesCollisionsApart(t *testing.T) {
	const seed = 99
	pref := int64(covID(seed, "f", 1)) // block 1's preferred slot
	m := ir.NewModule("t")
	f := &ir.Func{Name: "f", NumRegs: 1, Blocks: []*ir.Block{
		{Instrs: []ir.Instr{
			{Op: ir.OpCov, Dst: -1, Imm: pref}, // squatter
			{Op: ir.OpBr, Dst: -1, Targets: [2]int{1, 0}},
		}},
		{Instrs: []ir.Instr{{Op: ir.OpBr, Dst: -1, Targets: [2]int{2, 0}}}},
		{Instrs: []ir.Instr{{Op: ir.OpRet, A: -1, Dst: -1}}},
	}}
	if err := m.AddFunc(f); err != nil {
		t.Fatal(err)
	}
	if err := NewCoveragePass(seed).Run(m); err != nil {
		t.Fatal(err)
	}
	seen := map[int64][]int{}
	for bi, b := range f.Blocks {
		if len(b.Instrs) == 0 || b.Instrs[0].Op != ir.OpCov {
			t.Fatalf("block %d not instrumented", bi)
		}
		id := b.Instrs[0].Imm
		seen[id] = append(seen[id], bi)
	}
	for id, blocks := range seen {
		if len(blocks) > 1 {
			t.Fatalf("probe ID %d assigned to blocks %v", id, blocks)
		}
	}
	if got, want := f.Blocks[1].Instrs[0].Imm, (pref+1)%covSpace; got != want {
		t.Fatalf("displaced block probed to %d, want the deterministic next slot %d", got, want)
	}
	// The repaired module satisfies the collision lint.
	if ds := analysis.Lint(m).ByID(analysis.IDCovCollision); len(ds) != 0 {
		t.Fatalf("lint still sees collisions after probing:\n%s", ds)
	}
}

func TestCoveragePassIdempotentAfterProbing(t *testing.T) {
	m := compileSample(t)
	if err := (RenameMainPass{}).Run(m); err != nil {
		t.Fatal(err)
	}
	if err := NewCoveragePass(3).Run(m); err != nil {
		t.Fatal(err)
	}
	before := CountProbes(m)
	if err := NewCoveragePass(3).Run(m); err != nil {
		t.Fatalf("re-run over instrumented module: %v", err)
	}
	if after := CountProbes(m); after != before {
		t.Fatalf("re-run changed probe count %d -> %d", before, after)
	}
}
