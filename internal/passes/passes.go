// Package passes implements the ClosureX instrumentation pipeline — the
// paper's Table 3 — over the project IR, mirroring the LLVM passes of the
// original system:
//
//	RenameMainPass  rename target's main            (setName)
//	HeapPass        track target's heap memory      (replaceAllUsesWith)
//	FilePass        track target's file descriptors (replaceAllUsesWith)
//	GlobalPass      move writable globals into closure_global_section (setSection)
//	ExitPass        rename target's exit calls      (replaceAllUsesWith)
//
// plus the CoveragePass both fuzzing configurations share (the stand-in for
// AFL++'s Sanitizer-Coverage pcguard instrumentation) and the optional
// DeferInitPass from the paper's future-work section.
package passes

import (
	"fmt"

	"closurex/internal/analysis"
	"closurex/internal/analysis/interproc"
	"closurex/internal/ir"
)

// TargetMain is the name the target's entry point carries after
// RenameMainPass, and the function every execution mechanism invokes.
const TargetMain = analysis.TargetMain

// InitFunc is the optional deferred-initialization routine recognized by
// DeferInitPass: a niladic function whose work is input-independent.
const InitFunc = analysis.InitFunc

// CoverageSeed fixes coverage-probe IDs so every build shares the same map
// geometry (the evaluation holds instrumentation constant across
// mechanisms, and the harness audit scores the geometry builds get).
const CoverageSeed = 0xC105

// Pass is one IR-to-IR transformation.
type Pass interface {
	Name() string
	Description() string
	Run(m *ir.Module) error
}

// Manager runs a pipeline of passes, checking the module's structure after
// each one (like `opt -verify-each`).
type Manager struct {
	passes     []Pass
	builtins   analysis.Builtins
	verifyEach bool
}

// NewManager returns an empty pipeline; builtins is the callee set the
// verifier accepts.
func NewManager(builtins map[string]bool) *Manager {
	return &Manager{builtins: analysis.NewBuiltins(builtins)}
}

// Add appends a pass.
func (pm *Manager) Add(p ...Pass) *Manager {
	pm.passes = append(pm.passes, p...)
	return pm
}

// VerifyEach arms the deep check between passes: in addition to the
// structural gate every pass gets, Verify (definite assignment and the
// interprocedural elision audit) re-checks the module after every pass,
// and a failure names the pass that broke the invariant. This is the
// `opt -verify-each` workflow; the verifyeach build tag turns it on for
// every build in the test suite.
func (pm *Manager) VerifyEach(on bool) *Manager {
	pm.verifyEach = on
	return pm
}

// Passes lists the registered passes in order.
func (pm *Manager) Passes() []Pass { return pm.passes }

// Run applies every pass to m in order.
func (pm *Manager) Run(m *ir.Module) error {
	for _, p := range pm.passes {
		if err := p.Run(m); err != nil {
			return fmt.Errorf("pass %s: %w", p.Name(), err)
		}
		if err := analysis.VerifyStructure(m, pm.builtins).Err(); err != nil {
			return fmt.Errorf("after pass %s: %w", p.Name(), err)
		}
		if pm.verifyEach {
			if err := Verify(m, pm.builtins).Err(); err != nil {
				return fmt.Errorf("verify-each: pass %s left the module invalid: %w", p.Name(), err)
			}
		}
	}
	return nil
}

// Verify is the deep check of a module: the full analysis verifier
// (structure plus definite assignment) and the interprocedural elision
// audit, which re-derives every TrackElide/FileElide mark and the recorded
// may-write metadata from the module as it stands (CLX114/CLX117 on
// drift). An unsound elision claim is a pipeline bug on par with a
// structural violation.
func Verify(m *ir.Module, builtins analysis.Builtins) analysis.Diagnostics {
	ds := analysis.Verify(m, builtins)
	ds = append(ds, interproc.Audit(m)...)
	ds.Sort()
	return ds
}

// ClosureXPipeline returns the paper's pass pipeline in its canonical
// order, optionally including the DeferInitPass extension.
func ClosureXPipeline(deferInit bool) []Pass {
	ps := []Pass{
		RenameMainPass{},
		ExitPass{},
		HeapPass{},
		FilePass{},
		GlobalPass{},
	}
	if deferInit {
		ps = append(ps, DeferInitPass{})
	}
	return ps
}

// ---- RenameMainPass ----

// RenameMainPass renames the target's main to target_main and rewrites the
// call sites, exactly as the paper's pass calls setName.
type RenameMainPass struct{}

// Name implements Pass.
func (RenameMainPass) Name() string { return "RenameMainPass" }

// Description implements Pass.
func (RenameMainPass) Description() string { return "Rename target's main" }

// Run implements Pass.
func (RenameMainPass) Run(m *ir.Module) error {
	if m.Func(TargetMain) != nil {
		return nil // idempotent: already renamed
	}
	if m.Func("main") == nil {
		return fmt.Errorf("module has no main function")
	}
	return m.RenameFunc("main", TargetMain)
}

// ---- ExitPass ----

// ExitPass replaces the target's exit() calls with the exitHook that
// longjmps back to the harness. Calls inside the runtime (builtins) are
// untouched — only instrumented target code is rewritten, as in the paper.
type ExitPass struct{}

// Name implements Pass.
func (ExitPass) Name() string { return "ExitPass" }

// Description implements Pass.
func (ExitPass) Description() string { return "Rename target's exit calls" }

// Run implements Pass.
func (ExitPass) Run(m *ir.Module) error {
	m.RewriteCalls("exit", "closurex_exit")
	return nil
}

// ---- HeapPass ----

// HeapPass routes the malloc family through the tracking wrappers that feed
// the harness's chunk map (Figure 5).
type HeapPass struct{}

// Name implements Pass.
func (HeapPass) Name() string { return "HeapPass" }

// Description implements Pass.
func (HeapPass) Description() string { return "Inject tracking of target's heap memory" }

// Run implements Pass.
func (HeapPass) Run(m *ir.Module) error {
	for _, pair := range [][2]string{
		{"malloc", "closurex_malloc"},
		{"calloc", "closurex_calloc"},
		{"realloc", "closurex_realloc"},
		{"free", "closurex_free"},
	} {
		m.RewriteCalls(pair[0], pair[1])
	}
	return nil
}

// ---- FilePass ----

// FilePass routes fopen/fclose through the tracking wrappers that feed the
// harness's file-handle map.
type FilePass struct{}

// Name implements Pass.
func (FilePass) Name() string { return "FilePass" }

// Description implements Pass.
func (FilePass) Description() string { return "Inject tracking of target's file descriptors" }

// Run implements Pass.
func (FilePass) Run(m *ir.Module) error {
	m.RewriteCalls("fopen", "closurex_fopen")
	m.RewriteCalls("fclose", "closurex_fclose")
	return nil
}

// ---- GlobalPass ----

// GlobalPass moves every potentially-modifiable global (isConstant() ==
// false) into closure_global_section so the harness can snapshot and
// restore exactly the mutable global state (Figures 3 and 4).
type GlobalPass struct{}

// Name implements Pass.
func (GlobalPass) Name() string { return "GlobalPass" }

// Description implements Pass.
func (GlobalPass) Description() string {
	return "Move target's writable globals into a separate memory section"
}

// Run implements Pass.
func (GlobalPass) Run(m *ir.Module) error {
	for _, g := range m.Globals {
		if !g.Const {
			g.Section = ir.SectionClosure
		}
	}
	return nil
}

// ---- DeferInitPass (future-work extension) ----

// DeferInitPass hoists the target's input-independent initialization out of
// the fuzzing loop: calls to the InitFunc convention routine are removed
// from the instrumented code (their destination registers become 0), and
// the harness instead invokes InitFunc once before the loop and marks the
// resulting heap chunks and descriptors as persistent.
type DeferInitPass struct{}

// Name implements Pass.
func (DeferInitPass) Name() string { return "DeferInitPass" }

// Description implements Pass.
func (DeferInitPass) Description() string {
	return "Hoist input-independent initialization out of the fuzzing loop"
}

// Run implements Pass.
func (DeferInitPass) Run(m *ir.Module) error {
	initFn := m.Func(InitFunc)
	if initFn == nil {
		return nil // nothing to hoist
	}
	if initFn.NumParams != 0 {
		return fmt.Errorf("%s must take no parameters", InitFunc)
	}
	for _, f := range m.Funcs {
		if f.Name == InitFunc {
			continue
		}
		for _, b := range f.Blocks {
			for i := range b.Instrs {
				in := &b.Instrs[i]
				if in.Op == ir.OpCall && in.Callee == InitFunc {
					// Replace the hoisted call with `dst = 0`.
					*in = ir.Instr{Op: ir.OpConst, Dst: in.Dst, A: -1, B: -1, Imm: 0, Pos: in.Pos}
				}
			}
		}
	}
	return nil
}

// ---- CoveragePass ----

// CoveragePass inserts a coverage probe at the head of every basic block.
// Probe IDs are deterministic hashes of (seed, function, block), matching
// the role of AFL++'s compile-time random block IDs; both the ClosureX and
// the baseline build use this same pass, as the paper's evaluation fixes
// coverage instrumentation across configurations.
type CoveragePass struct {
	seed uint64
}

// NewCoveragePass returns a coverage pass with the given ID seed.
func NewCoveragePass(seed uint64) CoveragePass { return CoveragePass{seed: seed} }

// Name implements Pass.
func (CoveragePass) Name() string { return "CoveragePass" }

// Description implements Pass.
func (CoveragePass) Description() string { return "Insert hit-count edge-coverage probes" }

// covSpace is the number of distinct probe IDs (the 16-bit coverage map).
const covSpace = 1 << 16

// CovMapCells is covSpace for external clients: the number of coverage-map
// cells a probe ID can land in. harnessaudit's geometry analysis uses it as
// the default saturation denominator; fuzz.MapSize mirrors it on the
// runtime side (cross-checked by a test).
const CovMapCells = covSpace

// PreferredProbeID returns the probe ID covID would assign to (fn, block)
// before collision repair. A probe whose committed Imm differs was
// displaced by linear probing — the displacement density is harnessaudit's
// collision metric.
func PreferredProbeID(seed uint64, fn string, block int) int64 {
	return int64(covID(seed, fn, block))
}

// Run implements Pass. Probe IDs are collision-free by construction: the
// hash is the preferred slot, and an occupied slot deterministically probes
// forward (id+1 mod 2^16), so two blocks can never alias one coverage cell
// — a collision used to be silently ignored and cost both coverage signal
// and sentinel sensitivity. Pre-existing probes (idempotent re-runs,
// hand-instrumented modules) claim their IDs first; duplicates among them
// cannot be repaired without moving probes under a fuzzer's feet, so they
// surface as structured diagnostics instead.
func (p CoveragePass) Run(m *ir.Module) error {
	type site struct {
		fn     string
		bi, ii int
	}
	used := make(map[int64]site)
	var ds analysis.Diagnostics
	for _, f := range m.Funcs {
		for bi, b := range f.Blocks {
			for ii := range b.Instrs {
				in := &b.Instrs[ii]
				if in.Op != ir.OpCov {
					continue
				}
				if prev, dup := used[in.Imm]; dup {
					ds = append(ds, analysis.Diagnostic{
						ID: analysis.IDCovCollision, Sev: analysis.SevError,
						Pass: "CoveragePass", Func: f.Name, Block: bi, Instr: ii, Line: in.Pos,
						Msg: fmt.Sprintf("existing probe ID %d collides with %s b%d#%d",
							in.Imm, prev.fn, prev.bi, prev.ii),
					})
					continue
				}
				used[in.Imm] = site{f.Name, bi, ii}
			}
		}
	}
	if err := ds.Err(); err != nil {
		return err
	}
	for _, f := range m.Funcs {
		for bi, b := range f.Blocks {
			if len(b.Instrs) > 0 && b.Instrs[0].Op == ir.OpCov {
				continue // idempotent
			}
			if len(used) >= covSpace {
				return fmt.Errorf("pass CoveragePass: %w: module has more than %d blocks; the coverage map cannot give each a distinct cell",
					analysis.ErrDiagnostics, covSpace)
			}
			id := int64(covID(p.seed, f.Name, bi))
			for {
				if _, taken := used[id]; !taken {
					break
				}
				id = (id + 1) % covSpace
			}
			used[id] = site{f.Name, bi, 0}
			probe := ir.Instr{Op: ir.OpCov, Dst: -1, A: -1, B: -1, Imm: id}
			if len(b.Instrs) > 0 {
				probe.Pos = b.Instrs[0].Pos
			}
			b.Instrs = append([]ir.Instr{probe}, b.Instrs...)
		}
	}
	return nil
}

// covID hashes a block's identity into a 16-bit map location.
func covID(seed uint64, fn string, block int) uint64 {
	h := seed ^ 14695981039346656037
	for i := 0; i < len(fn); i++ {
		h = (h ^ uint64(fn[i])) * 1099511628211
	}
	h = (h ^ uint64(block)) * 1099511628211
	return h & 0xffff
}

// TotalEdges returns the static bound on distinct coverage-map edges for a
// module instrumented by CoveragePass with call-transparent semantics: one
// per intra-function CFG edge (1 for Br, 2 for CondBr), one entry edge per
// direct call to a module function, and one root-entry edge per function
// (any function may be invoked directly by the harness). This is the
// denominator of Table 6's coverage percentages.
func TotalEdges(m *ir.Module) int {
	n := 0
	for _, f := range m.Funcs {
		n++ // potential root entry (prev_loc == 0)
		for _, b := range f.Blocks {
			for i := range b.Instrs {
				in := &b.Instrs[i]
				switch in.Op {
				case ir.OpBr:
					n++
				case ir.OpCondBr:
					n += 2
				case ir.OpCall:
					if m.Func(in.Callee) != nil {
						n++
					}
				}
			}
		}
	}
	return n
}

// CountProbes returns the number of coverage probes in the module.
func CountProbes(m *ir.Module) int {
	n := 0
	for _, f := range m.Funcs {
		for _, b := range f.Blocks {
			for i := range b.Instrs {
				if b.Instrs[i].Op == ir.OpCov {
					n++
				}
			}
		}
	}
	return n
}
