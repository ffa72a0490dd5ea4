package analysis

import (
	"fmt"

	"closurex/internal/ir"
)

// Restore-completeness lint catalog. Each lint statically proves one
// invariant the runtime restore machinery depends on; a module passing all
// of them is restartable by construction, so a campaign that still
// diverges points at the harness, not the pipeline.
const (
	IDRawHeapCall   = "CLX001" // malloc/calloc/realloc/free survives HeapPass
	IDRawFileCall   = "CLX002" // fopen/fclose survives FilePass
	IDRawExitCall   = "CLX003" // exit survives ExitPass
	IDGlobalSection = "CLX004" // writable global outside closure_global_section
	IDMainNotHooked = "CLX005" // entry point not renamed to target_main
	IDCovCollision  = "CLX006" // two coverage probes share a map location
	IDProbeMissing  = "CLX007" // instrumented module has a probe-less block
)

// TargetMain is the name the target's entry point carries after the
// pipeline renames main, and the function every execution mechanism
// invokes. InitFunc is the optional deferred-initialization routine the
// harness runs once before the loop. Both are declared here, the lowest
// layer that needs them; passes re-exports them.
const (
	TargetMain = "target_main"
	InitFunc   = "closurex_init"
)

// rawCalls maps each raw libc-style routine the pipeline must hook to the
// lint that fires when a call site survives, the pass held responsible,
// and the wrapper the call should have been rewritten to.
var rawCalls = map[string]struct {
	id, pass, wrapper string
}{
	"malloc":  {IDRawHeapCall, "HeapPass", "closurex_malloc"},
	"calloc":  {IDRawHeapCall, "HeapPass", "closurex_calloc"},
	"realloc": {IDRawHeapCall, "HeapPass", "closurex_realloc"},
	"free":    {IDRawHeapCall, "HeapPass", "closurex_free"},
	"fopen":   {IDRawFileCall, "FilePass", "closurex_fopen"},
	"fclose":  {IDRawFileCall, "FilePass", "closurex_fclose"},
	"exit":    {IDRawExitCall, "ExitPass", "closurex_exit"},
}

// LintCatalog describes every restore-completeness lint, ID to summary —
// the table DESIGN.md §7 renders. It is the CLX001-007 slice of the full
// Catalog, which is the single source of diagnostic wording.
func LintCatalog() map[string]string {
	full := Catalog()
	out := make(map[string]string, 7)
	for _, id := range []string{
		IDRawHeapCall, IDRawFileCall, IDRawExitCall, IDGlobalSection,
		IDMainNotHooked, IDCovCollision, IDProbeMissing,
	} {
		out[id] = full[id]
	}
	return out
}

// Lint runs the restore-completeness lints over a module that is expected
// to have been through the full ClosureX pipeline, returning one
// diagnostic per violation. The module should verify cleanly first
// (Verify); lints assume structural sanity.
func Lint(m *ir.Module) Diagnostics {
	var ds Diagnostics
	ds = append(ds, lintEntry(m)...)
	ds = append(ds, lintRawCalls(m)...)
	ds = append(ds, lintGlobalSections(m)...)
	ds = append(ds, lintCoverage(m)...)
	ds.Sort()
	return ds
}

// lintEntry checks CLX005: RenameMainPass must have renamed main.
func lintEntry(m *ir.Module) Diagnostics {
	var ds Diagnostics
	if m.Func(TargetMain) == nil {
		ds = append(ds, Diagnostic{
			ID: IDMainNotHooked, Sev: SevError, Pass: "RenameMainPass",
			Block: -1, Instr: -1,
			Msg: fmt.Sprintf("module has no %s; the entry point was never renamed", TargetMain),
		})
	}
	if m.Func("main") != nil {
		ds = append(ds, Diagnostic{
			ID: IDMainNotHooked, Sev: SevError, Pass: "RenameMainPass",
			Func: "main", Block: -1, Instr: -1,
			Msg: "function main still present after the pipeline",
		})
	}
	return ds
}

// lintRawCalls checks CLX001/CLX002/CLX003: no raw heap, file or exit call
// site may survive the hooking passes.
func lintRawCalls(m *ir.Module) Diagnostics {
	var ds Diagnostics
	for _, f := range m.Funcs {
		for bi, b := range f.Blocks {
			for ii := range b.Instrs {
				in := &b.Instrs[ii]
				if in.Op != ir.OpCall {
					continue
				}
				hook, raw := rawCalls[in.Callee]
				if !raw || m.Func(in.Callee) != nil {
					// A module function shadowing a libc name is the
					// target's own code, not an unhooked runtime call.
					continue
				}
				ds = append(ds, Diagnostic{
					ID: hook.id, Sev: SevError, Pass: hook.pass,
					Func: f.Name, Block: bi, Instr: ii, Line: in.Pos,
					Msg: fmt.Sprintf("raw %s call survives %s (want %s); state would escape restore tracking",
						in.Callee, hook.pass, hook.wrapper),
				})
			}
		}
	}
	return ds
}

// lintGlobalSections checks CLX004: every writable global must have been
// moved into closure_global_section by GlobalPass, or its mutations would
// persist across iterations.
func lintGlobalSections(m *ir.Module) Diagnostics {
	var ds Diagnostics
	for gi, g := range m.Globals {
		if g.Const || g.Section == ir.SectionClosure {
			continue
		}
		ds = append(ds, Diagnostic{
			ID: IDGlobalSection, Sev: SevError, Pass: "GlobalPass",
			Block: -1, Instr: -1,
			Msg: fmt.Sprintf("writable global %d (%s) in section %q, want %q; its mutations would survive restore",
				gi, g.Name, g.Section, ir.SectionClosure),
		})
	}
	return ds
}

// lintCoverage checks CLX006 and CLX007 on instrumented modules: probe IDs
// must be collision-free (two blocks aliasing one map cell lose coverage
// signal and can mask sentinel divergence), and once any block carries a
// probe, every block must (a probe-less block is invisible to the bitmap).
// A module with no probes at all is simply uninstrumented and both lints
// stay quiet — lint runs on pre-coverage pipelines too.
func lintCoverage(m *ir.Module) Diagnostics {
	type site struct {
		fn        string
		block, ii int
		line      int32
	}
	firstByID := map[int64]site{}
	var ds Diagnostics
	probes, blocks := 0, 0
	var missing []site
	for _, f := range m.Funcs {
		for bi, b := range f.Blocks {
			blocks++
			hasProbe := false
			for ii := range b.Instrs {
				in := &b.Instrs[ii]
				if in.Op != ir.OpCov {
					continue
				}
				probes++
				hasProbe = true
				if prev, dup := firstByID[in.Imm]; dup {
					ds = append(ds, Diagnostic{
						ID: IDCovCollision, Sev: SevError, Pass: "CoveragePass",
						Func: f.Name, Block: bi, Instr: ii, Line: in.Pos,
						Msg: fmt.Sprintf("probe ID %d collides with %s b%d#%d; the two blocks alias one coverage cell",
							in.Imm, prev.fn, prev.block, prev.ii),
					})
				} else {
					firstByID[in.Imm] = site{f.Name, bi, ii, in.Pos}
				}
			}
			if !hasProbe {
				line := int32(0)
				if len(b.Instrs) > 0 {
					line = b.Instrs[0].Pos
				}
				missing = append(missing, site{f.Name, bi, -1, line})
			}
		}
	}
	if probes > 0 {
		for _, s := range missing {
			ds = append(ds, Diagnostic{
				ID: IDProbeMissing, Sev: SevError, Pass: "CoveragePass",
				Func: s.fn, Block: s.block, Instr: -1, Line: s.line,
				Msg: "block carries no coverage probe although the module is instrumented",
			})
		}
	}
	return ds
}

// LintShared runs the lint subset every build variant must satisfy —
// entry-point renaming and coverage sanity. Baseline (fresh/forkserver)
// builds legitimately keep raw heap, file and exit calls, so tools lint
// them with this entry instead of Lint.
func LintShared(m *ir.Module) Diagnostics {
	var ds Diagnostics
	ds = append(ds, lintEntry(m)...)
	ds = append(ds, lintCoverage(m)...)
	ds.Sort()
	return ds
}

// Check is the one-call entry tools use: Verify then, only when the module
// is structurally sound, Lint, returning the combined findings. Lints over
// a broken module would drown the root cause in noise.
func Check(m *ir.Module, builtins Builtins) Diagnostics {
	ds := Verify(m, builtins)
	if ds.HasErrors() {
		return ds
	}
	return append(ds, Lint(m)...)
}
