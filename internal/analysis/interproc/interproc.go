// Package interproc implements the interprocedural mod/ref and lifetime
// analyses behind restore elision: a call-graph construction over lowered
// modules, per-function transitive may-write summaries over
// closure_global_section, and must-release proofs for allocation and
// fopen sites — so the harness can snapshot, watch-track and restore only
// state the target can actually dirty. Every claim the analysis stamps
// into ir.Module.Interproc (and the TrackElide/FileElide instruction
// marks) is re-derivable from scratch by Audit, which is how unsound
// elisions become verifier errors (CLX114/CLX117) instead of silent
// correctness drift.
package interproc

import (
	"fmt"
	"sort"
	"strings"

	"closurex/internal/analysis"
	"closurex/internal/ir"
)

// interprocPass is the Pass attribution carried by this package's
// diagnostics.
const interprocPass = "InterprocPass"

// FuncResult carries one function's per-function analysis outcome.
type FuncResult struct {
	Summary   *Summary
	Reachable bool
	// HeapSites/FileSites list every tracked site in textual order;
	// HeapElide/FileElide the subset proven releasable on all paths.
	HeapSites []Site
	HeapElide map[Site]bool
	FileSites []Site
	FileElide map[Site]bool
}

// Result is the whole-module analysis outcome.
type Result struct {
	Graph *CallGraph
	// Roots are the entry points reachability was computed from.
	Roots []string
	Funcs map[string]*FuncResult
	// MayWriteGlobals is the sorted union of global indices any reachable
	// function may write. Meaningless when WholeSection is set.
	MayWriteGlobals []int
	// WholeSection is set when some reachable function's global writes
	// could not be bounded, or when no root was found.
	WholeSection bool
	// Diags carries the explanation warnings: CLX115 call-graph holes,
	// CLX116 unattributable global writes, CLX118 unreachable functions.
	Diags analysis.Diagnostics
}

// Analyze runs the call graph, mod/ref fixpoint and lifetime analyses
// over m. The module is not modified; Apply stamps the results.
func Analyze(m *ir.Module) *Result {
	res := &Result{
		Graph: BuildCallGraph(m),
		Funcs: make(map[string]*FuncResult, len(m.Funcs)),
	}
	for _, root := range []string{analysis.TargetMain, "main", analysis.InitFunc} {
		if m.Func(root) != nil {
			if root == "main" && len(res.Roots) > 0 {
				continue // target_main present: stale main is the linter's problem
			}
			res.Roots = append(res.Roots, root)
		}
	}
	reach := res.Graph.Reachable(res.Roots...)

	ctxs := make(map[string]*funcCtx, len(m.Funcs))
	var all, reachable []string
	for _, f := range m.Funcs {
		ctxs[f.Name] = newFuncCtx(m, f)
		all = append(all, f.Name)
		if reach[f.Name] {
			reachable = append(reachable, f.Name)
		}
	}
	sort.Strings(all)
	sort.Strings(reachable)
	// Resolve return-value intervals bottom-up before anything consults
	// them; forcing in sorted order keeps the memo state — and with it
	// every downstream conclusion — deterministic across runs.
	rets := newRetOracle(ctxs)
	for _, fn := range all {
		ctxs[fn].rets = rets
	}
	for _, fn := range all {
		rets.retOf(fn)
	}
	sums := computeModRef(m, ctxs, reachable)

	// Reporting pass: re-derive each reachable function's effects against
	// the stable summaries, collecting the CLX115/CLX116 explanations.
	st := &modRefState{m: m, ctxs: ctxs, sums: sums, grow: map[string]int{}}
	for _, fn := range reachable {
		st.effects(ctxs[fn], &res.Diags)
	}

	mayExit := func(callee string) bool {
		if s := sums[callee]; s != nil {
			return s.MayExit
		}
		return true // no summary (unreachable from roots): assume the worst
	}
	ps := newParamSafety(m)

	writes := map[int]bool{}
	if len(res.Roots) == 0 {
		res.WholeSection = true
	}
	for _, f := range m.Funcs {
		fr := &FuncResult{
			Reachable: reach[f.Name],
			Summary:   sums[f.Name],
			HeapElide: map[Site]bool{},
			FileElide: map[Site]bool{},
		}
		if fr.Summary == nil {
			fr.Summary = newSummary()
		}
		res.Funcs[f.Name] = fr
		if fr.Reachable {
			if fr.Summary.Unknown {
				res.WholeSection = true
			}
			for g := range fr.Summary.WritesGlobals {
				writes[g] = true
			}
			// A root whose own parameters are written is a contract the
			// harness cannot check; treat as unbounded.
			if len(fr.Summary.ParamWrites) > 0 && isRoot(res.Roots, f.Name) {
				res.WholeSection = true
			}
		} else {
			res.Diags = append(res.Diags, analysis.Diagnostic{
				ID: analysis.IDUnreachableFn, Sev: analysis.SevWarn, Pass: interprocPass,
				Func: f.Name, Block: -1, Instr: -1,
				Msg: fmt.Sprintf("function unreachable from %s; its sites elide vacuously", strings.Join(res.Roots, "/")),
			})
		}

		lt := &lifetime{fc: ctxs[f.Name], kind: heapLifetime, mayExit: mayExit, ps: ps}
		fr.HeapSites = lifetimeSites(f, heapLifetime)
		for _, s := range fr.HeapSites {
			if !fr.Reachable || lt.elidable(s) {
				fr.HeapElide[s] = true
			}
		}
		lt = &lifetime{fc: ctxs[f.Name], kind: fileLifetime, mayExit: mayExit, ps: ps}
		fr.FileSites = lifetimeSites(f, fileLifetime)
		for _, s := range fr.FileSites {
			if !fr.Reachable || lt.elidable(s) {
				fr.FileElide[s] = true
			}
		}
	}
	for g := range writes {
		res.MayWriteGlobals = append(res.MayWriteGlobals, g)
	}
	sort.Ints(res.MayWriteGlobals)
	res.Diags.Sort()
	return res
}

func isRoot(roots []string, fn string) bool {
	for _, r := range roots {
		if r == fn {
			return true
		}
	}
	return false
}

// Info renders the result as the ir.InterprocInfo metadata InterprocPass
// stamps on the module.
func (res *Result) Info() *ir.InterprocInfo {
	info := &ir.InterprocInfo{
		MayWriteGlobals: append([]int(nil), res.MayWriteGlobals...),
		WholeSection:    res.WholeSection,
	}
	names := sortedFuncNames(res.Funcs)
	for _, fn := range names {
		fr := res.Funcs[fn]
		info.AllocSites += len(fr.HeapSites)
		info.AllocElided += len(fr.HeapElide)
		info.FileSites += len(fr.FileSites)
		info.FileElided += len(fr.FileElide)
	}
	return info
}

// Apply stamps the analysis results onto the module: TrackElide/FileElide
// marks on the proven sites and the ir.InterprocInfo metadata. It is how
// passes.InterprocPass commits the analysis; Audit re-derives everything.
func Apply(m *ir.Module, res *Result) {
	for _, f := range m.Funcs {
		fr := res.Funcs[f.Name]
		if fr == nil {
			continue
		}
		for s := range fr.HeapElide {
			f.Blocks[s.Block].Instrs[s.Instr].TrackElide = true
		}
		for s := range fr.FileElide {
			f.Blocks[s.Block].Instrs[s.Instr].FileElide = true
		}
	}
	m.Interproc = res.Info()
}

func sortedFuncNames(m map[string]*FuncResult) []string {
	out := make([]string, 0, len(m))
	for fn := range m {
		out = append(out, fn)
	}
	sort.Strings(out)
	return out
}

// --- reporting (closurex-lint -interproc-report) ---

// FuncReport is one row of the per-function report table.
type FuncReport struct {
	Name      string
	Reachable bool
	// GlobalWrites counts globals the function's transitive summary may
	// write; -1 renders as "whole-section".
	GlobalWrites int
	MayExit      bool
	HeapSites    int
	HeapElided   int
	FileSites    int
	FileElided   int
}

// Report aggregates the per-function tables plus module-level scope.
type Report struct {
	Funcs           []FuncReport
	MayWriteGlobals int
	TotalGlobals    int
	WholeSection    bool
}

// ReportModule analyzes m from scratch and builds the per-function table
// — the closurex-lint -interproc-report entry point.
func ReportModule(m *ir.Module) *Report {
	return ReportResult(m, Analyze(m))
}

// ReportResult builds the lint report from an analysis result.
func ReportResult(m *ir.Module, res *Result) *Report {
	rep := &Report{
		MayWriteGlobals: len(res.MayWriteGlobals),
		TotalGlobals:    len(m.Globals),
		WholeSection:    res.WholeSection,
	}
	for _, fn := range sortedFuncNames(res.Funcs) {
		fr := res.Funcs[fn]
		row := FuncReport{
			Name:       fn,
			Reachable:  fr.Reachable,
			MayExit:    fr.Summary.MayExit,
			HeapSites:  len(fr.HeapSites),
			HeapElided: len(fr.HeapElide),
			FileSites:  len(fr.FileSites),
			FileElided: len(fr.FileElide),
		}
		if fr.Summary.Unknown {
			row.GlobalWrites = -1
		} else {
			row.GlobalWrites = len(fr.Summary.WritesGlobals)
		}
		rep.Funcs = append(rep.Funcs, row)
	}
	return rep
}

// Format renders the report as the table closurex-lint prints.
func (r *Report) Format() string {
	var sb strings.Builder
	scope := fmt.Sprintf("%d/%d globals may-written", r.MayWriteGlobals, r.TotalGlobals)
	if r.WholeSection {
		scope = "whole-section (writes not bounded)"
	}
	fmt.Fprintf(&sb, "restore scope: %s\n", scope)
	fmt.Fprintf(&sb, "%-24s %5s %8s %7s %11s %11s\n",
		"function", "reach", "gwrites", "mayexit", "heap e/n", "file e/n")
	for _, fr := range r.Funcs {
		reach, exits := "yes", "no"
		if !fr.Reachable {
			reach = "no"
		}
		if fr.MayExit {
			exits = "yes"
		}
		gw := fmt.Sprintf("%d", fr.GlobalWrites)
		if fr.GlobalWrites < 0 {
			gw = "whole"
		}
		fmt.Fprintf(&sb, "%-24s %5s %8s %7s %5d/%-5d %5d/%-5d\n",
			fr.Name, reach, gw, exits,
			fr.HeapElided, fr.HeapSites, fr.FileElided, fr.FileSites)
	}
	return sb.String()
}
