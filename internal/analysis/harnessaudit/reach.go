package harnessaudit

// Static reachability — the dead-surface analysis (CLX119). Function-level
// reachability comes from the interprocedural call graph rooted at the
// harness entry points; block-level reachability from each live function's
// CFG. Dead surface is harmless at runtime (it simply never executes) but
// it inflates the probe population, dilutes the static edge denominator
// coverage percentages are quoted against, and — per the harness-rot
// studies — usually marks an API the harness silently stopped exercising.

import (
	"fmt"
	"sort"

	"closurex/internal/analysis"
	"closurex/internal/analysis/interproc"
	"closurex/internal/ir"
)

// funcReach is one function's surface accounting.
type funcReach struct {
	name      string
	reachable bool  // on some interprocedural path from a root
	blocks    int   // total basic blocks
	liveBlk   int   // blocks reachable from the function's entry
	deadBlk   []int // CFG-unreachable block indices, ascending
}

// reachResult is the module's surface accounting, functions in module order.
type reachResult struct {
	funcs []funcReach
	roots []string
}

// analyzeReach computes function- and block-level reachability. Roots are
// target_main (falling back to main for un-renamed modules, matching the
// interproc analysis) plus closurex_init when present: the harness invokes
// exactly these.
func analyzeReach(m *ir.Module) *reachResult {
	var roots []string
	if m.Func(analysis.TargetMain) != nil {
		roots = append(roots, analysis.TargetMain)
	} else if m.Func("main") != nil {
		roots = append(roots, "main")
	}
	if m.Func(analysis.InitFunc) != nil {
		roots = append(roots, analysis.InitFunc)
	}
	live := interproc.BuildCallGraph(m).Reachable(roots...)

	res := &reachResult{roots: roots}
	for _, f := range m.Funcs {
		fr := funcReach{
			name:      f.Name,
			reachable: live[f.Name],
			blocks:    len(f.Blocks),
		}
		if len(f.Blocks) > 0 {
			ok := analysis.BuildCFG(f).Reachable()
			for bi := range f.Blocks {
				if ok[bi] {
					fr.liveBlk++
				} else {
					fr.deadBlk = append(fr.deadBlk, bi)
				}
			}
		}
		res.funcs = append(res.funcs, fr)
	}
	return res
}

// diagnostics emits CLX119: one per unreachable function, and one per
// CFG-dead block inside a reachable function (dead blocks inside dead
// functions are subsumed by the function finding).
func (r *reachResult) diagnostics() analysis.Diagnostics {
	var ds analysis.Diagnostics
	for i := range r.funcs {
		fr := &r.funcs[i]
		if !fr.reachable {
			ds = append(ds, analysis.Diagnostic{
				ID: analysis.IDDeadSurface, Sev: analysis.SevWarn, Pass: auditPass,
				Func: fr.name, Block: -1, Instr: -1,
				Msg: fmt.Sprintf("dead harness surface: %s is unreachable from %v; its %d block(s) only burn probe IDs",
					fr.name, r.roots, fr.blocks),
			})
			continue
		}
		for _, bi := range fr.deadBlk {
			ds = append(ds, analysis.Diagnostic{
				ID: analysis.IDDeadSurface, Sev: analysis.SevWarn, Pass: auditPass,
				Func: fr.name, Block: bi, Instr: -1,
				Msg: fmt.Sprintf("dead harness surface: block b%d of %s is unreachable from the function entry",
					bi, fr.name),
			})
		}
	}
	return ds
}

// totals returns (functions, reachable functions, blocks, reachable
// blocks). Blocks of an interprocedurally dead function count as dead even
// when internally CFG-connected.
func (r *reachResult) totals() (funcs, liveFuncs, blocks, liveBlocks int) {
	for i := range r.funcs {
		fr := &r.funcs[i]
		funcs++
		blocks += fr.blocks
		if fr.reachable {
			liveFuncs++
			liveBlocks += fr.liveBlk
		}
	}
	return
}

// deadFuncNames returns the unreachable function names, sorted.
func (r *reachResult) deadFuncNames() []string {
	var out []string
	for i := range r.funcs {
		if !r.funcs[i].reachable {
			out = append(out, r.funcs[i].name)
		}
	}
	sort.Strings(out)
	return out
}
