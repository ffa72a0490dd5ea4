package interproc

import (
	"fmt"

	"closurex/internal/analysis"
	"closurex/internal/ir"
)

// Site locates one instruction (an allocation or fopen call) inside a
// function.
type Site struct {
	Block, Instr int
}

// Heap-lifetime and file-lifetime analysis: an allocation (fopen) site is
// elidable when, on every path from the site to the function's exit, the
// chunk (descriptor) is either provably released — a free/fclose whose
// argument must-aliases the site's result — or the path provably cannot
// leak it into the next iteration:
//
//   - a fault (abort, OpUnreachable) respawns the whole VM, rebuilding the
//     chunk map and fd table from scratch;
//   - the branch edge on which the site's result is NULL carries no chunk
//     at all (malloc-failure paths are vacuously clean), recognized from
//     the lowerer's null-test shapes: `p`, `!p`, `p == 0`, `p != 0`;
//   - a cycle with no release and no return can only end in a fault
//     (execution budget), which respawns.
//
// Conversely a path fails when it returns, reaches exit()/closurex_exit
// (directly or through a callee that may exit), or re-executes the site
// before releasing the previous chunk. Escaping sites — pointer stored to
// memory, returned, or passed to a module function or realloc — are never
// elided: something outside the function could retain or free them.

// lifetimeKind selects which resource family a query is about.
type lifetimeKind int

const (
	heapLifetime lifetimeKind = iota
	fileLifetime
)

func (k lifetimeKind) isSiteCall(callee string) bool {
	if k == heapLifetime {
		return analysis.AllocCallees[callee] || analysis.ReallocCallees[callee]
	}
	return analysis.FopenCallees[callee]
}

func (k lifetimeKind) isRelease(callee string) bool {
	if k == heapLifetime {
		return analysis.FreeCallees[callee]
	}
	return analysis.FcloseCallees[callee]
}

// lifetimeSites returns every site of the given kind in f, in textual
// order. For heap, realloc sites are included (they are tracked chunks)
// but are never elidable.
func lifetimeSites(f *ir.Func, k lifetimeKind) []Site {
	var out []Site
	for bi, b := range f.Blocks {
		for ii := range b.Instrs {
			in := &b.Instrs[ii]
			if in.Op == ir.OpCall && k.isSiteCall(in.Callee) {
				out = append(out, Site{Block: bi, Instr: ii})
			}
		}
	}
	return out
}

// lifetime runs site queries over one function.
type lifetime struct {
	fc      *funcCtx
	kind    lifetimeKind
	mayExit func(callee string) bool // module callee may reach exit()
	// ps, when non-nil, refines the "passed to a module function" escape
	// rule with per-parameter retention summaries; nil treats every such
	// call as an escape (the pre-summary behavior).
	ps *paramSafety
}

// elidable decides whether the site's tracking can be skipped.
func (lt *lifetime) elidable(site Site) bool {
	f := lt.fc.F
	in := &f.Blocks[site.Block].Instrs[site.Instr]
	if lt.kind == heapLifetime && analysis.ReallocCallees[in.Callee] {
		return false // freed-or-untouched-on-failure defeats must-free proofs
	}
	if in.Dst < 0 {
		return false // result discarded: released by nobody
	}
	siteIdx, ok := lt.fc.RD.SiteAt(site.Block, site.Instr)
	if !ok {
		return false
	}
	if lt.escapes(site, in.Dst) {
		return false
	}
	visited := make(map[Site]bool)
	return lt.walk(Site{Block: site.Block, Instr: site.Instr + 1}, site, siteIdx, visited)
}

// escapes reports whether the site's result may leave the function's
// hands: stored to memory as a value, returned, or passed to a module
// function or realloc. Flow-insensitive may-alias taint over mov/add/sub,
// hence conservative. Builtins other than realloc never retain pointers
// (and extra frees elsewhere can only fault, which respawns), so passing
// to them is not an escape.
func (lt *lifetime) escapes(site Site, dst int) bool {
	f := lt.fc.F
	tainted := analysis.DerivedFrom(f, dst)
	for _, b := range f.Blocks {
		for ii := range b.Instrs {
			in := &b.Instrs[ii]
			switch in.Op {
			case ir.OpStore:
				if in.B >= 0 && in.B < f.NumRegs && tainted[in.B] {
					return true
				}
			case ir.OpRet:
				if in.A >= 0 && in.A < f.NumRegs && tainted[in.A] {
					return true
				}
			case ir.OpCall:
				if analysis.ReallocCallees[in.Callee] {
					for _, a := range in.Args {
						if a >= 0 && a < f.NumRegs && tainted[a] {
							return true
						}
					}
					continue
				}
				if lt.fc.M.Func(in.Callee) == nil {
					continue // builtins other than realloc never retain pointers
				}
				for i, a := range in.Args {
					if a < 0 || a >= f.NumRegs || !tainted[a] {
						continue
					}
					// Passing the pointer to a module function is only an
					// escape when that callee can retain or release it.
					if lt.ps == nil || !lt.ps.safe(in.Callee, i) {
						return true
					}
				}
			}
		}
	}
	return false
}

// paramSafety summarizes, per module function and parameter, whether a
// resource pointer (or descriptor) passed in that position stays in the
// caller's hands: the callee — transitively — never stores it to memory,
// never returns it, and never passes it to free/realloc/fclose. Read-only
// consumers like `rd_le16(buf + pos)` or a checksum walk are then no
// longer escapes, which is what lets buffers handed to module helpers
// keep their must-free proofs. Recursion resolves conservatively (unsafe)
// and results are memoized, so queries are deterministic in any order.
type paramSafety struct {
	m      *ir.Module
	memo   map[string][]int8 // 0 unknown, 1 safe, 2 unsafe
	inProg map[string]bool   // "fn#param" recursion guard
}

func newParamSafety(m *ir.Module) *paramSafety {
	return &paramSafety{
		m:      m,
		memo:   make(map[string][]int8),
		inProg: make(map[string]bool),
	}
}

// safe reports whether parameter p of fn neither escapes nor is released
// by fn (transitively).
func (ps *paramSafety) safe(fn string, p int) bool {
	f := ps.m.Func(fn)
	if f == nil || p < 0 || p >= f.NumParams {
		return false
	}
	st := ps.memo[fn]
	if st == nil {
		st = make([]int8, f.NumParams)
		ps.memo[fn] = st
	}
	if st[p] != 0 {
		return st[p] == 1
	}
	key := fmt.Sprintf("%s#%d", fn, p)
	if ps.inProg[key] {
		return false // recursive cycle: assume retained
	}
	ps.inProg[key] = true
	ok := ps.compute(f, p)
	delete(ps.inProg, key)
	if ok {
		st[p] = 1
	} else {
		st[p] = 2
	}
	return ok
}

// compute scans f for uses of parameter p (registers 0..NumParams-1 hold
// the incoming parameters) that retain or release the value.
func (ps *paramSafety) compute(f *ir.Func, p int) bool {
	tainted := analysis.DerivedFrom(f, p)
	for _, b := range f.Blocks {
		for ii := range b.Instrs {
			in := &b.Instrs[ii]
			switch in.Op {
			case ir.OpStore:
				if in.B >= 0 && in.B < f.NumRegs && tainted[in.B] {
					return false // stored as a value: retained
				}
			case ir.OpRet:
				if in.A >= 0 && in.A < f.NumRegs && tainted[in.A] {
					return false // returned: the caller-side walk loses track
				}
			case ir.OpCall:
				releases := analysis.FreeCallees[in.Callee] || analysis.ReallocCallees[in.Callee] ||
					analysis.FcloseCallees[in.Callee]
				callee := ps.m.Func(in.Callee)
				if !releases && callee == nil {
					continue // non-releasing builtin: never retains
				}
				for i, a := range in.Args {
					if a < 0 || a >= f.NumRegs || !tainted[a] {
						continue
					}
					if releases {
						return false // released here, invisibly to the caller
					}
					if !ps.safe(in.Callee, i) {
						return false
					}
				}
			}
		}
	}
	return true
}

// walk explores forward from pos, returning true when no leaking path is
// reachable before a release of the site's resource. Positions are
// memoized; revisiting an in-flight position closes a cycle, which is
// safe (a releaseless, returnless cycle ends in a budget fault and a
// respawn).
func (lt *lifetime) walk(pos, site Site, siteIdx int, visited map[Site]bool) bool {
	if visited[pos] {
		return true
	}
	visited[pos] = true
	f := lt.fc.F
	if pos.Block < 0 || pos.Block >= len(f.Blocks) {
		return false
	}
	b := f.Blocks[pos.Block]
	for ii := pos.Instr; ii < len(b.Instrs); ii++ {
		in := &b.Instrs[ii]
		switch in.Op {
		case ir.OpCall:
			if pos.Block == site.Block && ii == site.Instr {
				return false // re-allocated before the previous chunk's release
			}
			if lt.kind.isRelease(in.Callee) && len(in.Args) >= 1 &&
				lt.fc.resolvePtr(pos.Block, ii, in.Args[0]) == siteIdx {
				return true // released on this path
			}
			if eff := builtinEffects[in.Callee]; eff != nil {
				if eff.exits {
					return false // exit() unwinds past the pending release
				}
				if in.Callee == "abort" {
					return true // unconditional fault: VM respawns
				}
				continue
			}
			if lt.fc.M.Func(in.Callee) != nil {
				if lt.mayExit != nil && lt.mayExit(in.Callee) {
					return false // callee may unwind the iteration
				}
				continue
			}
			return false // unknown callee: assume the worst
		case ir.OpRet:
			return false // function returns with the resource unreleased
		case ir.OpUnreachable:
			return true // fault: VM respawns
		case ir.OpBr:
			return lt.walk(Site{Block: in.Targets[0]}, site, siteIdx, visited)
		case ir.OpCondBr:
			nullEdge := lt.nullTestEdge(pos.Block, ii, in.A, siteIdx)
			ok := true
			if nullEdge != 0 {
				ok = ok && lt.walk(Site{Block: in.Targets[0]}, site, siteIdx, visited)
			}
			if ok && nullEdge != 1 {
				ok = lt.walk(Site{Block: in.Targets[1]}, site, siteIdx, visited)
			}
			return ok
		}
	}
	return false // unterminated block: structurally invalid, be conservative
}

// nullTestEdge recognizes the lowerer's null-test shapes on the condition
// register and returns which branch target index (0 or 1) is taken when
// the site's pointer is NULL — that edge carries no resource and is
// pruned — or -1 when the condition is not a null test of this site.
//
// OpCondBr semantics: cond != 0 jumps Targets[0], else Targets[1].
//
//	if (p)        cond = p        → NULL takes Targets[1]
//	if (!p)       cond = !p       → NULL takes Targets[0]
//	if (p == 0)   cond = eq p, 0  → NULL takes Targets[0]
//	if (p != 0)   cond = ne p, 0  → NULL takes Targets[1]
func (lt *lifetime) nullTestEdge(bi, ii, cond, siteIdx int) int {
	if lt.fc.resolvePtr(bi, ii, cond) == siteIdx {
		return 1
	}
	defSite := lt.fc.RD.UseSite(bi, ii, cond)
	if defSite < 0 {
		return -1
	}
	s := lt.fc.RD.Sites[defSite]
	if s.Block < 0 {
		return -1
	}
	in := &lt.fc.F.Blocks[s.Block].Instrs[s.Instr]
	switch in.Op {
	case ir.OpUn:
		if in.Un == ir.Not && lt.fc.resolvePtr(s.Block, s.Instr, in.A) == siteIdx {
			return 0
		}
	case ir.OpBin:
		if in.Bin != ir.Eq && in.Bin != ir.Ne {
			return -1
		}
		ptrA := lt.fc.resolvePtr(s.Block, s.Instr, in.A) == siteIdx
		ptrB := lt.fc.resolvePtr(s.Block, s.Instr, in.B) == siteIdx
		zeroA := isConstZero(lt.fc.At(s.Block, s.Instr, in.A))
		zeroB := isConstZero(lt.fc.At(s.Block, s.Instr, in.B))
		if (ptrA && zeroB) || (ptrB && zeroA) {
			if in.Bin == ir.Eq {
				return 0
			}
			return 1
		}
	}
	return -1
}

func isConstZero(v analysis.Value) bool {
	return v.Kind == analysis.Range && v.Lo == 0 && v.Hi == 0
}
