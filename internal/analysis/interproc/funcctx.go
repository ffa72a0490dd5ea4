package interproc

import (
	"closurex/internal/analysis"
	"closurex/internal/ir"
)

// funcCtx caches the per-function machinery shared by the mod/ref and
// lifetime analyses: the register value domain (analysis.Values, with
// callee return intervals plugged in through its Returns hook), pointer
// must-alias chasing, and the lazily-computed region classes. The
// memoized values depend only on the function body and the return-value
// oracle, never on callee summaries, so one context is valid for the
// lifetime of the analysis.
//
// Soundness of the "cannot write globals" conclusions drawn from these
// values rests on the VM address-space layout (vm/layout.go): the globals
// segment lies strictly below the heap and stack segments, and offsets are
// clamped to analysis.ValueClamp, far from wraparound. A frame- or
// heap-based address whose offset interval is provably non-negative
// therefore points at or above its segment base and can never alias a
// global byte.
type funcCtx struct {
	*analysis.Values

	ptrMemo   map[int]int
	ptrInProg map[int]bool

	cls []rclass
}

func newFuncCtx(m *ir.Module, f *ir.Func) *funcCtx {
	return &funcCtx{
		Values:    analysis.NewValues(m, f),
		ptrMemo:   make(map[int]int),
		ptrInProg: make(map[int]bool),
	}
}

// chasePtr resolves a definition site through OpMov chains to the site
// that originally produced the value — the must-alias resolution the
// lifetime analysis uses to recognize that a free/fclose argument is
// exactly a given allocation's result. Anything other than a pure mov
// chain (arithmetic, merges) stops the chase at the defining site itself.
func (fc *funcCtx) chasePtr(site int) int {
	if site < 0 {
		return -1
	}
	if v, ok := fc.ptrMemo[site]; ok {
		return v
	}
	if fc.ptrInProg[site] {
		return -1 // loop-carried mov cycle: no unique origin
	}
	fc.ptrInProg[site] = true
	out := site
	s := fc.RD.Sites[site]
	if s.Block >= 0 {
		in := &fc.F.Blocks[s.Block].Instrs[s.Instr]
		if in.Op == ir.OpMov {
			out = fc.chasePtr(fc.RD.UseSite(s.Block, s.Instr, in.A))
		}
	}
	delete(fc.ptrInProg, site)
	fc.ptrMemo[site] = out
	return out
}

// resolvePtr resolves register r, as read at (bi, ii), to the definition
// site it must alias (through mov chains), or -1.
func (fc *funcCtx) resolvePtr(bi, ii, r int) int {
	return fc.chasePtr(fc.RD.UseSite(bi, ii, r))
}
