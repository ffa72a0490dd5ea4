// Package sanitize implements the static check-elision analysis behind
// passes.SanitizerPass: it proves loads and stores in-bounds so their
// shadow checks can be dropped. Addresses are evaluated in the shared
// register value domain, analysis.Values, with its narrow-load rule off
// (see Values.NoNarrowLoads); this package adds only the bounds test and
// the heap escape check.
//
// An access base+Imm of width w is elidable when its frame, global or
// constant-size heap region is known and off.lo+Imm >= 0 &&
// off.hi+Imm+w <= region size. Heap regions are usable only while the
// allocation provably does not escape the function (its
// pointer is never a call argument and never stored to memory), since an
// escaped pointer could be freed behind the analysis's back.
//
// Elision is deliberately conservative and, crucially, can never lose a
// bug entirely: the interpreter's chunk-map access check stays armed for
// every access, so a wrongly elided check would only downgrade the report
// from a rich sanitizer report to a plain fault, never hide it.
package sanitize

import (
	"fmt"
	"sort"
	"strings"

	"closurex/internal/analysis"
	"closurex/internal/ir"
)

// Access identifies one load/store instruction inside a function.
type Access struct {
	Block, Instr int
}

type analyzer struct {
	*analysis.Values
	escMemo map[int]bool
}

// Analyze returns the set of load/store sites in f whose shadow check is
// statically provably unnecessary.
func Analyze(m *ir.Module, f *ir.Func) map[Access]bool {
	a := &analyzer{Values: analysis.NewValues(m, f), escMemo: make(map[int]bool)}
	a.NoNarrowLoads = true
	out := make(map[Access]bool)
	for bi, b := range f.Blocks {
		for ii := range b.Instrs {
			in := &b.Instrs[ii]
			if in.Op != ir.OpLoad && in.Op != ir.OpStore {
				continue
			}
			if a.inBounds(bi, ii, in) {
				out[Access{Block: bi, Instr: ii}] = true
			}
		}
	}
	return out
}

// inBounds decides whether the access at (bi,ii) is provably within its
// base region.
func (a *analyzer) inBounds(bi, ii int, in *ir.Instr) bool {
	v := a.At(bi, ii, in.A)
	w := int64(in.Size)
	lo, hi := v.Lo+in.Imm, v.Hi+in.Imm
	switch v.Kind {
	case analysis.FrameOff:
		return lo >= 0 && hi+w <= a.F.FrameSize
	case analysis.GlobalOff:
		return lo >= 0 && hi+w <= a.M.Globals[v.Global].Size
	case analysis.HeapOff:
		return v.Size > 0 && !a.escapes(v.Def) && lo >= 0 && hi+w <= v.Size
	}
	return false
}

// escapes reports whether the allocation made at def site `site` may
// escape the function: its pointer (or any register derived from it by
// mov/add/sub) appears as a call argument or as a store's value operand.
// Escaped allocations may be freed behind the analysis's back, so their
// bounds proof is void. Flow-insensitive and register-granular, hence
// conservative under register reuse.
func (a *analyzer) escapes(site int) bool {
	if v, ok := a.escMemo[site]; ok {
		return v
	}
	tainted := analysis.DerivedFrom(a.F, a.RD.Sites[site].Reg)
	esc := false
	for _, b := range a.F.Blocks {
		for ii := range b.Instrs {
			in := &b.Instrs[ii]
			switch in.Op {
			case ir.OpCall:
				for _, arg := range in.Args {
					if tainted[arg] {
						esc = true
					}
				}
			case ir.OpStore:
				if tainted[in.B] {
					esc = true
				}
			}
		}
	}
	a.escMemo[site] = esc
	return esc
}

// --- reporting (closurex-lint -sanitize-report) ---

// FuncReport carries the per-function audit counters.
type FuncReport struct {
	Name   string
	Checks int // shadow checks inserted (OpSanCheck count)
	Elided int // accesses proven in-bounds (SanElide marks)
}

// Accesses is the total number of instrumentable accesses.
func (fr FuncReport) Accesses() int { return fr.Checks + fr.Elided }

// Report aggregates the elision audit across a module.
type Report struct {
	Funcs []FuncReport
}

// Totals sums checks and elisions across all functions.
func (r *Report) Totals() (checks, elided int) {
	for _, fr := range r.Funcs {
		checks += fr.Checks
		elided += fr.Elided
	}
	return
}

// Rate returns the fraction of accesses whose check was elided.
func (r *Report) Rate() float64 {
	c, e := r.Totals()
	if c+e == 0 {
		return 0
	}
	return float64(e) / float64(c+e)
}

// ReportModule audits an already-sanitized module by counting the
// OpSanCheck instructions and SanElide marks SanitizerPass left behind.
func ReportModule(m *ir.Module) *Report {
	rep := &Report{}
	for _, f := range m.Funcs {
		fr := FuncReport{Name: f.Name}
		for _, b := range f.Blocks {
			for ii := range b.Instrs {
				switch in := &b.Instrs[ii]; in.Op {
				case ir.OpSanCheck:
					fr.Checks++
				case ir.OpLoad, ir.OpStore:
					if in.SanElide {
						fr.Elided++
					}
				}
			}
		}
		if fr.Accesses() > 0 {
			rep.Funcs = append(rep.Funcs, fr)
		}
	}
	sort.Slice(rep.Funcs, func(i, j int) bool { return rep.Funcs[i].Name < rep.Funcs[j].Name })
	return rep
}

// Format renders the report as the table closurex-lint prints.
func (r *Report) Format() string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "%-28s %8s %8s %8s %7s\n", "function", "accesses", "checked", "elided", "rate")
	for _, fr := range r.Funcs {
		rate := 0.0
		if fr.Accesses() > 0 {
			rate = float64(fr.Elided) / float64(fr.Accesses())
		}
		fmt.Fprintf(&sb, "%-28s %8d %8d %8d %6.1f%%\n",
			fr.Name, fr.Accesses(), fr.Checks, fr.Elided, 100*rate)
	}
	c, e := r.Totals()
	fmt.Fprintf(&sb, "%-28s %8d %8d %8d %6.1f%%\n", "TOTAL", c+e, c, e, 100*r.Rate())
	return sb.String()
}
