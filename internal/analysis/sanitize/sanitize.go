// Package sanitize implements the static check-elision analysis behind
// passes.SanitizerPass: an intra-procedural bounds/escape analysis over the
// existing CFG + reaching-definitions machinery that proves loads and
// stores in-bounds so their shadow checks can be dropped.
//
// The abstract domain tracks, per register use, one of:
//
//	range      a value interval [lo,hi] (constants, and-masked indices,
//	           sums/products of ranges)
//	frame+off  frame base plus an offset interval
//	global+off address of global g plus an offset interval
//	heap+off   a non-escaping allocation of statically known size, plus
//	           an offset interval
//	top        anything else
//
// An access base+Imm of width w is elidable when the region is known and
// off.lo+Imm >= 0 && off.hi+Imm+w <= region size. Heap regions are usable
// only while the allocation provably does not escape the function (its
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

// boundClamp keeps interval arithmetic far from int64 overflow; bounds
// beyond it collapse to top.
const boundClamp = int64(1) << 40

type kind uint8

const (
	top kind = iota
	rng
	frameOff
	globalOff
	heapOff
)

type absVal struct {
	k      kind
	lo, hi int64 // value bounds (rng) or offset bounds (regions)
	g      int64 // global index (globalOff)
	size   int64 // allocation size (heapOff)
	def    int   // defining site index of the allocation (heapOff)
}

var topVal = absVal{k: top}

func rangeVal(lo, hi int64) absVal {
	if lo < -boundClamp || hi > boundClamp || lo > hi {
		return topVal
	}
	return absVal{k: rng, lo: lo, hi: hi}
}

type analyzer struct {
	m  *ir.Module
	f  *ir.Func
	rd *analysis.ReachingDefs

	memo    map[int]absVal
	inProg  map[int]bool
	escMemo map[int]bool
}

// Analyze returns the set of load/store sites in f whose shadow check is
// statically provably unnecessary.
func Analyze(m *ir.Module, f *ir.Func) map[Access]bool {
	a := newAnalyzer(m, f)
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

func newAnalyzer(m *ir.Module, f *ir.Func) *analyzer {
	cfg := analysis.BuildCFG(f)
	return &analyzer{
		m: m, f: f, rd: analysis.ComputeReachingDefs(cfg),
		memo:    make(map[int]absVal),
		inProg:  make(map[int]bool),
		escMemo: make(map[int]bool),
	}
}

// inBounds decides whether the access at (bi,ii) is provably within its
// base region.
func (a *analyzer) inBounds(bi, ii int, in *ir.Instr) bool {
	v := a.resolveUse(bi, ii, in.A)
	w := int64(in.Size)
	lo, hi := v.lo+in.Imm, v.hi+in.Imm
	switch v.k {
	case frameOff:
		return lo >= 0 && hi+w <= a.f.FrameSize
	case globalOff:
		if v.g < 0 || v.g >= int64(len(a.m.Globals)) {
			return false
		}
		return lo >= 0 && hi+w <= a.m.Globals[v.g].Size
	case heapOff:
		return !a.escapes(v.def) && lo >= 0 && hi+w <= v.size
	}
	return false
}

// resolveUse computes the abstract value of register r as read by the
// instruction at (bi, ii): the value of r's unique reaching definition, or
// top when several definitions (loop-carried values, merges) may reach.
func (a *analyzer) resolveUse(bi, ii, r int) absVal {
	site := a.rd.UseSite(bi, ii, r)
	if site < 0 {
		return topVal
	}
	return a.evalSite(site)
}

// evalSite computes the abstract value produced by one definition site,
// memoized; a cycle (loop-carried dependence) resolves to top.
func (a *analyzer) evalSite(site int) absVal {
	if v, ok := a.memo[site]; ok {
		return v
	}
	if a.inProg[site] {
		return topVal
	}
	a.inProg[site] = true
	v := a.evalSiteUncached(site)
	delete(a.inProg, site)
	a.memo[site] = v
	return v
}

func (a *analyzer) evalSiteUncached(site int) absVal {
	s := a.rd.Sites[site]
	if s.Block < 0 {
		return topVal // parameter: caller-controlled
	}
	in := &a.f.Blocks[s.Block].Instrs[s.Instr]
	switch in.Op {
	case ir.OpConst:
		return rangeVal(in.Imm, in.Imm)
	case ir.OpMov:
		return a.resolveUse(s.Block, s.Instr, in.A)
	case ir.OpFrameAddr:
		return absVal{k: frameOff, lo: in.Imm, hi: in.Imm}
	case ir.OpGlobalAddr:
		return absVal{k: globalOff, g: in.Imm}
	case ir.OpBin:
		l := a.resolveUse(s.Block, s.Instr, in.A)
		r := a.resolveUse(s.Block, s.Instr, in.B)
		return evalBin(in.Bin, l, r)
	case ir.OpCall:
		return a.evalAlloc(site, s, in)
	}
	return topVal
}

// evalAlloc recognizes allocation calls with a provably constant size.
func (a *analyzer) evalAlloc(site int, s analysis.DefSite, in *ir.Instr) absVal {
	var size int64 = -1
	switch in.Callee {
	case "malloc", "closurex_malloc":
		if len(in.Args) == 1 {
			if v := a.resolveUse(s.Block, s.Instr, in.Args[0]); v.k == rng && v.lo == v.hi && v.lo > 0 {
				size = v.lo
			}
		}
	case "calloc", "closurex_calloc":
		if len(in.Args) == 2 {
			n := a.resolveUse(s.Block, s.Instr, in.Args[0])
			e := a.resolveUse(s.Block, s.Instr, in.Args[1])
			if n.k == rng && n.lo == n.hi && e.k == rng && e.lo == e.hi &&
				n.lo > 0 && e.lo > 0 && n.lo <= boundClamp/e.lo {
				size = n.lo * e.lo
			}
		}
	}
	if size <= 0 {
		return topVal
	}
	return absVal{k: heapOff, size: size, def: site}
}

// evalBin implements interval arithmetic with region offsets.
func evalBin(op ir.BinOp, l, r absVal) absVal {
	region := func(base absVal, off absVal, neg bool) absVal {
		if off.k != rng {
			return topVal
		}
		lo, hi := off.lo, off.hi
		if neg {
			lo, hi = -off.hi, -off.lo
		}
		out := base
		out.lo += lo
		out.hi += hi
		if out.lo < -boundClamp || out.hi > boundClamp {
			return topVal
		}
		return out
	}
	switch op {
	case ir.Add:
		switch {
		case l.k == rng && r.k == rng:
			return rangeVal(l.lo+r.lo, l.hi+r.hi)
		case (l.k == frameOff || l.k == globalOff || l.k == heapOff) && r.k == rng:
			return region(l, r, false)
		case (r.k == frameOff || r.k == globalOff || r.k == heapOff) && l.k == rng:
			return region(r, l, false)
		}
	case ir.Sub:
		switch {
		case l.k == rng && r.k == rng:
			return rangeVal(l.lo-r.hi, l.hi-r.lo)
		case (l.k == frameOff || l.k == globalOff || l.k == heapOff) && r.k == rng:
			return region(l, r, true)
		}
	case ir.Mul:
		if l.k == rng && r.k == rng {
			c := []int64{l.lo * r.lo, l.lo * r.hi, l.hi * r.lo, l.hi * r.hi}
			lo, hi := c[0], c[0]
			for _, v := range c[1:] {
				if v < lo {
					lo = v
				}
				if v > hi {
					hi = v
				}
			}
			// Guard the products themselves against wraparound.
			if abs64(l.lo) > boundClamp || abs64(l.hi) > boundClamp ||
				abs64(r.lo) > boundClamp || abs64(r.hi) > boundClamp {
				return topVal
			}
			return rangeVal(lo, hi)
		}
	case ir.Shl:
		if l.k == rng && r.k == rng && r.lo == r.hi && r.lo >= 0 && r.lo < 32 {
			return evalBin(ir.Mul, l, rangeVal(1<<r.lo, 1<<r.lo))
		}
	case ir.And:
		// x & mask with a non-negative constant mask lands in [0, mask]
		// regardless of x — the "bounded index" idiom (buf[i & 7]).
		if r.k == rng && r.lo == r.hi && r.lo >= 0 {
			return rangeVal(0, r.lo)
		}
		if l.k == rng && l.lo == l.hi && l.lo >= 0 {
			return rangeVal(0, l.lo)
		}
	case ir.Rem:
		// x % c for constant c > 0: MinC Rem is signed, so the result is
		// in (-c, c); only a provably non-negative x gives [0, c).
		if l.k == rng && r.k == rng && r.lo == r.hi && r.lo > 0 && l.lo >= 0 {
			return rangeVal(0, r.lo-1)
		}
	}
	return topVal
}

func abs64(v int64) int64 {
	if v < 0 {
		return -v
	}
	return v
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
	s := a.rd.Sites[site]
	root := &a.f.Blocks[s.Block].Instrs[s.Instr]
	tainted := make([]bool, a.f.NumRegs)
	if root.Dst >= 0 {
		tainted[root.Dst] = true
	}
	for changed := true; changed; {
		changed = false
		for _, b := range a.f.Blocks {
			for ii := range b.Instrs {
				in := &b.Instrs[ii]
				var from bool
				switch in.Op {
				case ir.OpMov:
					from = tainted[in.A]
				case ir.OpBin:
					if in.Bin == ir.Add || in.Bin == ir.Sub {
						from = tainted[in.A] || tainted[in.B]
					}
				}
				if from && in.Dst >= 0 && !tainted[in.Dst] {
					tainted[in.Dst] = true
					changed = true
				}
			}
		}
	}
	esc := false
	for _, b := range a.f.Blocks {
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
