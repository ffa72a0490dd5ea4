package analysis

import (
	"strings"

	"closurex/internal/ir"
)

// Callee families of the allocation and file runtime, each naming the raw
// libc call and its ClosureX-wrapped replacement.
var (
	// AllocCallees return a fresh heap chunk: malloc(n) and calloc(n, e).
	AllocCallees = calleeFamily("malloc", "calloc")
	// ReallocCallees free their pointer argument and return a heap chunk.
	ReallocCallees = calleeFamily("realloc")
	FreeCallees    = calleeFamily("free")
	FopenCallees   = calleeFamily("fopen")
	FcloseCallees  = calleeFamily("fclose")
)

func calleeFamily(names ...string) map[string]bool {
	set := make(map[string]bool, 2*len(names))
	for _, n := range names {
		set[n] = true
		set["closurex_"+n] = true
	}
	return set
}

// ValueKind classifies an abstract register value.
type ValueKind uint8

// The register value domain. Region kinds carry an offset interval
// relative to their base.
const (
	Top       ValueKind = iota // anything
	Range                      // a value interval [Lo, Hi]
	FrameOff                   // frame base + offset
	GlobalOff                  // address of Globals[Global] + offset
	HeapOff                    // an allocator-returned pointer + offset
	ParamOff                   // parameter Param's incoming value + offset
)

// ValueClamp keeps interval arithmetic far from int64 overflow (and, for
// the VM's address-space layout, far from wraparound); bounds beyond it
// collapse to Top.
const ValueClamp = int64(1) << 40

// Value is one abstract register value.
type Value struct {
	Kind   ValueKind
	Lo, Hi int64 // value bounds (Range) or offset bounds (regions)
	Global int   // global index (GlobalOff)
	Param  int   // parameter index (ParamOff)
	// Size is the allocation's byte size when its arguments are constant,
	// else 0; Def is the defining allocation call's site (HeapOff).
	Size int64
	Def  int
}

// TopValue is the value nothing is known about.
var TopValue = Value{Kind: Top}

// RangeValue returns the interval [lo, hi], or Top when it is empty or
// reaches past ValueClamp.
func RangeValue(lo, hi int64) Value {
	if lo < -ValueClamp || hi > ValueClamp || lo > hi {
		return TopValue
	}
	return Value{Kind: Range, Lo: lo, Hi: hi}
}

// IsRegion reports whether v is an address: a region base plus an offset
// (every kind declared after Range).
func (v Value) IsRegion() bool { return v.Kind >= FrameOff }

// Values evaluates f's registers in the value domain, flow-sensitively
// through reaching definitions: a register read resolves through its
// unique reaching definition, or to Top when several may reach. Results
// are memoized per definition site, and a loop-carried cycle resolves to
// Top.
type Values struct {
	M  *ir.Module
	F  *ir.Func
	RD *ReachingDefs

	// NoNarrowLoads drops the rule that bounds a 1-4 byte load by its
	// width. Only the sanitizer sets it: its elision counts are pinned by
	// the toolchain digests in bench/testdata/golden.json, and the rule
	// would prove more accesses in bounds than those digests record.
	NoNarrowLoads bool
	// Returns, when set, resolves a call's result from the callee's name
	// (interprocedural return-value intervals); unset, calls other than
	// allocations evaluate to Top.
	Returns func(callee string) Value

	memo   map[int]Value
	inProg map[int]bool
}

// NewValues builds f's reaching definitions and an empty evaluator.
func NewValues(m *ir.Module, f *ir.Func) *Values {
	return &Values{
		M: m, F: f, RD: ComputeReachingDefs(BuildCFG(f)),
		memo:   make(map[int]Value),
		inProg: make(map[int]bool),
	}
}

// At is the value of register r as read by the instruction at (bi, ii).
func (vs *Values) At(bi, ii, r int) Value {
	site := vs.RD.UseSite(bi, ii, r)
	if site < 0 {
		return TopValue
	}
	return vs.Site(site)
}

// Site is the value produced by one definition site.
func (vs *Values) Site(site int) Value {
	if v, ok := vs.memo[site]; ok {
		return v
	}
	if vs.inProg[site] {
		return TopValue
	}
	vs.inProg[site] = true
	v := vs.eval(site)
	delete(vs.inProg, site)
	vs.memo[site] = v
	return v
}

func (vs *Values) eval(site int) Value {
	s := vs.RD.Sites[site]
	if s.Block < 0 {
		return Value{Kind: ParamOff, Param: s.Reg}
	}
	in := &vs.F.Blocks[s.Block].Instrs[s.Instr]
	switch in.Op {
	case ir.OpConst:
		return RangeValue(in.Imm, in.Imm)
	case ir.OpMov:
		return vs.At(s.Block, s.Instr, in.A)
	case ir.OpFrameAddr:
		return Value{Kind: FrameOff, Lo: in.Imm, Hi: in.Imm}
	case ir.OpGlobalAddr:
		if in.Imm < 0 || in.Imm >= int64(len(vs.M.Globals)) {
			return TopValue
		}
		return Value{Kind: GlobalOff, Global: int(in.Imm)}
	case ir.OpLoad:
		// Loads zero-extend (ir.OpLoad contract): a narrow load is bounded
		// by its width no matter what memory holds.
		if !vs.NoNarrowLoads && in.Size >= 1 && in.Size <= 4 {
			return RangeValue(0, int64(1)<<(8*in.Size)-1)
		}
	case ir.OpBin:
		return EvalBin(in.Bin, vs.At(s.Block, s.Instr, in.A), vs.At(s.Block, s.Instr, in.B))
	case ir.OpUn:
		switch in.Un {
		case ir.Not:
			return RangeValue(0, 1)
		case ir.Neg:
			if v := vs.At(s.Block, s.Instr, in.A); v.Kind == Range {
				return RangeValue(-v.Hi, -v.Lo)
			}
		}
	case ir.OpCall:
		if AllocCallees[in.Callee] || ReallocCallees[in.Callee] {
			// An allocator result points into the heap segment (or is
			// NULL; an access through NULL faults before touching memory).
			return Value{Kind: HeapOff, Size: vs.allocSize(s, in), Def: site}
		}
		if vs.Returns != nil {
			return vs.Returns(in.Callee)
		}
	}
	return TopValue
}

// allocSize is the byte size of a malloc(n) or calloc(n, e) call whose
// arguments are positive constants, or 0.
func (vs *Values) allocSize(s DefSite, in *ir.Instr) int64 {
	want := 1
	if strings.HasSuffix(in.Callee, "calloc") {
		want = 2
	}
	if !AllocCallees[in.Callee] || len(in.Args) != want {
		return 0
	}
	size := int64(1)
	for _, a := range in.Args {
		v := vs.At(s.Block, s.Instr, a)
		if v.Kind != Range || v.Lo != v.Hi || v.Lo <= 0 || size > ValueClamp/v.Lo {
			return 0
		}
		size *= v.Lo
	}
	return size
}

// DerivedFrom marks the registers of f that may hold a pointer derived
// from register src through mov and pointer-arithmetic (add/sub) chains,
// flow-insensitively: the may-alias taint the escape checks of both
// elision analyses share.
func DerivedFrom(f *ir.Func, src int) []bool {
	tainted := make([]bool, f.NumRegs)
	if src >= 0 && src < f.NumRegs {
		tainted[src] = true
	}
	for changed := true; changed; {
		changed = false
		for _, b := range f.Blocks {
			for ii := range b.Instrs {
				in := &b.Instrs[ii]
				var from bool
				switch in.Op {
				case ir.OpMov:
					from = in.A >= 0 && in.A < f.NumRegs && tainted[in.A]
				case ir.OpBin:
					if in.Bin == ir.Add || in.Bin == ir.Sub {
						from = (in.A >= 0 && in.A < f.NumRegs && tainted[in.A]) ||
							(in.B >= 0 && in.B < f.NumRegs && tainted[in.B])
					}
				}
				if from && in.Dst >= 0 && in.Dst < f.NumRegs && !tainted[in.Dst] {
					tainted[in.Dst] = true
					changed = true
				}
			}
		}
	}
	return tainted
}

// EvalBin is the domain's transfer function for a binary operation:
// interval arithmetic, plus region ± range.
func EvalBin(op ir.BinOp, l, r Value) Value {
	region := func(base, off Value, neg bool) Value {
		if off.Kind != Range {
			return TopValue
		}
		lo, hi := off.Lo, off.Hi
		if neg {
			lo, hi = -off.Hi, -off.Lo
		}
		base.Lo += lo
		base.Hi += hi
		if base.Lo < -ValueClamp || base.Hi > ValueClamp {
			return TopValue
		}
		return base
	}
	switch op {
	case ir.Add:
		switch {
		case l.Kind == Range && r.Kind == Range:
			return RangeValue(l.Lo+r.Lo, l.Hi+r.Hi)
		case l.IsRegion():
			return region(l, r, false)
		case r.IsRegion() && l.Kind == Range:
			return region(r, l, false)
		}
	case ir.Sub:
		switch {
		case l.Kind == Range && r.Kind == Range:
			return RangeValue(l.Lo-r.Hi, l.Hi-r.Lo)
		case l.IsRegion():
			return region(l, r, true)
		}
	case ir.Mul:
		if l.Kind == Range && r.Kind == Range {
			if abs64(l.Lo) > ValueClamp || abs64(l.Hi) > ValueClamp ||
				abs64(r.Lo) > ValueClamp || abs64(r.Hi) > ValueClamp {
				return TopValue
			}
			lo, hi := l.Lo*r.Lo, l.Lo*r.Lo
			for _, v := range []int64{l.Lo * r.Hi, l.Hi * r.Lo, l.Hi * r.Hi} {
				lo, hi = min(lo, v), max(hi, v)
			}
			return RangeValue(lo, hi)
		}
	case ir.Shl:
		if l.Kind == Range && r.Kind == Range && r.Lo == r.Hi && r.Lo >= 0 && r.Lo < 32 {
			return EvalBin(ir.Mul, l, RangeValue(1<<r.Lo, 1<<r.Lo))
		}
	case ir.And:
		// x & mask with a non-negative constant mask lands in [0, mask]
		// regardless of x — the "bounded index" idiom (buf[i & 7]).
		if r.Kind == Range && r.Lo == r.Hi && r.Lo >= 0 {
			return RangeValue(0, r.Lo)
		}
		if l.Kind == Range && l.Lo == l.Hi && l.Lo >= 0 {
			return RangeValue(0, l.Lo)
		}
	case ir.Or, ir.Xor:
		// For non-negative a, b: a|b and a^b are both bounded by a+b
		// (bitwise combination never carries) and never negative.
		if l.Kind == Range && r.Kind == Range && l.Lo >= 0 && r.Lo >= 0 {
			return RangeValue(0, l.Hi+r.Hi)
		}
	case ir.Shr:
		// Arithmetic shift of a non-negative value by a constant amount.
		if l.Kind == Range && r.Kind == Range && r.Lo == r.Hi && r.Lo >= 0 && r.Lo < 64 && l.Lo >= 0 {
			return RangeValue(l.Lo>>r.Lo, l.Hi>>r.Lo)
		}
	case ir.Rem:
		// x % c for constant c > 0: MinC Rem is signed, so the result is
		// in (-c, c); only a provably non-negative x gives [0, c).
		if l.Kind == Range && r.Kind == Range && r.Lo == r.Hi && r.Lo > 0 && l.Lo >= 0 {
			return RangeValue(0, r.Lo-1)
		}
	case ir.Eq, ir.Ne, ir.Lt, ir.Le, ir.Gt, ir.Ge, ir.Ult, ir.Ule, ir.Ugt, ir.Uge:
		return RangeValue(0, 1)
	}
	return TopValue
}

func abs64(v int64) int64 {
	if v < 0 {
		return -v
	}
	return v
}
