package interproc

import (
	"closurex/internal/analysis"
	"closurex/internal/ir"
)

// This file holds the two precision layers under the mod/ref analysis that
// make loop-carried pointer arithmetic tractable:
//
//   - retOracle: per-function return-value intervals, resolved bottom-up
//     over the call graph, so `len = rd_le16(p)` is [0, 65535] instead of
//     top at every caller;
//   - region classes: a flow-insensitive per-register classification that
//     proves a store address is "heap (frame) base plus a non-negative,
//     wraparound-free offset" even when the offset is a loop-carried
//     accumulator the interval analysis must widen away.
//
// Soundness of the region classes rests on a counting argument against
// int64 wraparound, since a wrapped heap address could land back inside
// the globals segment. With the execution budget capped at
// ir.InterprocBudgetCap (2^26) instructions — the harness refuses to arm
// elision above it — the invariants are:
//
//	small  value in [0, hi], hi <= 2^32
//	nn     value is a sum of at most n "chains", each a seed <= 2^40
//	       plus per-dynamic-instruction small addends: every chain is a
//	       path through distinct dynamic instructions, so it holds at
//	       most budget <= 2^26 addends of <= 2^32 each, bounding a chain
//	       by 2^40 + 2^58 < 2^59 and an n-chain value by n*2^59
//	heap   heap segment base plus an nn-style offset
//	frame  frame base plus an nn-style offset
//
// With n capped at rcChainCap (8), every nn value stays below 2^62 and
// every heap/frame address below base + 2^62 < 2^63: no intermediate sum
// wraps, the address never re-enters the globals segment, and a
// non-negative store offset extends away from it. Adding two nn values
// sums their chain counts (which is what defeats the doubling attack
// `x += x`: the count climbs to the cap and collapses to top), while
// adding a small absorbs it into an existing chain for free.

type rkind uint8

const (
	rcBottom rkind = iota // no defining instruction seen yet
	rcSmall               // value in [0, hi]
	rcNN                  // non-negative, n accumulator chains
	rcHeap                // heap base + non-negative offset, n chains
	rcFrame               // frame base + non-negative offset, n chains
	rcTop
)

type rclass struct {
	k  rkind
	hi int64 // rcSmall: inclusive value bound
	n  int   // rcNN/rcHeap/rcFrame: accumulator chain count
}

const (
	rcSmallCap   = int64(1) << 32
	rcSeedCap    = int64(1) << 40
	rcChainCap   = 8
	rcWidenLimit = 4 // Small-bound growths before widening to nn
)

var (
	rcBot = rclass{k: rcBottom}
	rcT   = rclass{k: rcTop}
)

// isNN reports whether c is provably non-negative and chain-bounded (a
// valid addend for region offsets).
func (c rclass) isNN() bool { return c.k == rcSmall || c.k == rcNN }

// isRegionPtr reports whether c is a heap- or frame-directed address.
func (c rclass) isRegionPtr() bool { return c.k == rcHeap || c.k == rcFrame }

// chains is the chain count c contributes when added into a region
// offset; smalls are absorbed into an existing chain.
func (c rclass) chains() int {
	if c.k == rcSmall {
		return 0
	}
	return c.n
}

func rcJoin(a, b rclass) rclass {
	if a.k == rcBottom {
		return b
	}
	if b.k == rcBottom {
		return a
	}
	if a.k == rcTop || b.k == rcTop {
		return rcT
	}
	if a.k == b.k {
		if b.hi > a.hi {
			a.hi = b.hi
		}
		if b.n > a.n {
			a.n = b.n
		}
		return a
	}
	if a.k == rcSmall && b.k == rcNN {
		return b
	}
	if b.k == rcSmall && a.k == rcNN {
		return a
	}
	return rcT
}

// rcBin is the binary-operator transfer over region classes.
func rcBin(op ir.BinOp, a, b rclass) rclass {
	if a.k == rcBottom || b.k == rcBottom {
		return rcBot
	}
	// addNN folds two non-negative operands: small+small keeps the exact
	// bound; anything larger sums chain counts.
	addNN := func(a, b rclass) rclass {
		if a.k == rcSmall && b.k == rcSmall {
			if s := a.hi + b.hi; s <= rcSmallCap {
				return rclass{k: rcSmall, hi: s}
			}
			return rclass{k: rcNN, n: 1} // sum <= 2^33: one fresh seed
		}
		if n := a.chains() + b.chains(); n <= rcChainCap {
			return rclass{k: rcNN, n: n}
		}
		return rcT
	}
	switch op {
	case ir.Add:
		switch {
		case a.isNN() && b.isNN():
			return addNN(a, b)
		case a.isRegionPtr() && b.isNN():
			if n := a.n + b.chains(); n <= rcChainCap {
				a.n = n
				return a
			}
		case b.isRegionPtr() && a.isNN():
			if n := b.n + a.chains(); n <= rcChainCap {
				b.n = n
				return b
			}
		}
	case ir.Mul:
		if a.k == rcSmall && b.k == rcSmall {
			switch {
			case a.hi == 0 || b.hi == 0:
				return rclass{k: rcSmall}
			case a.hi <= rcSmallCap/b.hi:
				return rclass{k: rcSmall, hi: a.hi * b.hi}
			case a.hi <= rcSeedCap/b.hi:
				return rclass{k: rcNN, n: 1}
			}
		}
	case ir.Shl:
		if a.k == rcSmall && b.k == rcSmall && b.hi <= 40 {
			switch {
			case a.hi <= rcSmallCap>>b.hi:
				return rclass{k: rcSmall, hi: a.hi << b.hi}
			case a.hi <= rcSeedCap>>b.hi:
				return rclass{k: rcNN, n: 1}
			}
		}
	case ir.And:
		// For b in [0, hi]: a & b lands in [0, hi] whatever a is (the
		// sign bit of the result is clear because b's is).
		switch {
		case a.k == rcSmall && b.k == rcSmall:
			if b.hi < a.hi {
				a.hi = b.hi
			}
			return a
		case a.k == rcSmall:
			return a
		case b.k == rcSmall:
			return b
		case a.k == rcNN:
			return a
		case b.k == rcNN:
			return b
		}
	case ir.Or, ir.Xor:
		// For non-negative a, b both a|b and a^b are bounded by a+b.
		if a.isNN() && b.isNN() {
			return addNN(a, b)
		}
	case ir.Shr, ir.Div:
		// Non-negative >> or / non-negative shrinks toward zero.
		if a.isNN() && b.isNN() {
			return a
		}
	case ir.Rem:
		if a.isNN() && b.isNN() {
			if b.k == rcSmall && b.hi > 0 {
				return rclass{k: rcSmall, hi: b.hi - 1}
			}
			return a
		}
	case ir.Eq, ir.Ne, ir.Lt, ir.Le, ir.Gt, ir.Ge, ir.Ult, ir.Ule, ir.Ugt, ir.Uge:
		return rclass{k: rcSmall, hi: 1}
	}
	return rcT
}

// computeClasses runs the Kleene fixpoint over one function. Parameters
// start at top (unknown sign); every other register climbs the finite
// lattice, with Small bounds widened to nn after rcWidenLimit growths.
func computeClasses(fc *funcCtx) []rclass {
	f := fc.F
	cls := make([]rclass, f.NumRegs)
	grow := make([]int, f.NumRegs)
	for p := 0; p < f.NumParams && p < len(cls); p++ {
		cls[p] = rcT
	}
	get := func(r int) rclass {
		if r < 0 || r >= len(cls) {
			return rcT
		}
		return cls[r]
	}
	transfer := func(in *ir.Instr) rclass {
		switch in.Op {
		case ir.OpConst:
			switch {
			case in.Imm >= 0 && in.Imm <= rcSmallCap:
				return rclass{k: rcSmall, hi: in.Imm}
			case in.Imm >= 0 && in.Imm <= rcSeedCap:
				return rclass{k: rcNN, n: 1}
			}
		case ir.OpLoad:
			if in.Size >= 1 && in.Size <= 4 {
				return rclass{k: rcSmall, hi: int64(1)<<(8*in.Size) - 1}
			}
		case ir.OpMov:
			return get(in.A)
		case ir.OpFrameAddr:
			if in.Imm >= 0 && in.Imm <= rcSeedCap {
				return rclass{k: rcFrame}
			}
		case ir.OpUn:
			if in.Un == ir.Not {
				return rclass{k: rcSmall, hi: 1}
			}
		case ir.OpBin:
			return rcBin(in.Bin, get(in.A), get(in.B))
		case ir.OpCall:
			if analysis.AllocCallees[in.Callee] || analysis.ReallocCallees[in.Callee] {
				return rclass{k: rcHeap}
			}
			if fc.Returns != nil {
				if v := fc.Returns(in.Callee); v.Kind == analysis.Range && v.Lo >= 0 {
					if v.Hi <= rcSmallCap {
						return rclass{k: rcSmall, hi: v.Hi}
					}
					return rclass{k: rcNN, n: 1} // ret bounds clamp at 2^40
				}
			}
		}
		return rcT
	}
	for changed := true; changed; {
		changed = false
		for _, b := range f.Blocks {
			for ii := range b.Instrs {
				in := &b.Instrs[ii]
				d := analysis.InstrDef(in)
				if d < 0 || d >= len(cls) {
					continue
				}
				j := rcJoin(cls[d], transfer(in))
				if j == cls[d] {
					continue
				}
				if j.k == rcSmall && cls[d].k == rcSmall && j.hi > cls[d].hi {
					grow[d]++
					if grow[d] > rcWidenLimit {
						j = rclass{k: rcNN, n: 1}
					}
				}
				cls[d] = j
				changed = true
			}
		}
	}
	return cls
}

// regionPtr reports whether register r is classified as a heap- or
// frame-directed address: segment base plus a provably non-negative,
// wraparound-free offset. The mod/ref analysis uses it as the fallback
// when the flow-sensitive interval analysis tops out on a loop-carried
// store address.
func (fc *funcCtx) regionPtr(r int) bool {
	if fc.cls == nil {
		fc.cls = computeClasses(fc)
	}
	if r < 0 || r >= len(fc.cls) {
		return false
	}
	return fc.cls[r].isRegionPtr()
}

// --- return-value oracle ---

// retOracle resolves per-function return-value intervals on demand,
// memoized, recursing bottom-up through the call graph; members of a
// recursive cycle resolve to top. Analyze forces every function in sorted
// name order so the memo contents (and therefore every downstream
// diagnostic) are deterministic.
type retOracle struct {
	ctxs   map[string]*funcCtx
	memo   map[string]analysis.Value
	inProg map[string]bool
}

func newRetOracle(ctxs map[string]*funcCtx) *retOracle {
	return &retOracle{
		ctxs:   ctxs,
		memo:   make(map[string]analysis.Value, len(ctxs)),
		inProg: make(map[string]bool),
	}
}

// retOf returns the interval of fn's return value, or top for unknown
// callees, void/value-less returns, recursion, and unbounded results.
func (o *retOracle) retOf(fn string) analysis.Value {
	if v, ok := o.memo[fn]; ok {
		return v
	}
	fc := o.ctxs[fn]
	if fc == nil || o.inProg[fn] {
		return analysis.TopValue
	}
	o.inProg[fn] = true
	v, seen := analysis.TopValue, false
	for bi, b := range fc.F.Blocks {
		for ii := range b.Instrs {
			in := &b.Instrs[ii]
			if in.Op != ir.OpRet {
				continue
			}
			rv := analysis.TopValue
			if in.A >= 0 {
				if e := fc.At(bi, ii, in.A); e.Kind == analysis.Range {
					rv = e
				}
			}
			switch {
			case !seen:
				v, seen = rv, true
			case v.Kind != analysis.Range || rv.Kind != analysis.Range:
				v = analysis.TopValue
			default:
				v = analysis.RangeValue(min(v.Lo, rv.Lo), max(v.Hi, rv.Hi))
			}
		}
	}
	delete(o.inProg, fn)
	o.memo[fn] = v
	return v
}
