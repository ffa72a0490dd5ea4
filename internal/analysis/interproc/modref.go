package interproc

import (
	"fmt"
	"sort"

	"closurex/internal/analysis"
	"closurex/internal/ir"
)

// Interval is a byte-offset interval relative to a region base: writes
// cover [Lo, Hi] when bounded, [Lo, ∞) when Unbounded. Lo is always a
// valid lower bound — that is what lets an unbounded-length write (strcpy
// into a frame buffer) still be proven global-clean, since frame and heap
// writes starting at a non-negative offset extend away from the globals
// segment.
type Interval struct {
	Lo, Hi    int64
	Unbounded bool
}

func (iv Interval) join(o Interval) Interval {
	out := iv
	if o.Lo < out.Lo {
		out.Lo = o.Lo
	}
	if o.Hi > out.Hi {
		out.Hi = o.Hi
	}
	out.Unbounded = iv.Unbounded || o.Unbounded
	if out.Lo < -analysis.ValueClamp {
		out.Lo = -analysis.ValueClamp // effectively -∞: fails every >= 0 check
	}
	if out.Hi > analysis.ValueClamp {
		out.Unbounded = true
	}
	if out.Unbounded {
		out.Hi = 0 // meaningless when unbounded; normalize for equality
	}
	return out
}

// Summary is one function's interprocedural effect summary: the globals it
// (or anything it transitively calls) may write, the byte intervals it may
// write through each pointer parameter, whether its global writes could
// not be bounded at all, and whether it can unwind the whole iteration
// through exit().
type Summary struct {
	// WritesGlobals maps global indices this function may write, with the
	// in-bounds proof already checked (a write that could cross a global's
	// end sets Unknown instead).
	WritesGlobals map[int]bool
	// ParamWrites maps parameter index -> byte interval the function may
	// write through that parameter's incoming pointer value.
	ParamWrites map[int]Interval
	// Unknown is set when some write could not be attributed: the function
	// must be assumed to write the whole closure_global_section.
	Unknown bool
	// MayExit is set when the function can transitively reach exit()/
	// closurex_exit(), unwinding past every pending cleanup in its callers.
	MayExit bool
}

func newSummary() *Summary {
	return &Summary{
		WritesGlobals: map[int]bool{},
		ParamWrites:   map[int]Interval{},
	}
}

func (s *Summary) equal(o *Summary) bool {
	if o == nil {
		return false
	}
	if s.Unknown != o.Unknown || s.MayExit != o.MayExit ||
		len(s.WritesGlobals) != len(o.WritesGlobals) ||
		len(s.ParamWrites) != len(o.ParamWrites) {
		return false
	}
	for g := range s.WritesGlobals {
		if !o.WritesGlobals[g] {
			return false
		}
	}
	for p, iv := range s.ParamWrites {
		if o.ParamWrites[p] != iv {
			return false
		}
	}
	return true
}

// Globals returns the sorted global indices in WritesGlobals.
func (s *Summary) Globals() []int {
	out := make([]int, 0, len(s.WritesGlobals))
	for g := range s.WritesGlobals {
		out = append(out, g)
	}
	sort.Ints(out)
	return out
}

// builtinEffect describes one modeled builtin's memory behavior. Builtins
// absent from the table are call-graph holes: their effects are unknown
// and any caller degrades to whole-section (CLX115).
type builtinEffect struct {
	// writesPtrArg is the argument index of a destination pointer the
	// builtin writes through, or -1 when it writes no target memory.
	writesPtrArg int
	// lenArgs are the argument indices whose product bounds the write
	// length; empty with writesPtrArg >= 0 means unbounded (strcpy).
	lenArgs []int
	// exits marks exit()/closurex_exit (iteration unwinding).
	exits bool
}

// builtinEffects is the modeled C-library surface (vm/builtins.go). The
// allocator and fd-table families mutate runtime bookkeeping, not target
// memory; abort/assert fault (respawning the VM) rather than unwind.
var builtinEffects = map[string]*builtinEffect{
	"exit":          {writesPtrArg: -1, exits: true},
	"closurex_exit": {writesPtrArg: -1, exits: true},
	"abort":         {writesPtrArg: -1},
	"assert":        {writesPtrArg: -1},

	"malloc":           {writesPtrArg: -1},
	"calloc":           {writesPtrArg: -1},
	"realloc":          {writesPtrArg: -1},
	"free":             {writesPtrArg: -1},
	"closurex_malloc":  {writesPtrArg: -1},
	"closurex_calloc":  {writesPtrArg: -1},
	"closurex_realloc": {writesPtrArg: -1},
	"closurex_free":    {writesPtrArg: -1},

	"memcpy":  {writesPtrArg: 0, lenArgs: []int{2}},
	"memmove": {writesPtrArg: 0, lenArgs: []int{2}},
	"memset":  {writesPtrArg: 0, lenArgs: []int{2}},
	"memcmp":  {writesPtrArg: -1},
	"strlen":  {writesPtrArg: -1},
	"strcmp":  {writesPtrArg: -1},
	"strncmp": {writesPtrArg: -1},
	"strcpy":  {writesPtrArg: 0}, // length unknowable statically

	"fopen":           {writesPtrArg: -1},
	"fclose":          {writesPtrArg: -1},
	"closurex_fopen":  {writesPtrArg: -1},
	"closurex_fclose": {writesPtrArg: -1},
	"fread":           {writesPtrArg: 0, lenArgs: []int{1, 2}},
	"fwrite":          {writesPtrArg: -1},
	"fgetc":           {writesPtrArg: -1},
	"fseek":           {writesPtrArg: -1},
	"ftell":           {writesPtrArg: -1},
	"fsize":           {writesPtrArg: -1},

	"puts":      {writesPtrArg: -1},
	"putchar":   {writesPtrArg: -1},
	"print_int": {writesPtrArg: -1},

	"rand":  {writesPtrArg: -1},
	"srand": {writesPtrArg: -1},
}

// paramWidenLimit bounds how often a (function, parameter) write interval
// may grow across fixpoint rounds before widening to Unbounded — the
// termination guarantee for recursive pointer-advancing cycles.
const paramWidenLimit = 4

// modRefState runs the interprocedural mod/ref fixpoint.
type modRefState struct {
	m    *ir.Module
	ctxs map[string]*funcCtx
	sums map[string]*Summary
	grow map[string]int // "fn#param" -> interval growth count
}

func computeModRef(m *ir.Module, ctxs map[string]*funcCtx, funcs []string) map[string]*Summary {
	st := &modRefState{
		m:    m,
		ctxs: ctxs,
		sums: make(map[string]*Summary, len(funcs)),
		grow: map[string]int{},
	}
	for _, fn := range funcs {
		st.sums[fn] = newSummary()
	}
	for changed := true; changed; {
		changed = false
		for _, fn := range funcs {
			ns := st.effects(st.ctxs[fn], nil)
			st.widen(fn, ns)
			if !ns.equal(st.sums[fn]) {
				st.sums[fn] = ns
				changed = true
			}
		}
	}
	return st.sums
}

// widen applies the parameter-interval widening against the previous
// round's summary.
func (st *modRefState) widen(fn string, ns *Summary) {
	old := st.sums[fn]
	if old == nil {
		return
	}
	for p, iv := range ns.ParamWrites {
		prev, had := old.ParamWrites[p]
		if iv.Unbounded || (had && prev == iv) {
			continue
		}
		key := fmt.Sprintf("%s#%d", fn, p)
		if had {
			st.grow[key]++
		}
		if st.grow[key] > paramWidenLimit {
			ns.ParamWrites[p] = Interval{Lo: -analysis.ValueClamp, Unbounded: true}
		}
	}
}

// effects computes fn's summary from its body and the current callee
// summaries. When diags is non-nil, unattributable stores (CLX116) and
// call-graph holes (CLX115) are reported through it — used by the final
// reporting pass once the fixpoint is stable.
func (st *modRefState) effects(fc *funcCtx, diags *analysis.Diagnostics) *Summary {
	s := newSummary()
	for bi, b := range fc.F.Blocks {
		for ii := range b.Instrs {
			in := &b.Instrs[ii]
			switch in.Op {
			case ir.OpStore:
				base := fc.At(bi, ii, in.A)
				span := Interval{Lo: in.Imm, Hi: in.Imm + int64(in.Size) - 1}
				if base.Kind == analysis.Top && span.Lo >= 0 && fc.regionPtr(in.A) {
					// Interval analysis lost the address (loop-carried
					// index), but the region classifier proves it heap- or
					// frame-directed with a non-negative offset: the write
					// extends away from the globals segment.
					continue
				}
				if !st.applySpan(s, base, span) && diags != nil {
					*diags = append(*diags, analysis.Diagnostic{
						ID: analysis.IDGlobalEscape, Sev: analysis.SevWarn, Pass: interprocPass,
						Func: fc.F.Name, Block: bi, Instr: ii, Line: in.Pos,
						Msg: fmt.Sprintf("store through unresolvable pointer (width %d); globals must be treated as whole-section may-written", in.Size),
					})
				}
			case ir.OpCall:
				st.callEffects(fc, s, bi, ii, in, diags)
			}
		}
	}
	return s
}

// applySpan folds one write of base+span into the summary, returning
// false when the write could not be attributed (summary degraded to
// Unknown).
func (st *modRefState) applySpan(s *Summary, base analysis.Value, span Interval) bool {
	switch base.Kind {
	case analysis.FrameOff, analysis.HeapOff:
		// The frame and heap segments lie strictly above the globals
		// segment, and writes extend upward: a non-negative start offset
		// can never reach a global byte, whatever the length.
		if base.Lo+span.Lo >= 0 {
			return true
		}
	case analysis.GlobalOff:
		if base.Global >= 0 && base.Global < len(st.m.Globals) && !span.Unbounded {
			g := st.m.Globals[base.Global]
			if base.Lo+span.Lo >= 0 && base.Hi+span.Hi < g.Size {
				s.WritesGlobals[base.Global] = true
				return true
			}
		}
	case analysis.ParamOff:
		iv := Interval{Lo: base.Lo + span.Lo, Hi: base.Hi + span.Hi, Unbounded: span.Unbounded}
		if iv.Lo < -analysis.ValueClamp {
			iv.Lo = -analysis.ValueClamp
		}
		if iv.Hi > analysis.ValueClamp {
			iv.Unbounded = true
		}
		if iv.Unbounded {
			iv.Hi = 0
		}
		if prev, ok := s.ParamWrites[base.Param]; ok {
			iv = prev.join(iv)
		}
		s.ParamWrites[base.Param] = iv
		return true
	}
	s.Unknown = true
	return false
}

// callEffects folds one call's effects into the summary.
func (st *modRefState) callEffects(fc *funcCtx, s *Summary, bi, ii int, in *ir.Instr, diags *analysis.Diagnostics) {
	if st.m.Func(in.Callee) != nil {
		cs := st.sums[in.Callee]
		if cs == nil {
			// Callee outside the analyzed (reachable) set: impossible for
			// calls from reachable code, but be conservative regardless.
			s.Unknown = true
			return
		}
		s.MayExit = s.MayExit || cs.MayExit
		s.Unknown = s.Unknown || cs.Unknown
		for g := range cs.WritesGlobals {
			s.WritesGlobals[g] = true
		}
		params := make([]int, 0, len(cs.ParamWrites))
		for p := range cs.ParamWrites {
			params = append(params, p)
		}
		sort.Ints(params)
		for _, p := range params {
			iv := cs.ParamWrites[p]
			if p >= len(in.Args) {
				s.Unknown = true
				continue
			}
			base := fc.At(bi, ii, in.Args[p])
			if base.Kind == analysis.Top && iv.Lo >= 0 && fc.regionPtr(in.Args[p]) {
				continue // heap/frame-directed argument: callee writes stay out of globals
			}
			if !st.applySpan(s, base, iv) && diags != nil {
				*diags = append(*diags, analysis.Diagnostic{
					ID: analysis.IDGlobalEscape, Sev: analysis.SevWarn, Pass: interprocPass,
					Func: fc.F.Name, Block: bi, Instr: ii, Line: in.Pos,
					Msg: fmt.Sprintf("call %s may write through argument %d, which the caller cannot bound; globals degrade to whole-section", in.Callee, p),
				})
			}
		}
		return
	}
	eff := builtinEffects[in.Callee]
	if eff == nil {
		s.Unknown = true
		if diags != nil {
			*diags = append(*diags, analysis.Diagnostic{
				ID: analysis.IDCallGraphHole, Sev: analysis.SevWarn, Pass: interprocPass,
				Func: fc.F.Name, Block: bi, Instr: ii, Line: in.Pos,
				Msg: fmt.Sprintf("call-graph hole: callee %q is neither a module function nor a modeled builtin; effects unknown", in.Callee),
			})
		}
		return
	}
	if eff.exits {
		s.MayExit = true
	}
	if eff.writesPtrArg < 0 {
		return
	}
	if eff.writesPtrArg >= len(in.Args) {
		s.Unknown = true
		return
	}
	base := fc.At(bi, ii, in.Args[eff.writesPtrArg])
	span := Interval{Lo: 0, Unbounded: true}
	if n := len(eff.lenArgs); n > 0 {
		length := int64(1)
		bounded := true
		for _, la := range eff.lenArgs {
			if la >= len(in.Args) {
				bounded = false
				break
			}
			v := fc.At(bi, ii, in.Args[la])
			if v.Kind != analysis.Range || v.Hi < 0 || v.Hi > analysis.ValueClamp ||
				length > 0 && v.Hi > 0 && length > analysis.ValueClamp/v.Hi {
				bounded = false
				break
			}
			length *= v.Hi
		}
		if bounded {
			if length <= 0 {
				return // zero-length write: no effect
			}
			span = Interval{Lo: 0, Hi: length - 1}
		} else {
			span = Interval{Lo: 0, Unbounded: true}
		}
	} else {
		span = Interval{Lo: 0, Unbounded: true} // strcpy: starts at dst, length unknown
	}
	if base.Kind == analysis.Top && fc.regionPtr(in.Args[eff.writesPtrArg]) {
		return // heap/frame-directed destination: the write stays out of globals
	}
	if !st.applySpan(s, base, span) && diags != nil {
		*diags = append(*diags, analysis.Diagnostic{
			ID: analysis.IDCallGraphHole, Sev: analysis.SevWarn, Pass: interprocPass,
			Func: fc.F.Name, Block: bi, Instr: ii, Line: in.Pos,
			Msg: fmt.Sprintf("builtin %s writes through an unresolvable destination; globals degrade to whole-section", in.Callee),
		})
	}
}
