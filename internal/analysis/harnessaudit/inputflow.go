package harnessaudit

// Input-dataflow constant harvesting (CLX121 + the auto-dictionary). A
// taint-style forward dataflow marks every register that may hold
// input-derived bytes — seeded at the input-reading builtins (fread/fgetc)
// and the entry point's parameters (the argv model) — and propagates
// through moves, arithmetic, loads/stores (with a coarse frame/global/heap
// memory model), and calls (parameter and return taint to interprocedural
// fixpoint). Every comparison of a tainted value against a resolvable
// constant is a *witness*: the target demonstrably steers control flow on
// those input bytes.
//
// Witnesses serve two masters. Backward, they audit the manual dictionary:
// a token none of the witnesses account for never influences a branch, so
// mutating it in is wasted budget — CLX121. Forward, the witness constants
// *are* the format's magic values, so they are assembled into a per-target
// auto-dictionary (multi-byte constants in both endiannesses, rodata
// strings handed to str/memcmp, call-site constant clusters like
// fourcc(k,'S','C','A','L'), and byte-compare runs like the "ustar" and
// "GIF8" checks) for the mutator's havoc stage.
//
// The analysis over-approximates taint on purpose: an unknown pointer
// dereference taints once any memory is tainted. False *liveness* merely
// keeps a stale token; false *deadness* would fail the -strict gate on a
// healthy harness.

import (
	"bytes"
	"sort"

	"closurex/internal/analysis"
	"closurex/internal/ir"
)

// maxTokenLen truncates harvested tokens; maxAutoDict caps the dictionary.
const (
	maxTokenLen = 32
	maxAutoDict = 64
	maxRunLen   = 16
)

// inputReads are the builtins whose results/buffers carry input bytes.
// freadLike additionally taints the memory behind argument 0.
var inputReads = map[string]bool{
	"fread": true, "closurex_fread": true,
	"fgetc": true, "closurex_fgetc": true,
}

var freadLike = map[string]bool{
	"fread": true, "closurex_fread": true,
}

// copyCalls propagate taint from the source (arg 1) to the destination
// (arg 0) buffer.
var copyCalls = map[string]bool{
	"memcpy": true, "strcpy": true,
	"closurex_memcpy": true, "closurex_strcpy": true,
}

// compareCalls compare two buffers; a tainted-vs-rodata pair yields a
// string token witness.
var compareCalls = map[string]bool{
	"memcmp": true, "strcmp": true, "strncmp": true,
}

// allocCalls return heap pointers (for the pointer-tag lattice).
var allocCalls = map[string]bool{
	"malloc": true, "calloc": true, "realloc": true,
	"closurex_malloc": true, "closurex_calloc": true, "closurex_realloc": true,
}

// ---- pointer tags ----

// tagKind classifies what a register may point at; the memory model needs
// only enough precision to route taint between frames, globals and heap.
type tagKind uint8

const (
	tagNone tagKind = iota
	tagFrame
	tagGlobal
	tagHeap
	tagUnknown
)

type ptag struct {
	kind tagKind
	g    int // global index for tagGlobal
}

func joinTag(a, b ptag) ptag {
	if a.kind == tagNone {
		return b
	}
	if b.kind == tagNone || a == b {
		return a
	}
	return ptag{kind: tagUnknown}
}

// ---- witnesses ----

type maskWit struct{ mask, val byte }
type rangeWit struct{ lo, hi byte }

// flowResult carries every harvested witness plus the auto-dictionary
// candidates, in deterministic order.
type flowResult struct {
	sources  int       // input-read call sites seen
	witBytes [256]bool // exact byte-compare witnesses
	masks    []maskWit
	ranges   []rangeWit
	tokens   [][]byte // multi-byte witness tokens, in harvest order
}

func (fr *flowResult) addToken(tok []byte) {
	if len(tok) < 2 {
		return
	}
	if len(tok) > maxTokenLen {
		tok = tok[:maxTokenLen]
	}
	fr.tokens = append(fr.tokens, append([]byte(nil), tok...))
}

// matchesByte reports whether some witness accounts for byte b.
func (fr *flowResult) matchesByte(b byte) bool {
	if fr.witBytes[b] {
		return true
	}
	for _, m := range fr.masks {
		if b&m.mask == m.val&m.mask {
			return true
		}
	}
	for _, r := range fr.ranges {
		if b >= r.lo && b <= r.hi {
			return true
		}
	}
	return false
}

// autoDict assembles the auto-dictionary: every multi-byte witness token,
// content-deduplicated, ordered by (length, bytes), capped at maxAutoDict.
func (fr *flowResult) autoDict() [][]byte {
	seen := map[string]bool{}
	var out [][]byte
	for _, tok := range fr.tokens {
		if k := string(tok); !seen[k] {
			seen[k] = true
			out = append(out, tok)
		}
	}
	sort.Slice(out, func(i, j int) bool {
		if len(out[i]) != len(out[j]) {
			return len(out[i]) < len(out[j])
		}
		return bytes.Compare(out[i], out[j]) < 0
	})
	if len(out) > maxAutoDict {
		out = out[:maxAutoDict]
	}
	return out
}

// ---- the dataflow state ----

type flowState struct {
	m    *ir.Module
	tags map[string][]ptag // per function, per register

	regTaint   map[string][]bool
	paramTaint map[string][]bool
	retTaint   map[string]bool

	frameTaint     map[string]bool
	globalTaint    map[int]bool
	globalTaintAll bool
	heapTaint      bool

	changed bool
}

// analyzeInputFlow runs the taint fixpoint and the harvest pass.
func analyzeInputFlow(m *ir.Module) *flowResult {
	st := solveFlow(m)
	res := &flowResult{}
	for _, f := range m.Funcs {
		st.countSources(f, res)
	}
	sinks := map[string]map[int]bool{} // fn -> compare-sink param indices
	for _, f := range m.Funcs {
		st.harvestFunc(f, res, sinks)
	}
	for _, f := range m.Funcs {
		st.harvestCallClusters(f, res, sinks)
	}
	return res
}

// solveFlow seeds the taint lattice (input-reading builtins plus the entry
// point's parameters) and runs the interprocedural fixpoint to completion,
// returning the solved state for harvesting or fact extraction.
func solveFlow(m *ir.Module) *flowState {
	st := &flowState{
		m:           m,
		tags:        map[string][]ptag{},
		regTaint:    map[string][]bool{},
		paramTaint:  map[string][]bool{},
		retTaint:    map[string]bool{},
		frameTaint:  map[string]bool{},
		globalTaint: map[int]bool{},
	}
	for _, f := range m.Funcs {
		st.tags[f.Name] = computeTags(m, f)
		st.regTaint[f.Name] = make([]bool, f.NumRegs)
		st.paramTaint[f.Name] = make([]bool, f.NumRegs)
	}
	// Entry-point parameters model argv-style input.
	for _, root := range []string{analysis.TargetMain, "main"} {
		if f := m.Func(root); f != nil {
			pt := st.paramTaint[root]
			for i := 0; i < f.NumParams && i < len(pt); i++ {
				pt[i] = true
			}
		}
	}
	// Interprocedural fixpoint: flow-insensitive within a function, so
	// each outer round re-scans every function until nothing anywhere
	// changes. Taint only ever grows; termination is by finiteness.
	for {
		st.changed = false
		for _, f := range m.Funcs {
			st.propagateFunc(f)
		}
		if !st.changed {
			break
		}
	}
	return st
}

// computeTags derives the flow-insensitive pointer tag of every register.
func computeTags(m *ir.Module, f *ir.Func) []ptag {
	tg := make([]ptag, f.NumRegs)
	upd := func(r int, t ptag) bool {
		if r < 0 || r >= len(tg) || t.kind == tagNone {
			return false
		}
		nt := joinTag(tg[r], t)
		if nt != tg[r] {
			tg[r] = nt
			return true
		}
		return false
	}
	for changed := true; changed; {
		changed = false
		for _, b := range f.Blocks {
			for ii := range b.Instrs {
				in := &b.Instrs[ii]
				switch in.Op {
				case ir.OpFrameAddr:
					changed = upd(in.Dst, ptag{kind: tagFrame}) || changed
				case ir.OpGlobalAddr:
					changed = upd(in.Dst, ptag{kind: tagGlobal, g: int(in.Imm)}) || changed
				case ir.OpMov:
					if in.A >= 0 && in.A < len(tg) {
						changed = upd(in.Dst, tg[in.A]) || changed
					}
				case ir.OpBin:
					// Pointer arithmetic keeps the pointer operand's tag.
					if in.Bin == ir.Add || in.Bin == ir.Sub {
						var ta, tb ptag
						if in.A >= 0 && in.A < len(tg) {
							ta = tg[in.A]
						}
						if in.B >= 0 && in.B < len(tg) {
							tb = tg[in.B]
						}
						switch {
						case ta.kind != tagNone && tb.kind == tagNone:
							changed = upd(in.Dst, ta) || changed
						case tb.kind != tagNone && ta.kind == tagNone:
							changed = upd(in.Dst, tb) || changed
						case ta.kind != tagNone && tb.kind != tagNone:
							changed = upd(in.Dst, ptag{kind: tagUnknown}) || changed
						}
					}
				case ir.OpLoad:
					// A pointer-width load may produce a pointer we know
					// nothing about (heap buffers parked in frame slots).
					if in.Size == 8 {
						changed = upd(in.Dst, ptag{kind: tagUnknown}) || changed
					}
				case ir.OpCall:
					switch {
					case allocCalls[in.Callee]:
						changed = upd(in.Dst, ptag{kind: tagHeap}) || changed
					case copyCalls[in.Callee] && len(in.Args) > 0 && in.Args[0] >= 0 && in.Args[0] < len(tg):
						changed = upd(in.Dst, tg[in.Args[0]]) || changed
					case m.Func(in.Callee) != nil && in.Dst >= 0:
						changed = upd(in.Dst, ptag{kind: tagUnknown}) || changed
					}
				}
			}
		}
	}
	return tg
}

func (st *flowState) tagOf(fn string, r int) ptag {
	tg := st.tags[fn]
	if r < 0 || r >= len(tg) {
		return ptag{kind: tagUnknown}
	}
	return tg[r]
}

// anyMemTaint reports whether any memory region reachable from fn may hold
// input bytes — the fallback for unknown-pointer dereferences.
func (st *flowState) anyMemTaint(fn string) bool {
	return st.heapTaint || st.globalTaintAll || st.frameTaint[fn] || len(st.globalTaint) > 0
}

// memTaintAt reports whether memory behind a pointer with tag t may hold
// input bytes when dereferenced inside fn.
func (st *flowState) memTaintAt(fn string, t ptag) bool {
	switch t.kind {
	case tagFrame:
		return st.frameTaint[fn]
	case tagGlobal:
		if t.g >= 0 && t.g < len(st.m.Globals) && st.m.Globals[t.g].Const {
			return false // rodata cannot acquire input bytes
		}
		return st.globalTaintAll || st.globalTaint[t.g]
	case tagHeap:
		return st.heapTaint
	default:
		return st.anyMemTaint(fn)
	}
}

// taintMemAt records that memory behind tag t received input bytes.
func (st *flowState) taintMemAt(fn string, t ptag) {
	switch t.kind {
	case tagFrame:
		if !st.frameTaint[fn] {
			st.frameTaint[fn] = true
			st.changed = true
		}
	case tagGlobal:
		if !st.globalTaint[t.g] {
			st.globalTaint[t.g] = true
			st.changed = true
		}
	case tagHeap:
		if !st.heapTaint {
			st.heapTaint = true
			st.changed = true
		}
	default:
		if !st.heapTaint || !st.globalTaintAll || !st.frameTaint[fn] {
			st.heapTaint, st.globalTaintAll, st.frameTaint[fn] = true, true, true
			st.changed = true
		}
	}
}

// propagateFunc runs fn's transfer functions to a local fixpoint.
func (st *flowState) propagateFunc(f *ir.Func) {
	t := st.regTaint[f.Name]
	set := func(r int) {
		if r >= 0 && r < len(t) && !t[r] {
			t[r] = true
			st.changed = true
		}
	}
	taintedReg := func(r int) bool { return r >= 0 && r < len(t) && t[r] }
	for {
		before := st.changed
		// Parameter taint accumulated from call sites elsewhere.
		for i, pt := range st.paramTaint[f.Name] {
			if pt {
				set(i)
			}
		}
		for _, b := range f.Blocks {
			for ii := range b.Instrs {
				in := &b.Instrs[ii]
				switch in.Op {
				case ir.OpMov, ir.OpUn:
					if taintedReg(in.A) {
						set(in.Dst)
					}
				case ir.OpBin:
					if taintedReg(in.A) || taintedReg(in.B) {
						set(in.Dst)
					}
				case ir.OpLoad:
					if taintedReg(in.A) || st.memTaintAt(f.Name, st.tagOf(f.Name, in.A)) {
						set(in.Dst)
					}
				case ir.OpStore:
					if taintedReg(in.B) {
						st.taintMemAt(f.Name, st.tagOf(f.Name, in.A))
					}
				case ir.OpCall:
					st.propagateCall(f, in, t, set, taintedReg)
				case ir.OpRet:
					if in.A >= 0 && taintedReg(in.A) && !st.retTaint[f.Name] {
						st.retTaint[f.Name] = true
						st.changed = true
					}
				}
			}
		}
		if st.changed == before {
			break
		}
	}
}

func (st *flowState) propagateCall(f *ir.Func, in *ir.Instr, t []bool, set func(int), taintedReg func(int) bool) {
	switch {
	case inputReads[in.Callee]:
		set(in.Dst)
		if freadLike[in.Callee] && len(in.Args) > 0 {
			st.taintMemAt(f.Name, st.tagOf(f.Name, in.Args[0]))
		}
	case copyCalls[in.Callee]:
		if len(in.Args) >= 2 {
			src := in.Args[1]
			if taintedReg(src) || st.memTaintAt(f.Name, st.tagOf(f.Name, src)) {
				st.taintMemAt(f.Name, st.tagOf(f.Name, in.Args[0]))
			}
		}
	case st.m.Func(in.Callee) != nil:
		pt := st.paramTaint[in.Callee]
		for i, a := range in.Args {
			if i < len(pt) && taintedReg(a) && !pt[i] {
				pt[i] = true
				st.changed = true
			}
		}
		if st.retTaint[in.Callee] {
			set(in.Dst)
		}
	default:
		// Opaque builtin: the result depends on its (possibly tainted)
		// inputs — memcmp over input bytes yields an input-derived value.
		for _, a := range in.Args {
			if taintedReg(a) || (st.tagOf(f.Name, a).kind != tagNone && st.memTaintAt(f.Name, st.tagOf(f.Name, a))) {
				set(in.Dst)
				break
			}
		}
	}
}

func (st *flowState) countSources(f *ir.Func, res *flowResult) {
	for _, b := range f.Blocks {
		for ii := range b.Instrs {
			if in := &b.Instrs[ii]; in.Op == ir.OpCall && inputReads[in.Callee] {
				res.sources++
			}
		}
	}
}
