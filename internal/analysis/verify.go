package analysis

import (
	"fmt"
	"sort"

	"closurex/internal/ir"
)

// Verifier diagnostic catalog (structural and dataflow invariants; the
// restore-completeness lints occupy CLX001-CLX099, see lint.go).
const (
	IDEmptyFunc     = "CLX101" // function has no blocks
	IDBadTerminator = "CLX102" // block empty, unterminated, or terminator mid-block
	IDBadTarget     = "CLX103" // branch target out of range
	IDBadRegister   = "CLX104" // register operand out of range
	IDBadCallee     = "CLX105" // callee resolves to neither module function nor builtin
	IDBadArity      = "CLX106" // direct call argument count mismatch
	IDBadGlobal     = "CLX107" // global index out of range
	IDBadSize       = "CLX108" // memory access size not 1/2/4/8
	IDUnassignedUse = "CLX109" // register may be read before assignment
	IDBadSection    = "CLX110" // global carries an unknown/empty section attribute
	IDBadSanCheck   = "CLX111" // malformed sancheck (direction not read/write)
	IDOrphanCheck   = "CLX112" // sancheck not immediately followed by its matching load/store
	IDUncheckedAcc  = "CLX113" // sanitized module has a load/store neither checked nor elision-marked

	// Interprocedural elision audit catalog (analysis/interproc). The
	// error IDs gate campaigns exactly like the structural verifier; the
	// warnings explain why a module's restore scope could not shrink.
	IDUnsoundElision = "CLX114" // TrackElide/FileElide mark not provable on re-analysis
	IDCallGraphHole  = "CLX115" // call with unknown effects; analysis degrades to whole-section
	IDGlobalEscape   = "CLX116" // global write unattributable (unknown pointer or unbounded callee write)
	IDElisionDrift   = "CLX117" // recorded may-write metadata omits an analysis-proven write
	IDUnreachableFn  = "CLX118" // function unreachable from target_main/closurex_init

	// Call pre-resolution audit (vm.ResolveModule stamps CalleeIdx at
	// module-commit time; the VM dispatches through it).
	IDStaleCallIdx = "CLX122" // cached callee index disagrees with the callee name
)

const verifierPass = "verifier"

// Builtins is the callee set the verifier resolves calls against, plus its
// canonical slot order: the names sorted ascending, the same derivation
// vm.BuiltinIndex uses, so CLX122 can audit cached negative indices
// without importing the vm package. Prepare it once per pipeline; the
// structural leg runs after every pass.
type Builtins struct {
	names map[string]bool
	slots []string
}

// NewBuiltins prepares a builtin name set for verification.
func NewBuiltins(names map[string]bool) Builtins {
	slots := make([]string, 0, len(names))
	for name := range names {
		slots = append(slots, name)
	}
	sort.Strings(slots)
	return Builtins{names: names, slots: slots}
}

// VerifyStructure is the structural leg of Verify: every check except
// definite assignment (CLX109). Section attributes, block terminators,
// branch targets, register operands, access sizes, global indices, callee
// resolution and arity, sanitizer shape and cached callee indices are all
// checked, and every violation is collected. It costs one walk over the
// instructions, so the lowerer runs it on its output and the pass manager
// after every pass, as `opt -verify-each` would.
func VerifyStructure(m *ir.Module, builtins Builtins) Diagnostics {
	return verify(m, builtins, false)
}

// Verify is the deep verifier: VerifyStructure plus the dataflow leg, which
// flags registers read before they are definitely assigned (dataflow over
// the CFG). The dataflow leg runs only on structurally clean functions.
func Verify(m *ir.Module, builtins Builtins) Diagnostics {
	return verify(m, builtins, true)
}

func verify(m *ir.Module, builtins Builtins, dataflow bool) Diagnostics {
	var ds Diagnostics
	for gi, g := range m.Globals {
		switch g.Section {
		case ir.SectionData, ir.SectionRodata, ir.SectionClosure:
		default:
			ds = append(ds, Diagnostic{
				ID: IDBadSection, Sev: SevError, Pass: verifierPass,
				Block: -1, Instr: -1,
				Msg: fmt.Sprintf("global %d (%s) carries unknown section %q", gi, g.Name, g.Section),
			})
		}
	}
	for _, f := range m.Funcs {
		n := len(ds)
		ds = verifyFunc(ds, m, f, builtins)
		// A broken structure would send the dataflow leg down dangling
		// edges or out-of-range registers.
		if dataflow && !ds[n:].HasErrors() {
			ds = append(ds, verifyAssigned(f)...)
		}
	}
	if len(ds) > 1 { // Sort boxes the slice: keep the clean-module gate alloc-free
		ds.Sort()
	}
	return ds
}

// verifyFunc appends f's structural violations to ds.
func verifyFunc(ds Diagnostics, m *ir.Module, f *ir.Func, builtins Builtins) Diagnostics {
	emit := func(id string, block, instr int, line int32, format string, args ...interface{}) {
		ds = append(ds, Diagnostic{
			ID: id, Sev: SevError, Pass: verifierPass, Func: f.Name,
			Block: block, Instr: instr, Line: line,
			Msg: fmt.Sprintf(format, args...),
		})
	}
	if len(f.Blocks) == 0 {
		emit(IDEmptyFunc, -1, -1, 0, "function has no blocks")
		return ds
	}
	if f.NumParams > f.NumRegs {
		emit(IDBadRegister, -1, -1, 0, "%d params but only %d registers", f.NumParams, f.NumRegs)
	}
	for bi, b := range f.Blocks {
		if len(b.Instrs) == 0 {
			emit(IDBadTerminator, bi, -1, 0, "block is empty (no terminator)")
			continue
		}
		for ii := range b.Instrs {
			in := &b.Instrs[ii]
			last := ii == len(b.Instrs)-1
			if in.IsTerminator() != last {
				if last {
					emit(IDBadTerminator, bi, ii, in.Pos,
						"block falls through: final instruction %s is not a terminator", in.Op)
				} else {
					emit(IDBadTerminator, bi, ii, in.Pos,
						"terminator %s mid-block (instruction %d of %d)", in.Op, ii, len(b.Instrs))
				}
			}
			verifyInstr(m, f, b.Instrs, bi, ii, builtins, emit)
		}
	}
	return ds
}

// verifyInstr checks one instruction's registers, targets, sizes, global
// indices and callee resolution, and enforces the SanitizerPass contract:
// every OpSanCheck guards exactly the access that follows it (CLX112),
// and in a module marked Sanitized every load/store is either guarded or
// carries the SanElide proof mark (CLX113). Dropping a check without
// recording the elision is a verifier error, not a silent soundness hole.
func verifyInstr(m *ir.Module, f *ir.Func, instrs []ir.Instr, bi, ii int, builtins Builtins,
	emit func(string, int, int, int32, string, ...interface{})) {

	in := &instrs[ii]
	reg := func(r int, what string) {
		if r < 0 || r >= f.NumRegs {
			emit(IDBadRegister, bi, ii, in.Pos, "%s: %s register %d out of range [0,%d)", in.Op, what, r, f.NumRegs)
		}
	}
	target := func(t int) {
		if t < 0 || t >= len(f.Blocks) {
			emit(IDBadTarget, bi, ii, in.Pos, "%s: branch target %d out of range [0,%d)", in.Op, t, len(f.Blocks))
		}
	}
	size := func() {
		switch in.Size {
		case 1, 2, 4, 8:
		default:
			emit(IDBadSize, bi, ii, in.Pos, "%s: access size %d (want 1, 2, 4 or 8)", in.Op, in.Size)
		}
	}
	guarded := func() {
		if m.Sanitized && !in.SanElide && (ii == 0 || !guards(&instrs[ii-1], in)) {
			emit(IDUncheckedAcc, bi, ii, in.Pos,
				"%s in sanitized module is neither shadow-checked nor elision-marked", in.Op)
		}
	}
	switch in.Op {
	case ir.OpConst, ir.OpFrameAddr:
		reg(in.Dst, "dst")
	case ir.OpGlobalAddr:
		if in.Imm < 0 || in.Imm >= int64(len(m.Globals)) {
			emit(IDBadGlobal, bi, ii, in.Pos, "global index %d out of range [0,%d)", in.Imm, len(m.Globals))
		}
		reg(in.Dst, "dst")
	case ir.OpMov, ir.OpUn:
		reg(in.A, "src")
		reg(in.Dst, "dst")
	case ir.OpBin:
		reg(in.A, "lhs")
		reg(in.B, "rhs")
		reg(in.Dst, "dst")
	case ir.OpLoad:
		size()
		reg(in.A, "addr")
		reg(in.Dst, "dst")
		guarded()
	case ir.OpStore:
		size()
		reg(in.A, "addr")
		reg(in.B, "val")
		guarded()
	case ir.OpCall:
		callee := m.Func(in.Callee)
		if callee == nil && !builtins.names[in.Callee] {
			emit(IDBadCallee, bi, ii, in.Pos, "callee %q resolves to neither a module function nor a builtin", in.Callee)
		}
		if callee != nil && len(in.Args) != callee.NumParams {
			emit(IDBadArity, bi, ii, in.Pos, "call %s: %d args, want %d", in.Callee, len(in.Args), callee.NumParams)
		}
		// A cached callee index (stamped by vm.ResolveModule at commit
		// time) must still name the callee it was resolved against; a
		// mismatch means a pass rewrote call sites without invalidating
		// the cache, and the VM would silently call the wrong function.
		switch {
		case in.CalleeIdx > 0:
			if fi := in.CalleeIdx - 1; fi >= len(m.Funcs) || m.Funcs[fi].Name != in.Callee {
				emit(IDStaleCallIdx, bi, ii, in.Pos,
					"cached callee index %d does not resolve to %q", in.CalleeIdx, in.Callee)
			}
		case in.CalleeIdx < 0:
			if slot := -in.CalleeIdx - 1; slot >= len(builtins.slots) || builtins.slots[slot] != in.Callee {
				emit(IDStaleCallIdx, bi, ii, in.Pos,
					"cached builtin index %d does not resolve to %q", in.CalleeIdx, in.Callee)
			}
		}
		for _, a := range in.Args {
			reg(a, "arg")
		}
		reg(in.Dst, "dst")
	case ir.OpRet:
		if in.A >= 0 {
			reg(in.A, "ret")
		}
	case ir.OpBr:
		target(in.Targets[0])
	case ir.OpCondBr:
		reg(in.A, "cond")
		target(in.Targets[0])
		target(in.Targets[1])
	case ir.OpCov, ir.OpUnreachable:
	case ir.OpSanCheck:
		size()
		reg(in.A, "addr")
		if in.B != 0 && in.B != 1 {
			emit(IDBadSanCheck, bi, ii, in.Pos, "sancheck direction %d (want 0=read or 1=write)", in.B)
		}
		if ii+1 == len(instrs) || !guards(in, &instrs[ii+1]) {
			emit(IDOrphanCheck, bi, ii, in.Pos,
				"sancheck is not immediately followed by its matching %s",
				map[int]string{0: "load", 1: "store"}[in.B])
		}
	default:
		emit(IDBadTerminator, bi, ii, in.Pos, "unknown opcode %d", uint8(in.Op))
	}
}

// guards reports whether chk is the shadow check for access acc: a
// sancheck of acc's direction (0 load, 1 store), address, offset and size.
func guards(chk, acc *ir.Instr) bool {
	dir := 0
	if acc.Op == ir.OpStore {
		dir = 1
	}
	return chk.Op == ir.OpSanCheck && (acc.Op == ir.OpLoad || acc.Op == ir.OpStore) &&
		chk.B == dir && chk.A == acc.A && chk.Imm == acc.Imm && chk.Size == acc.Size
}

// verifyAssigned flags every register read that is not definitely assigned
// on all paths from entry — the dataflow leg of the verifier. Must run on a
// structurally valid function only.
func verifyAssigned(f *ir.Func) Diagnostics {
	cfg := BuildCFG(f)
	assigned := computeAssigned(cfg)
	reach := cfg.Reachable()
	var ds Diagnostics
	var buf []int
	for bi, b := range f.Blocks {
		if !reach[bi] {
			continue // dead joins synthesized by lowering carry no semantics
		}
		cur := assigned.in[bi].Copy()
		for ii := range b.Instrs {
			in := &b.Instrs[ii]
			buf = InstrUses(in, buf[:0])
			for _, r := range buf {
				if !cur.Has(r) {
					ds = append(ds, Diagnostic{
						ID: IDUnassignedUse, Sev: SevError, Pass: verifierPass,
						Func: f.Name, Block: bi, Instr: ii, Line: in.Pos,
						Msg: fmt.Sprintf("%s reads register %d, which is not assigned on every path from entry", in.Op, r),
					})
					cur.Set(r) // report each register once per block
				}
			}
			if d := InstrDef(in); d >= 0 {
				cur.Set(d)
			}
		}
	}
	return ds
}
