package vm

import (
	"errors"
	"fmt"

	"closurex/internal/ir"
	"closurex/internal/mem"
)

// fault constructs a sanitizer report at the current instruction.
func (v *VM) fault(kind FaultKind, in *ir.Instr, addr uint64, msg string) *Fault {
	fn := "?"
	if v.curFn != nil {
		fn = v.curFn.Name
	}
	var line int32
	if in != nil {
		line = in.Pos
	}
	return &Fault{Kind: kind, Fn: fn, Line: line, Addr: addr, Msg: msg}
}

// checkAccess classifies addr and validates an n-byte access of the given
// kind (store=true for writes).
func (v *VM) checkAccess(addr uint64, n int, store bool, in *ir.Instr) *Fault {
	switch {
	case addr < mem.PageSize:
		return v.fault(FaultNullDeref, in, addr, "")
	case addr >= GlobalsBase && addr < HeapBase:
		if addr+uint64(n) > v.Layout.End {
			return v.fault(FaultGlobalOOB, in, addr, "")
		}
		if store && v.Layout.InRodata(addr, n) {
			return v.fault(FaultWriteRodata, in, addr, "")
		}
		return nil
	case addr >= HeapBase && addr < HeapEnd:
		if err := v.Heap.Check(addr, n); err != nil {
			kind := FaultHeapOOB
			if errors.Is(err, mem.ErrUseAfterFree) {
				kind = FaultUseAfterFree
			}
			return v.fault(kind, in, addr, err.Error())
		}
		return nil
	case addr >= StackBase && addr < StackEnd:
		if addr+uint64(n) > v.sp {
			// Touching stack memory above every live frame: treat like a
			// (local) out-of-bounds, since no variable lives there.
			return v.fault(FaultWild, in, addr, "access above live frames")
		}
		return nil
	}
	return v.fault(FaultWild, in, addr, "")
}

// op is one decoded instruction of the interpreter's stream (32 bytes).
// decode lays every function of a module out as one flat array of ops,
// block after block, with branch targets turned into absolute stream
// positions; in points back at the ir.Instr for fault sites, builtins,
// sanitizer checks and the binary operators that can fault.
type op struct {
	code ir.Op // an ir opcode, or one of the decoded-only codes below
	size uint8 // OpLoad/OpStore: access width
	un   ir.UnOp
	_    byte
	dst  int32 // destination register; OpCondBr: the false target
	a    int32 // operand register; OpBr: the target
	b    int32 // operand register; OpCondBr: the true target
	// imm is the immediate (an OpGlobalAddr decodes to an OpConst of the
	// global's address). For OpCall it is the callee: +k runs funcs[k-1],
	// -k runs builtin slot k-1, and 0 faults with an unknown callee.
	imm int64
	in  *ir.Instr
}

// Decoded-only opcodes, numbered on from the ir range so the dispatch
// switch stays dense.
const (
	// opFellOff ends a block that has no terminator (never on a verified
	// module). It is not an instruction: it charges no budget and faults.
	opFellOff = ir.OpSanCheck + 1 + iota
	// opBin+k is OpBin with operator k, for every operator that cannot
	// fault; Div and Rem stay OpBin.
	opBin
)

// funcCode is one function's place in the stream.
type funcCode struct {
	fn    *ir.Func
	entry int
}

// program is a module decoded for the interpreter: every function's ops
// in one array. It is built once per module image (New) and shared
// read-only by every fork of it.
type program struct {
	ops   []op
	funcs []funcCode // aligned with Module.Funcs
}

// decode builds mod's stream over the global addresses of lay. Callees
// are resolved here, once: a call's CalleeIdx when it has one, otherwise
// its name, module functions first and then builtins, as an unresolved
// call always looked them up.
func decode(mod *ir.Module, lay *Layout) *program {
	n, maxBlocks := 0, 0
	for _, f := range mod.Funcs {
		n++ // every function ends in an opFellOff, the target of bad branches
		for _, blk := range f.Blocks {
			n += len(blk.Instrs) + 1
		}
		maxBlocks = max(maxBlocks, len(f.Blocks))
	}
	p := &program{ops: make([]op, 0, n), funcs: make([]funcCode, len(mod.Funcs))}
	starts := make([]int32, 0, maxBlocks)
	for fi, f := range mod.Funcs {
		p.funcs[fi] = funcCode{fn: f, entry: len(p.ops)}
		// Block starts first, so forward branches resolve in one pass.
		starts = starts[:0]
		at := len(p.ops)
		for _, blk := range f.Blocks {
			starts = append(starts, int32(at))
			at += len(blk.Instrs)
			if blk.Terminator() == nil {
				at++
			}
		}
		target := func(bi int) int32 {
			if bi < 0 || bi >= len(starts) {
				return int32(at) // the function's final opFellOff
			}
			return starts[bi]
		}
		for _, blk := range f.Blocks {
			for ii := range blk.Instrs {
				in := &blk.Instrs[ii]
				o := op{code: in.Op, size: uint8(in.Size), un: in.Un,
					dst: int32(in.Dst), a: int32(in.A), b: int32(in.B), imm: in.Imm, in: in}
				switch in.Op {
				case ir.OpBin:
					if in.Bin <= ir.Uge && in.Bin != ir.Div && in.Bin != ir.Rem {
						o.code = opBin + ir.Op(in.Bin)
					}
				case ir.OpGlobalAddr:
					if in.Imm >= 0 && in.Imm < int64(len(lay.GlobalAddr)) {
						o.code, o.imm = ir.OpConst, int64(lay.GlobalAddr[in.Imm])
					}
				case ir.OpBr:
					o.a = target(in.Targets[0])
				case ir.OpCondBr:
					o.b, o.dst = target(in.Targets[0]), target(in.Targets[1])
				case ir.OpCall:
					o.imm = resolveCallee(mod, in)
				}
				p.ops = append(p.ops, o)
			}
			if blk.Terminator() == nil {
				p.ops = append(p.ops, op{code: opFellOff})
			}
		}
		p.ops = append(p.ops, op{code: opFellOff})
	}
	return p
}

// resolveCallee returns the decoded callee of an OpCall (see op.imm). A
// cached index out of range, which the verifier rejects (CLX122), decodes
// to an unknown callee.
func resolveCallee(mod *ir.Module, in *ir.Instr) int64 {
	switch k := in.CalleeIdx; {
	case k > 0 && k <= len(mod.Funcs):
		return int64(k)
	case k < 0 && -k <= len(builtinSlots):
		return int64(k)
	case k != 0:
		return 0
	}
	if fi := mod.FuncIndex(in.Callee); fi >= 0 {
		return int64(fi + 1)
	}
	if bi := BuiltinIndex(in.Callee); bi >= 0 {
		return int64(-(bi + 1))
	}
	return 0
}

// execFunc interprets one function activation. Go-level recursion carries
// the target's call stack; addressable locals live in the stack segment.
func (v *VM) execFunc(fc *funcCode, args []int64) (int64, error) {
	f := fc.fn
	if v.depth >= DefaultMaxDepth {
		return 0, &Fault{Kind: FaultStackOverflow, Fn: f.Name, Msg: "call depth"}
	}
	if v.sp+uint64(f.FrameSize) > StackEnd {
		return 0, &Fault{Kind: FaultStackOverflow, Fn: f.Name, Msg: "frame area"}
	}
	v.depth++
	savedFn := v.curFn
	v.curFn = f
	frame := v.sp
	v.sp += uint64(f.FrameSize)
	defer func() {
		v.depth--
		v.curFn = savedFn
		v.sp = frame
	}()
	if f.FrameSize > 0 {
		// Fresh frames read as zero: scrub whatever a previous activation
		// left behind so stack state never leaks across calls (let alone
		// test cases).
		if err := v.Mem.Zero(frame, int(f.FrameSize)); err != nil {
			return 0, &Fault{Kind: FaultOOM, Fn: f.Name, Msg: err.Error()}
		}
	}

	// Reuse a pooled register frame for this depth. Frames are zeroed on
	// reuse so register state can never leak between activations.
	for len(v.regPool) <= v.depth {
		v.regPool = append(v.regPool, nil)
	}
	regs := v.regPool[v.depth-1]
	if cap(regs) < f.NumRegs {
		regs = make([]int64, f.NumRegs+16)
		v.regPool[v.depth-1] = regs
	}
	regs = regs[:f.NumRegs]
	clear(regs)
	copy(regs, args)

	ops := v.prog.ops
	for pc := fc.entry; ; {
		o := &ops[pc]
		pc++
		v.instrs++
		v.budget--
		if v.budget <= 0 {
			if o.code == opFellOff {
				v.instrs--
				return 0, v.fault(FaultUnreachable, nil, 0, "fell off block end")
			}
			return 0, v.fault(FaultTimeout, o.in, 0, "instruction budget exhausted")
		}
		switch o.code {
		case ir.OpConst:
			regs[o.dst] = o.imm
		case ir.OpMov:
			regs[o.dst] = regs[o.a]
		case opBin + ir.Op(ir.Add):
			regs[o.dst] = regs[o.a] + regs[o.b]
		case opBin + ir.Op(ir.Sub):
			regs[o.dst] = regs[o.a] - regs[o.b]
		case opBin + ir.Op(ir.Mul):
			regs[o.dst] = regs[o.a] * regs[o.b]
		case opBin + ir.Op(ir.Shl):
			regs[o.dst] = regs[o.a] << (uint64(regs[o.b]) & 63)
		case opBin + ir.Op(ir.Shr):
			regs[o.dst] = regs[o.a] >> (uint64(regs[o.b]) & 63)
		case opBin + ir.Op(ir.And):
			regs[o.dst] = regs[o.a] & regs[o.b]
		case opBin + ir.Op(ir.Or):
			regs[o.dst] = regs[o.a] | regs[o.b]
		case opBin + ir.Op(ir.Xor):
			regs[o.dst] = regs[o.a] ^ regs[o.b]
		case opBin + ir.Op(ir.Eq):
			regs[o.dst] = b2i(regs[o.a] == regs[o.b])
		case opBin + ir.Op(ir.Ne):
			regs[o.dst] = b2i(regs[o.a] != regs[o.b])
		case opBin + ir.Op(ir.Lt):
			regs[o.dst] = b2i(regs[o.a] < regs[o.b])
		case opBin + ir.Op(ir.Le):
			regs[o.dst] = b2i(regs[o.a] <= regs[o.b])
		case opBin + ir.Op(ir.Gt):
			regs[o.dst] = b2i(regs[o.a] > regs[o.b])
		case opBin + ir.Op(ir.Ge):
			regs[o.dst] = b2i(regs[o.a] >= regs[o.b])
		case opBin + ir.Op(ir.Ult):
			regs[o.dst] = b2i(uint64(regs[o.a]) < uint64(regs[o.b]))
		case opBin + ir.Op(ir.Ule):
			regs[o.dst] = b2i(uint64(regs[o.a]) <= uint64(regs[o.b]))
		case opBin + ir.Op(ir.Ugt):
			regs[o.dst] = b2i(uint64(regs[o.a]) > uint64(regs[o.b]))
		case opBin + ir.Op(ir.Uge):
			regs[o.dst] = b2i(uint64(regs[o.a]) >= uint64(regs[o.b]))
		case ir.OpBin:
			r, flt := v.divRem(o.in, regs[o.a], regs[o.b])
			if flt != nil {
				return 0, flt
			}
			regs[o.dst] = r
		case ir.OpUn:
			switch o.un {
			case ir.Neg:
				regs[o.dst] = -regs[o.a]
			case ir.Not:
				if regs[o.a] == 0 {
					regs[o.dst] = 1
				} else {
					regs[o.dst] = 0
				}
			case ir.BNot:
				regs[o.dst] = ^regs[o.a]
			}
		case ir.OpLoad:
			addr := uint64(regs[o.a] + o.imm)
			if flt := v.checkAccess(addr, int(o.size), false, o.in); flt != nil {
				return 0, flt
			}
			u, err := v.Mem.ReadUint(addr, int(o.size))
			if err != nil {
				return 0, v.fault(FaultWild, o.in, addr, err.Error())
			}
			regs[o.dst] = int64(u)
		case ir.OpStore:
			addr := uint64(regs[o.a] + o.imm)
			if flt := v.checkAccess(addr, int(o.size), true, o.in); flt != nil {
				return 0, flt
			}
			if err := v.Mem.WriteUint(addr, uint64(regs[o.b]), int(o.size)); err != nil {
				return 0, v.fault(FaultOOM, o.in, addr, err.Error())
			}
		case ir.OpGlobalAddr:
			// Only a global index out of range stays undecoded.
			regs[o.dst] = int64(v.Layout.GlobalAddr[o.imm])
		case ir.OpFrameAddr:
			regs[o.dst] = int64(frame + uint64(o.imm))
		case ir.OpCall:
			// Coverage is call-transparent: the callee records its own
			// internal edges plus one entry edge, and the caller's
			// context resumes afterwards. This keeps the set of
			// possible dynamic edges equal to the static CFG+callgraph
			// bound (passes.TotalEdges), so coverage percentages are
			// well-defined.
			saved := v.prevLoc
			r, err := v.call(o, regs)
			if err != nil {
				return 0, err
			}
			v.prevLoc = saved
			regs[o.dst] = r
		case ir.OpRet:
			if o.a >= 0 {
				return regs[o.a], nil
			}
			return 0, nil
		case ir.OpBr:
			pc = int(o.a)
		case ir.OpCondBr:
			if regs[o.a] != 0 {
				pc = int(o.b)
			} else {
				pc = int(o.dst)
			}
		case ir.OpCov:
			loc := uint64(o.imm)
			idx := (loc ^ v.prevLoc) & (CovMapSize - 1)
			// cov and covIdx are always bound (VMs without an external
			// map or index carry scratch ones), so no nil check in the
			// hot loop, and the masked index needs no bounds check.
			c := v.cov[idx]
			v.cov[idx] = c + 1
			if c == 0 {
				v.covIdx.Add(int(idx))
			}
			v.prevLoc = loc >> 1
			if v.traceEdges {
				v.pathHash = (v.pathHash ^ idx) * 1099511628211
				v.pathLen++
			}
		case ir.OpUnreachable:
			return 0, v.fault(FaultUnreachable, o.in, 0, "")
		case ir.OpSanCheck:
			// Budget-transparent: compensate the unconditional decrement
			// above so arming the sanitizer can never flip a borderline
			// execution into a hang verdict (differential and
			// determinism guarantees depend on this).
			v.budget++
			addr := uint64(regs[o.a] + o.imm)
			if flt := v.sanCheck(addr, o.in); flt != nil {
				return 0, flt
			}
		case opFellOff:
			// Every terminator returns or jumps, so only a block without
			// one gets here. Falling off is not an instruction.
			v.instrs--
			v.budget++
			return 0, v.fault(FaultUnreachable, nil, 0, "fell off block end")
		}
	}
}

// divRem evaluates the OpBin operators the stream does not decode: Div
// and Rem, with C-like 64-bit semantics, and a bad operator.
func (v *VM) divRem(in *ir.Instr, a, b int64) (int64, *Fault) {
	switch in.Bin {
	case ir.Div:
		if b == 0 {
			return 0, v.fault(FaultDivByZero, in, 0, "")
		}
		if b == -1 { // avoid Go panic on MinInt64 / -1
			return -a, nil
		}
		return a / b, nil
	case ir.Rem:
		if b == 0 {
			return 0, v.fault(FaultDivByZero, in, 0, "")
		}
		if b == -1 {
			return 0, nil
		}
		return a % b, nil
	}
	return 0, v.fault(FaultBadCall, in, 0, fmt.Sprintf("bad binop %d", in.Bin))
}

func b2i(b bool) int64 {
	if b {
		return 1
	}
	return 0
}

// call dispatches an OpCall to a module function or a builtin. Argument
// values are staged in a stack buffer: both execFunc (which copies them
// into the callee's registers immediately) and builtins (which consume
// them synchronously) are done with the buffer before any reentry.
func (v *VM) call(o *op, regs []int64) (int64, error) {
	in := o.in
	for len(v.argPool) <= v.depth {
		v.argPool = append(v.argPool, nil)
	}
	args := v.argPool[v.depth]
	if cap(args) < len(in.Args) {
		args = make([]int64, len(in.Args))
		v.argPool[v.depth] = args
	}
	args = args[:len(in.Args)]
	for i, a := range in.Args {
		args[i] = regs[a]
	}
	switch {
	case o.imm > 0:
		return v.execFunc(&v.prog.funcs[o.imm-1], args)
	case o.imm < 0:
		return builtinSlots[-o.imm-1](v, in, args)
	}
	return 0, v.fault(FaultBadCall, in, 0, "unknown callee "+in.Callee)
}
