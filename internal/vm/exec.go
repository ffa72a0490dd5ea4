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

// execFunc interprets one function activation. Go-level recursion carries
// the target's call stack; addressable locals live in the stack segment.
func (v *VM) execFunc(f *ir.Func, args []int64) (int64, error) {
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

	bi := 0
block:
	for {
		blk := f.Blocks[bi]
		for ii := range blk.Instrs {
			in := &blk.Instrs[ii]
			v.instrs++
			v.budget--
			if v.budget <= 0 {
				return 0, v.fault(FaultTimeout, in, 0, "instruction budget exhausted")
			}
			switch in.Op {
			case ir.OpConst:
				regs[in.Dst] = in.Imm
			case ir.OpMov:
				regs[in.Dst] = regs[in.A]
			case ir.OpBin:
				// The two commonest operators skip the binop call.
				switch a, b := regs[in.A], regs[in.B]; in.Bin {
				case ir.Add:
					regs[in.Dst] = a + b
				case ir.Sub:
					regs[in.Dst] = a - b
				default:
					r, flt := v.binop(in, a, b)
					if flt != nil {
						return 0, flt
					}
					regs[in.Dst] = r
				}
			case ir.OpUn:
				switch in.Un {
				case ir.Neg:
					regs[in.Dst] = -regs[in.A]
				case ir.Not:
					if regs[in.A] == 0 {
						regs[in.Dst] = 1
					} else {
						regs[in.Dst] = 0
					}
				case ir.BNot:
					regs[in.Dst] = ^regs[in.A]
				}
			case ir.OpLoad:
				addr := uint64(regs[in.A] + in.Imm)
				if flt := v.checkAccess(addr, in.Size, false, in); flt != nil {
					return 0, flt
				}
				u, err := v.Mem.ReadUint(addr, in.Size)
				if err != nil {
					return 0, v.fault(FaultWild, in, addr, err.Error())
				}
				regs[in.Dst] = int64(u)
			case ir.OpStore:
				addr := uint64(regs[in.A] + in.Imm)
				if flt := v.checkAccess(addr, in.Size, true, in); flt != nil {
					return 0, flt
				}
				if err := v.Mem.WriteUint(addr, uint64(regs[in.B]), in.Size); err != nil {
					return 0, v.fault(FaultOOM, in, addr, err.Error())
				}
			case ir.OpGlobalAddr:
				regs[in.Dst] = int64(v.Layout.GlobalAddr[in.Imm])
			case ir.OpFrameAddr:
				regs[in.Dst] = int64(frame + uint64(in.Imm))
			case ir.OpCall:
				// Coverage is call-transparent: the callee records its own
				// internal edges plus one entry edge, and the caller's
				// context resumes afterwards. This keeps the set of
				// possible dynamic edges equal to the static CFG+callgraph
				// bound (passes.TotalEdges), so coverage percentages are
				// well-defined.
				saved := v.prevLoc
				r, err := v.call(in, regs)
				if err != nil {
					return 0, err
				}
				v.prevLoc = saved
				regs[in.Dst] = r
			case ir.OpRet:
				if in.A >= 0 {
					return regs[in.A], nil
				}
				return 0, nil
			case ir.OpBr:
				bi = in.Targets[0]
				continue block
			case ir.OpCondBr:
				if regs[in.A] != 0 {
					bi = in.Targets[0]
				} else {
					bi = in.Targets[1]
				}
				continue block
			case ir.OpCov:
				loc := uint64(in.Imm)
				idx := (loc ^ v.prevLoc) & (CovMapSize - 1)
				// cov and covIdx are always bound (VMs without an external
				// map or index carry scratch ones), so no nil check in the
				// hot loop, and the masked index needs no bounds check.
				v.cov[idx]++
				v.covIdx[(idx>>CovLineShift)&(CovIndexSize-1)] = 1
				v.prevLoc = loc >> 1
				if v.traceEdges {
					v.pathHash = (v.pathHash ^ idx) * 1099511628211
					v.pathLen++
				}
			case ir.OpUnreachable:
				return 0, v.fault(FaultUnreachable, in, 0, "")
			case ir.OpSanCheck:
				// Budget-transparent: compensate the unconditional decrement
				// above so arming the sanitizer can never flip a borderline
				// execution into a hang verdict (differential and
				// determinism guarantees depend on this).
				v.budget++
				addr := uint64(regs[in.A] + in.Imm)
				if flt := v.sanCheck(addr, in); flt != nil {
					return 0, flt
				}
			}
		}
		// Every terminator returns or jumps to its target block above, so
		// only a block without one gets here (never on verified modules).
		return 0, v.fault(FaultUnreachable, nil, 0, "fell off block end")
	}
}

// binop evaluates a binary operator with C-like 64-bit semantics.
func (v *VM) binop(in *ir.Instr, a, b int64) (int64, *Fault) {
	switch in.Bin {
	case ir.Add:
		return a + b, nil
	case ir.Sub:
		return a - b, nil
	case ir.Mul:
		return a * b, nil
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
	case ir.Shl:
		return a << (uint64(b) & 63), nil
	case ir.Shr:
		return a >> (uint64(b) & 63), nil
	case ir.And:
		return a & b, nil
	case ir.Or:
		return a | b, nil
	case ir.Xor:
		return a ^ b, nil
	case ir.Eq:
		return b2i(a == b), nil
	case ir.Ne:
		return b2i(a != b), nil
	case ir.Lt:
		return b2i(a < b), nil
	case ir.Le:
		return b2i(a <= b), nil
	case ir.Gt:
		return b2i(a > b), nil
	case ir.Ge:
		return b2i(a >= b), nil
	case ir.Ult:
		return b2i(uint64(a) < uint64(b)), nil
	case ir.Ule:
		return b2i(uint64(a) <= uint64(b)), nil
	case ir.Ugt:
		return b2i(uint64(a) > uint64(b)), nil
	case ir.Uge:
		return b2i(uint64(a) >= uint64(b)), nil
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
func (v *VM) call(in *ir.Instr, regs []int64) (int64, error) {
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
	// Fast path: the callee was pre-resolved at module-commit time
	// (ResolveModule), so no string-map lookup per call. CalleeIdx 0 keeps
	// the name-lookup path for modules executed without a commit step
	// (hand-built tests, partially rewritten modules).
	switch {
	case in.CalleeIdx > 0:
		return v.execFunc(v.Mod.Funcs[in.CalleeIdx-1], args)
	case in.CalleeIdx < 0:
		return builtinSlots[-in.CalleeIdx-1](v, in, args)
	}
	if callee := v.Mod.Func(in.Callee); callee != nil {
		return v.execFunc(callee, args)
	}
	bfn, ok := builtins[in.Callee]
	if !ok {
		return 0, v.fault(FaultBadCall, in, 0, "unknown callee "+in.Callee)
	}
	return bfn(v, in, args)
}
