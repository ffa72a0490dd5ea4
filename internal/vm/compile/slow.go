package compile

import (
	"closurex/internal/ir"
	"closurex/internal/vm"
)

// slowRun executes one straight-line run from its source instructions
// with the interpreter's exact per-instruction accounting: increment the
// instruction count, decrement the budget, check for exhaustion (the
// timeout can fire at any instruction, including an OpSanCheck, whose
// compensation lands only after the check — exactly as in exec.go), then
// perform the op. The dispatcher calls it only when the remaining budget
// is at most the run's maxDip, i.e. within a handful of instructions of a
// hang verdict, so this path is cold by construction: budget never
// increases mid-execution, so once a run goes slow the execution stays
// slow until it times out or returns.
//
// Returns the next pc, retPC or errPC, like a run-ending op.
func (m *machine) slowRun(f *cfn, pc int) int {
	r := &f.runs[pc]
	blk := f.irFn.Blocks[r.srcBi]
	regs := m.regs
	for q := int64(0); q < r.k; q++ {
		in := &blk.Instrs[int(r.srcIi)+int(q)]
		*m.instrs += 1
		*m.budget -= 1
		if *m.budget <= 0 {
			return m.fault(vm.FaultTimeout, in, 0, "instruction budget exhausted")
		}
		switch in.Op {
		case ir.OpConst:
			regs[in.Dst] = in.Imm
		case ir.OpMov:
			regs[in.Dst] = regs[in.A]
		case ir.OpBin:
			res, flt := m.v.EngineBinop(in, regs[in.A], regs[in.B])
			if flt != nil {
				m.err = flt
				return errPC
			}
			regs[in.Dst] = res
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
			if flt := m.v.EngineCheckAccess(addr, in.Size, false, in); flt != nil {
				m.err = flt
				return errPC
			}
			u, err := m.v.Mem.ReadUint(addr, in.Size)
			if err != nil {
				return m.fault(vm.FaultWild, in, addr, err.Error())
			}
			regs[in.Dst] = int64(u)
		case ir.OpStore:
			addr := uint64(regs[in.A] + in.Imm)
			if flt := m.v.EngineCheckAccess(addr, in.Size, true, in); flt != nil {
				m.err = flt
				return errPC
			}
			if err := m.v.Mem.WriteUint(addr, uint64(regs[in.B]), in.Size); err != nil {
				return m.fault(vm.FaultOOM, in, addr, err.Error())
			}
		case ir.OpGlobalAddr:
			regs[in.Dst] = int64(m.v.Layout.GlobalAddr[in.Imm])
		case ir.OpFrameAddr:
			regs[in.Dst] = int64(m.frame + uint64(in.Imm))
		case ir.OpCall:
			saved := *m.prevLoc
			res, err := m.callSlow(in)
			if err != nil {
				m.err = err
				return errPC
			}
			*m.prevLoc = saved
			regs[in.Dst] = res
			// Calls end runs by construction, so this is the run's last
			// instruction; resume at the pc after the call op.
			return pc + int(r.n)
		case ir.OpRet:
			if in.A >= 0 {
				m.ret = regs[in.A]
			} else {
				m.ret = 0
			}
			return retPC
		case ir.OpBr:
			return f.blockStart[in.Targets[0]]
		case ir.OpCondBr:
			if regs[in.A] != 0 {
				return f.blockStart[in.Targets[0]]
			}
			return f.blockStart[in.Targets[1]]
		case ir.OpCov:
			loc := uint64(in.Imm)
			covHit(m, loc, loc>>1)
		case ir.OpUnreachable:
			return m.fault(vm.FaultUnreachable, in, 0, "")
		case ir.OpSanCheck:
			// Budget-transparent: compensate the decrement above, after the
			// exhaustion check (so a timeout CAN land on a sancheck).
			*m.budget += 1
			addr := uint64(regs[in.A] + in.Imm)
			if flt := m.v.EngineSanCheck(addr, in); flt != nil {
				m.err = flt
				return errPC
			}
		}
	}
	// The run covered the whole block without a terminator (the synthetic
	// fell-off element): fault exactly as the interpreter does.
	return m.fault(vm.FaultUnreachable, nil, 0, "fell off block end")
}

// callSlow dispatches an OpCall from the slow path, preferring the cached
// callee index like the interpreter's fast path.
func (m *machine) callSlow(in *ir.Instr) (int64, error) {
	args := m.stageArgs(len(in.Args))
	for i, a := range in.Args {
		args[i] = m.regs[a]
	}
	switch {
	case in.CalleeIdx > 0:
		return m.execFn(m.p.fns[in.CalleeIdx-1], args)
	case in.CalleeIdx < 0:
		return m.v.CallBuiltinIndexed(-in.CalleeIdx-1, in, args)
	}
	if f := m.p.mod.Func(in.Callee); f != nil {
		return m.execFn(m.p.byFn[f], args)
	}
	if slot := vm.BuiltinIndex(in.Callee); slot >= 0 {
		return m.v.CallBuiltinIndexed(slot, in, args)
	}
	return 0, m.v.NewFault(vm.FaultBadCall, in, 0, "unknown callee "+in.Callee)
}
