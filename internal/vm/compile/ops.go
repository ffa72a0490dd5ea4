package compile

import (
	"fmt"

	"closurex/internal/ir"
	"closurex/internal/vm"
)

// emit lowers one element to its closure. Every operand that is knowable
// at compile time — immediates, global addresses, branch target pcs,
// callee function values, shift amounts, fused comparison kinds, access
// cache slots — is captured as a constant, so the closure does only the
// dynamic work. Each derived capture (resolved pc, folded address,
// pre-masked shift, callee index) is recorded in ec, the element's
// certificate entry, for transval to prove.
func emit(p *program, cf *cfn, e *elem, pc int, lay *vm.Layout, ec *ElemCert) (op, error) {
	switch e.kind {
	case ekFellOff:
		return func(m *machine, regs []int64) int {
			return m.fault(vm.FaultUnreachable, nil, 0, "fell off block end")
		}, nil
	case ekCmpBr:
		return emitCmpBr(cf, e.first, e.second, e.interElide, ec), nil
	case ekConstBin:
		return emitConstBin(e.first, e.second, ec), nil
	case ekLoadAnd:
		return emitLoadAnd(p, e.first, e.second), nil
	case ekSanAccess:
		return emitSanAccess(p, e.first, e.second), nil
	case ekAddrLoad:
		return emitAddrLoad(p, e.first, e.second, lay, ec), nil
	case ekAddrStore:
		return emitAddrStore(p, e.first, e.second, lay, ec), nil
	case ekConstStore:
		return emitConstStore(p, e.first, e.second, ec), nil
	case ekCovX:
		inner := elem{kind: ekSingle, first: e.second, bi: e.bi, ii: e.ii + 1}
		io, err := emit(p, cf, &inner, pc, lay, ec)
		if err != nil {
			return nil, err
		}
		return wrapCov(e.first, io), nil
	case ekCovPair:
		inner := elem{
			kind: e.sub, first: e.second, second: e.third,
			bi: e.bi, ii: e.ii + 1, interElide: e.interElide,
		}
		io, err := emit(p, cf, &inner, pc, lay, ec)
		if err != nil {
			return nil, err
		}
		return wrapCov(e.first, io), nil
	}
	in := e.first
	switch in.Op {
	case ir.OpConst:
		dst, imm := in.Dst, in.Imm
		return func(m *machine, regs []int64) int { regs[dst] = imm; return 0 }, nil
	case ir.OpMov:
		dst, a := in.Dst, in.A
		return func(m *machine, regs []int64) int { regs[dst] = regs[a]; return 0 }, nil
	case ir.OpBin:
		return emitBin(in), nil
	case ir.OpUn:
		return emitUn(in), nil
	case ir.OpLoad:
		return emitLoad(p, in), nil
	case ir.OpStore:
		return emitStore(p, in), nil
	case ir.OpGlobalAddr:
		dst := in.Dst
		addr := int64(lay.GlobalAddr[in.Imm])
		ec.Folds = append(ec.Folds, Fold{Kind: FoldGlobalAddr, Arg: in.Imm, Val: addr})
		return func(m *machine, regs []int64) int { regs[dst] = addr; return 0 }, nil
	case ir.OpFrameAddr:
		dst, off := in.Dst, uint64(in.Imm)
		return func(m *machine, regs []int64) int { regs[dst] = int64(m.frame + off); return 0 }, nil
	case ir.OpCall:
		return emitCall(p, in, pc+1, ec), nil
	case ir.OpRet:
		if a := in.A; a >= 0 {
			return func(m *machine, regs []int64) int { m.ret = regs[a]; return retPC }, nil
		}
		return func(m *machine, regs []int64) int { m.ret = 0; return retPC }, nil
	case ir.OpBr:
		t := cf.blockStart[in.Targets[0]]
		ec.Targets = append(ec.Targets, t)
		return func(m *machine, regs []int64) int { return t }, nil
	case ir.OpCondBr:
		a := in.A
		t0, t1 := cf.blockStart[in.Targets[0]], cf.blockStart[in.Targets[1]]
		ec.Targets = append(ec.Targets, t0, t1)
		return func(m *machine, regs []int64) int {
			if regs[a] != 0 {
				return t0
			}
			return t1
		}, nil
	case ir.OpCov:
		return emitCov(in), nil
	case ir.OpUnreachable:
		return func(m *machine, regs []int64) int {
			return m.fault(vm.FaultUnreachable, in, 0, "")
		}, nil
	case ir.OpSanCheck:
		a, imm := in.A, in.Imm
		return func(m *machine, regs []int64) int {
			// Budget compensation is folded into the run's net debit; the
			// closure only performs the shadow consultation.
			addr := uint64(regs[a] + imm)
			if flt := m.v.EngineSanCheck(addr, in); flt != nil {
				m.err = flt
				return errPC
			}
			return 0
		}, nil
	}
	return nil, fmt.Errorf("unknown opcode %d", uint8(in.Op))
}

// covHit records one coverage probe: the AFL edge-index increment, its
// line's mark in the touched-line index, and the trace-mode path hash.
// The full-size array pointers make the masked index provably in bounds.
func covHit(m *machine, loc, shifted uint64) {
	idx := (loc ^ *m.prevLoc) & covMask
	m.cov16[idx]++
	m.covIdx[idx>>vm.CovLineShift] = 1
	*m.prevLoc = shifted
	if m.trace {
		*m.pathHash = (*m.pathHash ^ idx) * 1099511628211
		*m.pathLen++
	}
}

// emitCov captures the probe location and its shifted successor value.
func emitCov(in *ir.Instr) op {
	loc := uint64(in.Imm)
	shifted := loc >> 1
	return func(m *machine, regs []int64) int {
		covHit(m, loc, shifted)
		return 0
	}
}

// wrapCov merges a coverage probe into the element that follows it. The
// probe cannot fault, so the merged element's fault accounting is exactly
// the inner element's (including any adj the inner sets).
func wrapCov(cov *ir.Instr, inner op) op {
	loc := uint64(cov.Imm)
	shifted := loc >> 1
	return func(m *machine, regs []int64) int {
		covHit(m, loc, shifted)
		return inner(m, regs)
	}
}

func emitLoad(p *program, in *ir.Instr) op {
	dst, a, imm, size := in.Dst, in.A, in.Imm, in.Size
	usize := uint64(size)
	slot := p.newSite()
	return func(m *machine, regs []int64) int {
		addr := uint64(regs[a] + imm)
		c := &m.acc[slot]
		if !m.accOK(c, addr, addr+usize) {
			if flt := m.v.EngineCheckAccessCached(c, addr, size, false, in); flt != nil {
				m.err = flt
				return errPC
			}
		}
		u, err := m.loadU(addr, size)
		if err != nil {
			return m.fault(vm.FaultWild, in, addr, err.Error())
		}
		regs[dst] = int64(u)
		return 0
	}
}

func emitStore(p *program, in *ir.Instr) op {
	a, b, imm, size := in.A, in.B, in.Imm, in.Size
	usize := uint64(size)
	slot := p.newSite()
	return func(m *machine, regs []int64) int {
		addr := uint64(regs[a] + imm)
		c := &m.acc[slot]
		if !m.accOK(c, addr, addr+usize) {
			if flt := m.v.EngineCheckAccessCached(c, addr, size, true, in); flt != nil {
				m.err = flt
				return errPC
			}
		}
		if err := m.storeU(addr, uint64(regs[b]), size); err != nil {
			return m.fault(vm.FaultOOM, in, addr, err.Error())
		}
		return 0
	}
}

// emitAddrLoad fuses an address materialization with the load through it.
// The address register is still written; for OpGlobalAddr the entire
// effective address folds to a compile-time constant.
func emitAddrLoad(p *program, ain, ld *ir.Instr, lay *vm.Layout, ec *ElemCert) op {
	adst := ain.Dst
	dst, limm, size := ld.Dst, ld.Imm, ld.Size
	usize := uint64(size)
	slot := p.newSite()
	if ain.Op == ir.OpGlobalAddr {
		base := int64(lay.GlobalAddr[ain.Imm])
		addr := uint64(base + limm)
		end := addr + usize
		ec.Folds = append(ec.Folds,
			Fold{Kind: FoldGlobalAddr, Arg: ain.Imm, Val: base},
			Fold{Kind: FoldAbsAddr, Arg: limm, Val: int64(addr)})
		return func(m *machine, regs []int64) int {
			regs[adst] = base
			c := &m.acc[slot]
			if !m.accOK(c, addr, end) {
				if flt := m.v.EngineCheckAccessCached(c, addr, size, false, ld); flt != nil {
					m.err = flt
					return errPC
				}
			}
			u, err := m.loadU(addr, size)
			if err != nil {
				return m.fault(vm.FaultWild, ld, addr, err.Error())
			}
			regs[dst] = int64(u)
			return 0
		}
	}
	off := uint64(ain.Imm)
	return func(m *machine, regs []int64) int {
		base := int64(m.frame + off)
		regs[adst] = base
		addr := uint64(base + limm)
		c := &m.acc[slot]
		if !m.accOK(c, addr, addr+usize) {
			if flt := m.v.EngineCheckAccessCached(c, addr, size, false, ld); flt != nil {
				m.err = flt
				return errPC
			}
		}
		u, err := m.loadU(addr, size)
		if err != nil {
			return m.fault(vm.FaultWild, ld, addr, err.Error())
		}
		regs[dst] = int64(u)
		return 0
	}
}

// emitAddrStore fuses an address materialization with the store through
// it. The value register is read after the address register is written,
// preserving the interpreter's dataflow even when they coincide.
func emitAddrStore(p *program, ain, st *ir.Instr, lay *vm.Layout, ec *ElemCert) op {
	adst := ain.Dst
	vb, simm, size := st.B, st.Imm, st.Size
	usize := uint64(size)
	slot := p.newSite()
	if ain.Op == ir.OpGlobalAddr {
		base := int64(lay.GlobalAddr[ain.Imm])
		addr := uint64(base + simm)
		end := addr + usize
		ec.Folds = append(ec.Folds,
			Fold{Kind: FoldGlobalAddr, Arg: ain.Imm, Val: base},
			Fold{Kind: FoldAbsAddr, Arg: simm, Val: int64(addr)})
		return func(m *machine, regs []int64) int {
			regs[adst] = base
			c := &m.acc[slot]
			if !m.accOK(c, addr, end) {
				if flt := m.v.EngineCheckAccessCached(c, addr, size, true, st); flt != nil {
					m.err = flt
					return errPC
				}
			}
			if err := m.storeU(addr, uint64(regs[vb]), size); err != nil {
				return m.fault(vm.FaultOOM, st, addr, err.Error())
			}
			return 0
		}
	}
	off := uint64(ain.Imm)
	return func(m *machine, regs []int64) int {
		base := int64(m.frame + off)
		regs[adst] = base
		addr := uint64(base + simm)
		c := &m.acc[slot]
		if !m.accOK(c, addr, addr+usize) {
			if flt := m.v.EngineCheckAccessCached(c, addr, size, true, st); flt != nil {
				m.err = flt
				return errPC
			}
		}
		if err := m.storeU(addr, uint64(regs[vb]), size); err != nil {
			return m.fault(vm.FaultOOM, st, addr, err.Error())
		}
		return 0
	}
}

// emitConstStore fuses a constant materialization with the store that
// consumes it (as value, address or both). The constant's register is
// written first, then the store reads its operands — identical dataflow
// to the unfused sequence.
func emitConstStore(p *program, c, st *ir.Instr, ec *ElemCert) op {
	cd, imm := c.Dst, c.Imm
	a, b, simm, size := st.A, st.B, st.Imm, st.Size
	usize := uint64(size)
	slot := p.newSite()
	ec.Folds = append(ec.Folds, Fold{Kind: FoldImm, Arg: c.Imm, Val: imm})
	return func(m *machine, regs []int64) int {
		regs[cd] = imm
		addr := uint64(regs[a] + simm)
		ac := &m.acc[slot]
		if !m.accOK(ac, addr, addr+usize) {
			if flt := m.v.EngineCheckAccessCached(ac, addr, size, true, st); flt != nil {
				m.err = flt
				return errPC
			}
		}
		if err := m.storeU(addr, uint64(regs[b]), size); err != nil {
			return m.fault(vm.FaultOOM, st, addr, err.Error())
		}
		return 0
	}
}

func emitUn(in *ir.Instr) op {
	dst, a := in.Dst, in.A
	switch in.Un {
	case ir.Neg:
		return func(m *machine, regs []int64) int { regs[dst] = -regs[a]; return 0 }
	case ir.Not:
		return func(m *machine, regs []int64) int {
			if regs[a] == 0 {
				regs[dst] = 1
			} else {
				regs[dst] = 0
			}
			return 0
		}
	case ir.BNot:
		return func(m *machine, regs []int64) int { regs[dst] = ^regs[a]; return 0 }
	}
	// Unknown unary ops write nothing in the interpreter either.
	return func(m *machine, regs []int64) int { return 0 }
}

func b2i(b bool) int64 {
	if b {
		return 1
	}
	return 0
}

// emitBin specializes a register-register binary op by operator, hoisting
// the interpreter's per-execution switch to compile time.
func emitBin(in *ir.Instr) op {
	dst, ra, rb := in.Dst, in.A, in.B
	switch in.Bin {
	case ir.Add:
		return func(m *machine, regs []int64) int { regs[dst] = regs[ra] + regs[rb]; return 0 }
	case ir.Sub:
		return func(m *machine, regs []int64) int { regs[dst] = regs[ra] - regs[rb]; return 0 }
	case ir.Mul:
		return func(m *machine, regs []int64) int { regs[dst] = regs[ra] * regs[rb]; return 0 }
	case ir.Div:
		return func(m *machine, regs []int64) int {
			b := regs[rb]
			if b == 0 {
				return m.fault(vm.FaultDivByZero, in, 0, "")
			}
			if b == -1 { // avoid Go panic on MinInt64 / -1
				regs[dst] = -regs[ra]
				return 0
			}
			regs[dst] = regs[ra] / b
			return 0
		}
	case ir.Rem:
		return func(m *machine, regs []int64) int {
			b := regs[rb]
			if b == 0 {
				return m.fault(vm.FaultDivByZero, in, 0, "")
			}
			if b == -1 {
				regs[dst] = 0
				return 0
			}
			regs[dst] = regs[ra] % b
			return 0
		}
	case ir.Shl:
		return func(m *machine, regs []int64) int { regs[dst] = regs[ra] << (uint64(regs[rb]) & 63); return 0 }
	case ir.Shr:
		return func(m *machine, regs []int64) int { regs[dst] = regs[ra] >> (uint64(regs[rb]) & 63); return 0 }
	case ir.And:
		return func(m *machine, regs []int64) int { regs[dst] = regs[ra] & regs[rb]; return 0 }
	case ir.Or:
		return func(m *machine, regs []int64) int { regs[dst] = regs[ra] | regs[rb]; return 0 }
	case ir.Xor:
		return func(m *machine, regs []int64) int { regs[dst] = regs[ra] ^ regs[rb]; return 0 }
	case ir.Eq:
		return func(m *machine, regs []int64) int { regs[dst] = b2i(regs[ra] == regs[rb]); return 0 }
	case ir.Ne:
		return func(m *machine, regs []int64) int { regs[dst] = b2i(regs[ra] != regs[rb]); return 0 }
	case ir.Lt:
		return func(m *machine, regs []int64) int { regs[dst] = b2i(regs[ra] < regs[rb]); return 0 }
	case ir.Le:
		return func(m *machine, regs []int64) int { regs[dst] = b2i(regs[ra] <= regs[rb]); return 0 }
	case ir.Gt:
		return func(m *machine, regs []int64) int { regs[dst] = b2i(regs[ra] > regs[rb]); return 0 }
	case ir.Ge:
		return func(m *machine, regs []int64) int { regs[dst] = b2i(regs[ra] >= regs[rb]); return 0 }
	case ir.Ult:
		return func(m *machine, regs []int64) int { regs[dst] = b2i(uint64(regs[ra]) < uint64(regs[rb])); return 0 }
	case ir.Ule:
		return func(m *machine, regs []int64) int { regs[dst] = b2i(uint64(regs[ra]) <= uint64(regs[rb])); return 0 }
	case ir.Ugt:
		return func(m *machine, regs []int64) int { regs[dst] = b2i(uint64(regs[ra]) > uint64(regs[rb])); return 0 }
	case ir.Uge:
		return func(m *machine, regs []int64) int { regs[dst] = b2i(uint64(regs[ra]) >= uint64(regs[rb])); return 0 }
	}
	return func(m *machine, regs []int64) int {
		return m.fault(vm.FaultBadCall, in, 0, fmt.Sprintf("bad binop %d", uint8(in.Bin)))
	}
}

// emitCmpBr fuses a comparison with the conditional branch consuming it;
// the branch decides on the native bool — one dispatch and one
// materialization saved per loop back edge. When the compiler's liveness
// proved the comparison's destination dead after the branch (elide), the
// 0/1 materialization is skipped entirely; otherwise it is preserved so
// later blocks may re-read it. An elision is claimed in the certificate
// and independently proven by transval's own liveness instance.
func emitCmpBr(cf *cfn, cmp, br *ir.Instr, elide bool, ec *ElemCert) op {
	dst, ra, rb := cmp.Dst, cmp.A, cmp.B
	t0, t1 := cf.blockStart[br.Targets[0]], cf.blockStart[br.Targets[1]]
	ec.Targets = append(ec.Targets, t0, t1)
	var take func(regs []int64, c bool) int
	if elide {
		take = func(regs []int64, c bool) int {
			if c {
				return t0
			}
			return t1
		}
	} else {
		take = func(regs []int64, c bool) int {
			if c {
				regs[dst] = 1
				return t0
			}
			regs[dst] = 0
			return t1
		}
	}
	switch cmp.Bin {
	case ir.Eq:
		return func(m *machine, regs []int64) int { return take(regs, regs[ra] == regs[rb]) }
	case ir.Ne:
		return func(m *machine, regs []int64) int { return take(regs, regs[ra] != regs[rb]) }
	case ir.Lt:
		return func(m *machine, regs []int64) int { return take(regs, regs[ra] < regs[rb]) }
	case ir.Le:
		return func(m *machine, regs []int64) int { return take(regs, regs[ra] <= regs[rb]) }
	case ir.Gt:
		return func(m *machine, regs []int64) int { return take(regs, regs[ra] > regs[rb]) }
	case ir.Ge:
		return func(m *machine, regs []int64) int { return take(regs, regs[ra] >= regs[rb]) }
	case ir.Ult:
		return func(m *machine, regs []int64) int { return take(regs, uint64(regs[ra]) < uint64(regs[rb])) }
	case ir.Ule:
		return func(m *machine, regs []int64) int { return take(regs, uint64(regs[ra]) <= uint64(regs[rb])) }
	case ir.Ugt:
		return func(m *machine, regs []int64) int { return take(regs, uint64(regs[ra]) > uint64(regs[rb])) }
	case ir.Uge:
		return func(m *machine, regs []int64) int { return take(regs, uint64(regs[ra]) >= uint64(regs[rb])) }
	}
	// fuseBlock only pairs Eq..Uge; unreachable.
	return func(m *machine, regs []int64) int { return take(regs, regs[ra] != 0) }
}

// emitConstBin fuses a constant materialization with the binary op that
// consumes it: the immediate becomes a captured operand. The constant's
// destination register is still written first (the fusion precondition
// guarantees the op's other operand is a different register).
func emitConstBin(c, b *ir.Instr, ec *ElemCert) op {
	cd, imm := c.Dst, c.Imm
	dst := b.Dst
	immOnA := b.A == cd // immediate is the left operand
	var r int           // the register operand
	if immOnA {
		r = b.B
	} else {
		r = b.A
	}
	ec.Folds = append(ec.Folds, Fold{Kind: FoldImm, Arg: c.Imm, Val: imm})
	if !immOnA {
		// Certify the derived constants: the pre-masked shift amount and
		// the compile-time degenerate-divisor selection.
		switch b.Bin {
		case ir.Shl, ir.Shr:
			ec.Folds = append(ec.Folds, Fold{Kind: FoldShiftMask, Arg: imm, Val: int64(uint64(imm) & 63)})
		case ir.Div, ir.Rem:
			switch imm {
			case 0:
				ec.Folds = append(ec.Folds, Fold{Kind: FoldDivZero, Arg: imm, Val: 0})
			case -1:
				ec.Folds = append(ec.Folds, Fold{Kind: FoldDivNegOne, Arg: imm, Val: -1})
			}
		}
	}
	switch b.Bin {
	case ir.Add:
		return func(m *machine, regs []int64) int { regs[cd] = imm; regs[dst] = regs[r] + imm; return 0 }
	case ir.Sub:
		if immOnA {
			return func(m *machine, regs []int64) int { regs[cd] = imm; regs[dst] = imm - regs[r]; return 0 }
		}
		return func(m *machine, regs []int64) int { regs[cd] = imm; regs[dst] = regs[r] - imm; return 0 }
	case ir.Mul:
		return func(m *machine, regs []int64) int { regs[cd] = imm; regs[dst] = regs[r] * imm; return 0 }
	case ir.Div:
		if immOnA {
			return func(m *machine, regs []int64) int {
				regs[cd] = imm
				d := regs[r]
				if d == 0 {
					return m.fault(vm.FaultDivByZero, b, 0, "")
				}
				if d == -1 {
					regs[dst] = -imm
					return 0
				}
				regs[dst] = imm / d
				return 0
			}
		}
		// Constant divisor: the zero/−1 checks resolve at compile time.
		switch imm {
		case 0:
			return func(m *machine, regs []int64) int {
				regs[cd] = imm
				return m.fault(vm.FaultDivByZero, b, 0, "")
			}
		case -1:
			return func(m *machine, regs []int64) int { regs[cd] = imm; regs[dst] = -regs[r]; return 0 }
		default:
			return func(m *machine, regs []int64) int { regs[cd] = imm; regs[dst] = regs[r] / imm; return 0 }
		}
	case ir.Rem:
		if immOnA {
			return func(m *machine, regs []int64) int {
				regs[cd] = imm
				d := regs[r]
				if d == 0 {
					return m.fault(vm.FaultDivByZero, b, 0, "")
				}
				if d == -1 {
					regs[dst] = 0
					return 0
				}
				regs[dst] = imm % d
				return 0
			}
		}
		switch imm {
		case 0:
			return func(m *machine, regs []int64) int {
				regs[cd] = imm
				return m.fault(vm.FaultDivByZero, b, 0, "")
			}
		case -1:
			return func(m *machine, regs []int64) int { regs[cd] = imm; regs[dst] = 0; return 0 }
		default:
			return func(m *machine, regs []int64) int { regs[cd] = imm; regs[dst] = regs[r] % imm; return 0 }
		}
	case ir.Shl:
		if immOnA {
			return func(m *machine, regs []int64) int {
				regs[cd] = imm
				regs[dst] = imm << (uint64(regs[r]) & 63)
				return 0
			}
		}
		sh := uint64(imm) & 63
		return func(m *machine, regs []int64) int { regs[cd] = imm; regs[dst] = regs[r] << sh; return 0 }
	case ir.Shr:
		if immOnA {
			return func(m *machine, regs []int64) int {
				regs[cd] = imm
				regs[dst] = imm >> (uint64(regs[r]) & 63)
				return 0
			}
		}
		sh := uint64(imm) & 63
		return func(m *machine, regs []int64) int { regs[cd] = imm; regs[dst] = regs[r] >> sh; return 0 }
	case ir.And:
		return func(m *machine, regs []int64) int { regs[cd] = imm; regs[dst] = regs[r] & imm; return 0 }
	case ir.Or:
		return func(m *machine, regs []int64) int { regs[cd] = imm; regs[dst] = regs[r] | imm; return 0 }
	case ir.Xor:
		return func(m *machine, regs []int64) int { regs[cd] = imm; regs[dst] = regs[r] ^ imm; return 0 }
	case ir.Eq:
		return func(m *machine, regs []int64) int { regs[cd] = imm; regs[dst] = b2i(regs[r] == imm); return 0 }
	case ir.Ne:
		return func(m *machine, regs []int64) int { regs[cd] = imm; regs[dst] = b2i(regs[r] != imm); return 0 }
	case ir.Lt:
		if immOnA {
			return func(m *machine, regs []int64) int { regs[cd] = imm; regs[dst] = b2i(imm < regs[r]); return 0 }
		}
		return func(m *machine, regs []int64) int { regs[cd] = imm; regs[dst] = b2i(regs[r] < imm); return 0 }
	case ir.Le:
		if immOnA {
			return func(m *machine, regs []int64) int { regs[cd] = imm; regs[dst] = b2i(imm <= regs[r]); return 0 }
		}
		return func(m *machine, regs []int64) int { regs[cd] = imm; regs[dst] = b2i(regs[r] <= imm); return 0 }
	case ir.Gt:
		if immOnA {
			return func(m *machine, regs []int64) int { regs[cd] = imm; regs[dst] = b2i(imm > regs[r]); return 0 }
		}
		return func(m *machine, regs []int64) int { regs[cd] = imm; regs[dst] = b2i(regs[r] > imm); return 0 }
	case ir.Ge:
		if immOnA {
			return func(m *machine, regs []int64) int { regs[cd] = imm; regs[dst] = b2i(imm >= regs[r]); return 0 }
		}
		return func(m *machine, regs []int64) int { regs[cd] = imm; regs[dst] = b2i(regs[r] >= imm); return 0 }
	case ir.Ult:
		if immOnA {
			return func(m *machine, regs []int64) int {
				regs[cd] = imm
				regs[dst] = b2i(uint64(imm) < uint64(regs[r]))
				return 0
			}
		}
		return func(m *machine, regs []int64) int {
			regs[cd] = imm
			regs[dst] = b2i(uint64(regs[r]) < uint64(imm))
			return 0
		}
	case ir.Ule:
		if immOnA {
			return func(m *machine, regs []int64) int {
				regs[cd] = imm
				regs[dst] = b2i(uint64(imm) <= uint64(regs[r]))
				return 0
			}
		}
		return func(m *machine, regs []int64) int {
			regs[cd] = imm
			regs[dst] = b2i(uint64(regs[r]) <= uint64(imm))
			return 0
		}
	case ir.Ugt:
		if immOnA {
			return func(m *machine, regs []int64) int {
				regs[cd] = imm
				regs[dst] = b2i(uint64(imm) > uint64(regs[r]))
				return 0
			}
		}
		return func(m *machine, regs []int64) int {
			regs[cd] = imm
			regs[dst] = b2i(uint64(regs[r]) > uint64(imm))
			return 0
		}
	case ir.Uge:
		if immOnA {
			return func(m *machine, regs []int64) int {
				regs[cd] = imm
				regs[dst] = b2i(uint64(imm) >= uint64(regs[r]))
				return 0
			}
		}
		return func(m *machine, regs []int64) int {
			regs[cd] = imm
			regs[dst] = b2i(uint64(regs[r]) >= uint64(imm))
			return 0
		}
	}
	return func(m *machine, regs []int64) int {
		regs[cd] = imm
		return m.fault(vm.FaultBadCall, b, 0, fmt.Sprintf("bad binop %d", uint8(b.Bin)))
	}
}

// emitLoadAnd fuses a load with the mask that consumes it (the field- and
// byte-extraction idiom the parsers use). The load's destination is still
// written; a fault in the load sets adj=1 (only the load was "executed"
// in interpreter terms).
func emitLoadAnd(p *program, ld, b *ir.Instr) op {
	ldst, la, limm, size := ld.Dst, ld.A, ld.Imm, ld.Size
	usize := uint64(size)
	dst := b.Dst
	other := b.A
	if other == ldst {
		other = b.B
	}
	selfMask := b.A == ldst && b.B == ldst // x & x == x
	slot := p.newSite()
	return func(m *machine, regs []int64) int {
		addr := uint64(regs[la] + limm)
		c := &m.acc[slot]
		if !m.accOK(c, addr, addr+usize) {
			if flt := m.v.EngineCheckAccessCached(c, addr, size, false, ld); flt != nil {
				m.err = flt
				m.adj = 1
				return errPC
			}
		}
		u, err := m.loadU(addr, size)
		if err != nil {
			m.adj = 1
			return m.fault(vm.FaultWild, ld, addr, err.Error())
		}
		val := int64(u)
		regs[ldst] = val
		if selfMask {
			regs[dst] = val
		} else {
			regs[dst] = val & regs[other]
		}
		return 0
	}
}

// emitSanAccess fuses an OpSanCheck with the access it guards. Both
// semantic actions run unchanged (shadow consultation, then the access's
// own classification check); a shadow fault sets adj=1 because only the
// sancheck counts as executed. Budget compensation for the sancheck is in
// the run's net debit.
func emitSanAccess(p *program, sc, acc *ir.Instr) op {
	sa, simm := sc.A, sc.Imm
	slot := p.newSite()
	if acc.Op == ir.OpLoad {
		dst, a, imm, size := acc.Dst, acc.A, acc.Imm, acc.Size
		usize := uint64(size)
		return func(m *machine, regs []int64) int {
			saddr := uint64(regs[sa] + simm)
			if flt := m.v.EngineSanCheck(saddr, sc); flt != nil {
				m.err = flt
				m.adj = 1
				return errPC
			}
			addr := uint64(regs[a] + imm)
			c := &m.acc[slot]
			if !m.accOK(c, addr, addr+usize) {
				if flt := m.v.EngineCheckAccessCached(c, addr, size, false, acc); flt != nil {
					m.err = flt
					return errPC
				}
			}
			u, err := m.loadU(addr, size)
			if err != nil {
				return m.fault(vm.FaultWild, acc, addr, err.Error())
			}
			regs[dst] = int64(u)
			return 0
		}
	}
	a, b, imm, size := acc.A, acc.B, acc.Imm, acc.Size
	usize := uint64(size)
	return func(m *machine, regs []int64) int {
		saddr := uint64(regs[sa] + simm)
		if flt := m.v.EngineSanCheck(saddr, sc); flt != nil {
			m.err = flt
			m.adj = 1
			return errPC
		}
		addr := uint64(regs[a] + imm)
		c := &m.acc[slot]
		if !m.accOK(c, addr, addr+usize) {
			if flt := m.v.EngineCheckAccessCached(c, addr, size, true, acc); flt != nil {
				m.err = flt
				return errPC
			}
		}
		if err := m.storeU(addr, uint64(regs[b]), size); err != nil {
			return m.fault(vm.FaultOOM, acc, addr, err.Error())
		}
		return 0
	}
}

// emitCall resolves the callee at compile time: a direct compiled-function
// pointer, a builtin slot, or (for names resolvable by neither — kept for
// interpreter parity) a runtime bad-call fault. The caller's coverage
// context (prevLoc) is saved around the call exactly as the interpreter
// does, keeping coverage call-transparent.
func emitCall(p *program, in *ir.Instr, next int, ec *ElemCert) op {
	argRegs := in.Args
	dst := in.Dst
	nArgs := len(argRegs)

	ec.Next = next
	if f := p.mod.Func(in.Callee); f != nil {
		callee := p.byFn[f]
		ec.Callee, ec.CalleeIdx = CalleeFunc, p.mod.FuncIndex(in.Callee)
		return func(m *machine, regs []int64) int {
			args := m.stageArgs(nArgs)
			for i, a := range argRegs {
				args[i] = regs[a]
			}
			saved := *m.prevLoc
			r, err := m.execFn(callee, args)
			if err != nil {
				m.err = err
				return errPC
			}
			*m.prevLoc = saved
			regs[dst] = r
			return next
		}
	}
	if slot := vm.BuiltinIndex(in.Callee); slot >= 0 {
		ec.Callee, ec.CalleeIdx = CalleeBuiltin, slot
		return func(m *machine, regs []int64) int {
			args := m.stageArgs(nArgs)
			for i, a := range argRegs {
				args[i] = regs[a]
			}
			saved := *m.prevLoc
			r, err := m.v.CallBuiltinIndexed(slot, in, args)
			if err != nil {
				m.err = err
				return errPC
			}
			*m.prevLoc = saved
			regs[dst] = r
			return next
		}
	}
	ec.Callee, ec.CalleeIdx = CalleeUnknown, -1
	return func(m *machine, regs []int64) int {
		return m.fault(vm.FaultBadCall, in, 0, "unknown callee "+in.Callee)
	}
}
