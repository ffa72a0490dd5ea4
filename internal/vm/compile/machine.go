package compile

import (
	"fmt"

	"closurex/internal/ir"
	"closurex/internal/mem"
	"closurex/internal/vm"
)

// machine is the per-VM mutable execution state of the compiled tier. The
// hot accounting cells (budget, instruction count, coverage chain, stack
// frontier, call depth) live in the VM itself — the machine holds direct
// pointers into them via the engine bridge, so the compiled tier mutates
// exactly the state the interpreter would and every vm.VM observer
// (harness restore, sentinel, fault reporting) keeps working unchanged.
type machine struct {
	v *vm.VM
	p *program

	budget   *int64
	instrs   *int64
	prevLoc  *uint64
	pathHash *uint64
	pathLen  *int
	sp       *uint64
	depth    *int
	curFn    **ir.Func

	trace bool
	// cov16 is the VM's coverage map as a full-size array, so indexing it
	// with a covMask-truncated value needs no bounds check; covIdx is its
	// touched-line index. Both are bound once: the VM fixes its map at
	// construction.
	cov16  *[vm.CovMapSize]byte
	covIdx *[vm.CovIndexSize]byte

	// mem caches v.Mem; tlb is the per-machine page-translation cache the
	// load/store closures consult before the page-table map, and acc holds
	// one AccessCache per compiled access site (indexed by the slot number
	// each closure captured). All three are per-VM: the compiled program
	// and its closures are shared across VMs and hold no mutable state.
	mem *mem.Memory
	tlb mem.TLB
	acc []vm.AccessCache

	// Per-activation state, saved/restored around direct calls.
	regs  []int64
	frame uint64

	ret int64 // return value when an op returns retPC
	err error // fault or exit unwind when an op returns errPC
	// adj corrects the pre-debited instruction count when a fused pair
	// faults at its FIRST element: the fast path charges the whole pair up
	// front, but the interpreter would only have counted the first.
	adj int64

	// regPool / argPool mirror the interpreter's per-depth frame reuse, so
	// steady-state compiled execution is allocation-free.
	regPool [][]int64
	argPool [][]int64
}

// engine adapts a compiled program to the vm.Engine interface.
type engine struct {
	v *vm.VM
	p *program
	m machine
}

func newEngine(v *vm.VM, p *program) *engine {
	e := &engine{v: v, p: p}
	h := v.Hooks()
	e.m = machine{
		v:        v,
		p:        p,
		budget:   h.Budget,
		instrs:   h.Instrs,
		prevLoc:  h.PrevLoc,
		pathHash: h.PathHash,
		pathLen:  h.PathLen,
		sp:       h.SP,
		depth:    h.Depth,
		curFn:    h.CurFn,
		cov16:    h.Cov,
		covIdx:   h.CovIdx,
	}
	return e
}

// Exec implements vm.Engine. Called by vm.Call after the per-execution
// state reset.
func (e *engine) Exec(f *ir.Func, args []int64) (int64, error) {
	cf := e.p.byFn[f]
	if cf == nil {
		// A function added to the module after compilation — unsupported
		// for the compiled tier (modules are committed before execution).
		return 0, fmt.Errorf("compile: function %s not in compiled program", f.Name)
	}
	m := &e.m
	m.trace = e.v.EngineTrace()
	m.mem = e.v.Mem
	if len(m.acc) < e.p.nSites {
		m.acc = make([]vm.AccessCache, e.p.nSites)
	}
	return m.execFn(cf, args)
}

// execFn runs one function activation. It mirrors the interpreter's
// execFunc exactly: same depth/frame overflow checks and fault texts, same
// frame zeroing, same register pooling — then drives the closure chain
// run by run, debiting the instruction budget per straight-line run on the
// fast path and falling back to the exact mini-interpreter when the
// remaining budget could hit zero mid-run.
func (m *machine) execFn(f *cfn, args []int64) (int64, error) {
	irf := f.irFn
	if *m.depth >= vm.DefaultMaxDepth {
		return 0, &vm.Fault{Kind: vm.FaultStackOverflow, Fn: irf.Name, Msg: "call depth"}
	}
	frame := *m.sp
	if frame+uint64(irf.FrameSize) > vm.StackEnd {
		return 0, &vm.Fault{Kind: vm.FaultStackOverflow, Fn: irf.Name, Msg: "frame area"}
	}
	*m.depth++
	savedFn := *m.curFn
	*m.curFn = irf
	*m.sp = frame + uint64(irf.FrameSize)
	if irf.FrameSize > 0 {
		if err := m.zeroRange(frame, int(irf.FrameSize)); err != nil {
			*m.depth--
			*m.curFn = savedFn
			*m.sp = frame
			return 0, &vm.Fault{Kind: vm.FaultOOM, Fn: irf.Name, Msg: err.Error()}
		}
	}

	d := *m.depth
	for len(m.regPool) <= d {
		m.regPool = append(m.regPool, nil)
	}
	regs := m.regPool[d-1]
	if cap(regs) < irf.NumRegs {
		regs = make([]int64, irf.NumRegs+16)
		m.regPool[d-1] = regs
	}
	regs = regs[:irf.NumRegs]
	clear(regs)
	copy(regs, args)

	savedRegs, savedFrame := m.regs, m.frame
	m.regs, m.frame = regs, frame

	code := f.code
	pc := 0
	var ret int64
	var err error
loop:
	for {
		r := &f.runs[pc]
		if *m.budget > r.maxDip {
			// Fast path: no timeout can fire inside this run, so debit the
			// whole run in two ops. Pre-adding k means a mid-run fault must
			// subtract the not-executed tail (k − cum[i]) plus the fused
			// first-element correction.
			*m.instrs += r.k
			*m.budget -= r.net
			end := pc + int(r.n) - 1
			for i := pc; i < end; i++ {
				if code[i](m, regs) != 0 {
					*m.instrs -= r.k - int64(r.cum[i-pc]) + m.adj
					m.adj = 0
					err = m.err
					break loop
				}
			}
			npc := code[end](m, regs)
			if npc >= 0 {
				pc = npc
				continue
			}
			if npc == retPC {
				ret = m.ret
				break loop
			}
			// Fault at the run's last op: cum there equals k, so only the
			// fused first-element correction applies.
			*m.instrs -= m.adj
			m.adj = 0
			err = m.err
			break loop
		}
		// Slow path: within maxDip instructions of a hang verdict. The
		// mini-interpreter replays this run from the source instructions
		// with the interpreter's exact per-instruction accounting.
		npc := m.slowRun(f, pc)
		if npc >= 0 {
			pc = npc
			continue
		}
		if npc == retPC {
			ret = m.ret
		} else {
			err = m.err
		}
		break loop
	}

	m.regs, m.frame = savedRegs, savedFrame
	*m.sp = frame
	*m.depth--
	*m.curFn = savedFn
	return ret, err
}

// stageArgs returns the per-depth argument staging buffer, grown on
// demand — the interpreter's argPool discipline (the buffer is consumed
// before any same-depth reuse).
func (m *machine) stageArgs(n int) []int64 {
	d := *m.depth
	for len(m.argPool) <= d {
		m.argPool = append(m.argPool, nil)
	}
	args := m.argPool[d]
	if cap(args) < n {
		args = make([]int64, n)
		m.argPool[d] = args
	}
	return args[:n]
}

// fault records a fault (constructed with the interpreter's fault helper,
// so function attribution and line numbers match) and returns errPC.
func (m *machine) fault(kind vm.FaultKind, in *ir.Instr, addr uint64, msg string) int {
	m.err = m.v.NewFault(kind, in, addr, msg)
	return errPC
}
