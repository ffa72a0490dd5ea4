// Package compile is the VM's compiled execution tier: it lowers a
// verified, pass-committed ir.Module into pre-resolved closure chains —
// each function a flat []op of Go closures with block targets resolved to
// instruction indices, OpGlobalAddr/OpConst folded to captured constants,
// callees resolved at compile time to direct function values, and
// superinstructions fusing the pairs the interpreter executes
// back-to-back (compare+condbr, const+bin, load+mask, sancheck+access).
//
// Budget accounting moves from per-instruction decrements to
// per-straight-line-run debits that are instruction-exact: a run is a
// maximal sequence of ops ending at a call or block terminator, and its
// (k, net, maxDip) metadata lets the dispatcher debit the whole run in
// two arithmetic ops whenever the remaining budget provably cannot hit
// zero inside it. Within maxDip instructions of exhaustion the dispatcher
// falls back to a mini-interpreter over the source instructions with the
// interpreter's exact per-instruction semantics, so hang verdicts,
// FaultTimeout sites, instruction counts, coverage bitmaps, path hashes
// and fault kind/line/addr are bit-identical to the interpreter (the
// differential suites in this package and internal/core prove it).
//
// The package registers itself as vm backend "compiled"; importing it
// (execmgr does, blank) is what makes vm.Options{Backend: "compiled"}
// resolvable.
package compile

import (
	"fmt"
	"sync"

	"closurex/internal/ir"
	"closurex/internal/vm"
)

// BackendName is the name this tier registers with the VM backend
// registry.
const BackendName = "compiled"

// Dispatcher pc sentinels: ops return the next pc, or one of these.
const (
	retPC = -1 // m.ret holds the return value
	errPC = -2 // m.err holds the fault / exit unwind
)

// covMask truncates a probe's edge index into the VM's coverage map.
const covMask = vm.CovMapSize - 1

// op is one compiled instruction: it executes against the machine and the
// current activation's register file and returns the next pc.
// Straight-line ops return 0 ("fall through"; the dispatcher advances pc
// itself) or errPC; run-ending ops (calls and terminators) return a real
// pc, retPC or errPC. regs is passed as an argument so op bodies address
// registers off a local slice header instead of re-loading m.regs.
type op func(m *machine, regs []int64) int

// runMeta describes one straight-line run, indexed by its head pc. k, net
// and maxDip are in source-instruction units (a fused pair counts 2).
type runMeta struct {
	k      int64   // source instructions covered by the run
	net    int64   // k minus the run's sancheck count (budget compensation)
	maxDip int64   // deepest mid-run budget dip: max over i of (i+1 − sanchecksBefore_i)
	n      int32   // ops (pcs) in the run
	srcBi  int32   // source block of the run's first instruction
	srcIi  int32   // instruction index of the run's first instruction
	cum    []int32 // per op: source instructions covered through that op
}

// cfn is one compiled function.
type cfn struct {
	irFn       *ir.Func
	code       []op
	runs       []runMeta // valid at run-head pcs only
	blockStart []int     // block index -> pc
}

// program is one compiled module, shared by every VM executing it (the
// closures capture only compile-time data: register indices, immediates,
// layout addresses, target pcs, callee pointers and access-site slot
// numbers — all per-VM mutable state lives in the machine).
type program struct {
	mod  *ir.Module
	fns  []*cfn
	byFn map[*ir.Func]*cfn
	// nSites counts the memory-access sites emitted across the program;
	// each machine carries nSites AccessCache slots, indexed by the slot
	// number the site's closure captured at compile time.
	nSites int
	// cert is the translation certificate emitted during lowering;
	// analysis/transval proves each of its claims against the module.
	cert *Certificate
}

// newSite assigns the next per-program access-cache slot.
func (p *program) newSite() int {
	s := p.nSites
	p.nSites++
	return s
}

// progCache caches compiled programs per module. Modules are immutable
// after commit (core resolves and the verifier audits them), and the
// global layout is a pure function of the module, so one program serves
// every VM — including concurrent shard fleets.
var progCache sync.Map // *ir.Module -> *program

func programFor(mod *ir.Module) (*program, error) {
	if p, ok := progCache.Load(mod); ok {
		return p.(*program), nil
	}
	p, err := compileModule(mod)
	if err != nil {
		return nil, err
	}
	actual, _ := progCache.LoadOrStore(mod, p)
	return actual.(*program), nil
}

func init() {
	vm.RegisterBackend(BackendName, func(v *vm.VM) (vm.Engine, error) {
		p, err := programFor(v.Mod)
		if err != nil {
			return nil, err
		}
		return newEngine(v, p), nil
	})
}

// elemKind tags a lowered element: one source instruction or one fused
// superinstruction pair.
type elemKind uint8

const (
	ekSingle     elemKind = iota
	ekCmpBr               // OpBin(Eq..Uge) + OpCondBr on its result
	ekConstBin            // OpConst + OpBin consuming it
	ekLoadAnd             // OpLoad + OpBin(And) masking it
	ekSanAccess           // OpSanCheck + the load/store it guards
	ekAddrLoad            // OpFrameAddr/OpGlobalAddr + OpLoad through it
	ekAddrStore           // OpFrameAddr/OpGlobalAddr + OpStore through it
	ekConstStore          // OpConst + OpStore consuming it
	ekCovX                // OpCov + any following single instruction
	ekCovPair             // OpCov + a fused pair (sub holds the pair kind)
	ekFellOff             // synthetic: block has no terminator (interpreter
	// faults "fell off block end" after executing every instruction);
	// covers zero source instructions
)

// elem is one pc's worth of work decided by the fusion pre-pass: one
// source instruction, a fused pair, or an OpCov merged with either.
type elem struct {
	kind   elemKind
	sub    elemKind // ekCovPair: the embedded pair's kind
	first  *ir.Instr
	second *ir.Instr // nil for ekSingle
	third  *ir.Instr // ekCovPair only
	bi, ii int       // source position of first
	// interElide: the fused pair's intermediate register write is skipped;
	// set by markElide when the register is provably dead after the pair.
	interElide bool
}

// srcCount returns the number of source instructions the element covers.
func (e *elem) srcCount() int {
	n := 0
	for _, in := range []*ir.Instr{e.first, e.second, e.third} {
		if in != nil {
			n++
		}
	}
	return n
}

// endsRun reports whether the element terminates a straight-line run: it
// is (or ends in) a call or a block terminator.
func (e *elem) endsRun() bool {
	if e.kind == ekFellOff {
		return true
	}
	last := e.first
	if e.second != nil {
		last = e.second
	}
	if e.third != nil {
		last = e.third
	}
	return last.Op == ir.OpCall || last.IsTerminator()
}

func isCmp(b ir.BinOp) bool { return b >= ir.Eq && b <= ir.Uge }

func isAddr(o ir.Op) bool { return o == ir.OpFrameAddr || o == ir.OpGlobalAddr }

// matchPair decides whether the two instructions at ii fuse into a
// superinstruction pair. Fusion only pairs adjacent instructions of the
// same block, which is safe because jumps target block starts only — no
// control flow can enter the middle of a pair. Each pattern preserves
// every intermediate destination register write, so dataflow is
// unchanged.
func matchPair(b *ir.Block, ii int) (elemKind, bool) {
	if ii+1 >= len(b.Instrs) {
		return ekSingle, false
	}
	in, next := &b.Instrs[ii], &b.Instrs[ii+1]
	switch {
	case in.Op == ir.OpBin && isCmp(in.Bin) && next.Op == ir.OpCondBr && next.A == in.Dst:
		return ekCmpBr, true
	case in.Op == ir.OpConst && next.Op == ir.OpBin &&
		(next.A == in.Dst) != (next.B == in.Dst) && // exactly one side; both-sides stays unfused
		!wouldCmpBr(b, ii+1):
		return ekConstBin, true
	case in.Op == ir.OpLoad && next.Op == ir.OpBin && next.Bin == ir.And &&
		(next.A == in.Dst || next.B == in.Dst):
		return ekLoadAnd, true
	case in.Op == ir.OpSanCheck && (next.Op == ir.OpLoad || next.Op == ir.OpStore):
		return ekSanAccess, true
	case isAddr(in.Op) && next.Op == ir.OpLoad && next.A == in.Dst:
		return ekAddrLoad, true
	case isAddr(in.Op) && next.Op == ir.OpStore && next.A == in.Dst:
		return ekAddrStore, true
	case in.Op == ir.OpConst && next.Op == ir.OpStore &&
		(next.A == in.Dst || next.B == in.Dst):
		return ekConstStore, true
	}
	return ekSingle, false
}

// covFusable reports whether an OpCov may absorb the following single
// instruction. Only OpCov itself is excluded (the coverage pass never
// emits two probes back to back, but stay conservative): everything else
// — including calls and sanchecks — composes, because the probe can
// never fault, so the merged element's fault accounting is exactly the
// inner instruction's.
func covFusable(o ir.Op) bool { return o != ir.OpCov }

// fuseBlock decides the element sequence for one block.
func fuseBlock(b *ir.Block, bi int) []elem {
	elems := make([]elem, 0, len(b.Instrs))
	for ii := 0; ii < len(b.Instrs); ii++ {
		in := &b.Instrs[ii]
		if in.Op == ir.OpCov && ii+1 < len(b.Instrs) {
			// Coverage probes head nearly every block; merge the probe
			// into whatever follows — a fused pair when the next two
			// instructions match a pattern, the single otherwise — so the
			// block-head dispatch disappears.
			if k, ok := matchPair(b, ii+1); ok {
				elems = append(elems, elem{
					kind: ekCovPair, sub: k,
					first: in, second: &b.Instrs[ii+1], third: &b.Instrs[ii+2],
					bi: bi, ii: ii,
				})
				ii += 2
				continue
			}
			if covFusable(b.Instrs[ii+1].Op) {
				elems = append(elems, elem{kind: ekCovX, first: in, second: &b.Instrs[ii+1], bi: bi, ii: ii})
				ii++
				continue
			}
		}
		if k, ok := matchPair(b, ii); ok {
			elems = append(elems, elem{kind: k, first: in, second: &b.Instrs[ii+1], bi: bi, ii: ii})
			ii++
			continue
		}
		elems = append(elems, elem{kind: ekSingle, first: in, bi: bi, ii: ii})
	}
	if n := len(b.Instrs); n == 0 || !b.Instrs[n-1].IsTerminator() {
		elems = append(elems, elem{kind: ekFellOff, bi: bi, ii: n})
	}
	return elems
}

// wouldCmpBr reports whether the instruction at ii would itself fuse into
// a compare+branch pair — in that case an OpConst before it should stay
// single so the branch fusion (which removes a dispatch on the loop back
// edge) wins the overlap.
func wouldCmpBr(b *ir.Block, ii int) bool {
	if ii+1 >= len(b.Instrs) {
		return false
	}
	in, next := &b.Instrs[ii], &b.Instrs[ii+1]
	return in.Op == ir.OpBin && isCmp(in.Bin) && next.Op == ir.OpCondBr && next.A == in.Dst
}

// compileModule lowers every function. Shells are created first so call
// closures can capture direct callee pointers regardless of definition
// order (bodies fill in afterwards).
func compileModule(mod *ir.Module) (*program, error) {
	p := &program{
		mod:  mod,
		fns:  make([]*cfn, len(mod.Funcs)),
		byFn: make(map[*ir.Func]*cfn, len(mod.Funcs)),
	}
	for i, f := range mod.Funcs {
		cf := &cfn{irFn: f}
		p.fns[i] = cf
		p.byFn[f] = cf
	}
	lay := vm.NewLayout(mod)
	p.cert = &Certificate{Module: mod.Name, Funcs: make([]*FuncCert, len(mod.Funcs))}
	for i, f := range mod.Funcs {
		fc := &FuncCert{Name: f.Name}
		if err := lowerFunc(p, p.fns[i], f, lay, fc); err != nil {
			return nil, fmt.Errorf("compile %s: %w", f.Name, err)
		}
		p.cert.Funcs[i] = fc
	}
	return p, nil
}

// lowerFunc lowers one function in two passes: pass A decides fusion,
// assigns pcs, marks dead-intermediate elisions, and computes block starts
// and run metadata; pass B emits the closures with every target pc and
// constant known. The certificate fc is filled alongside: spans and run
// tables in pass A, resolved targets / callee bindings / folds in pass B.
func lowerFunc(p *program, cf *cfn, f *ir.Func, lay *vm.Layout, fc *FuncCert) error {
	// Pass A: layout.
	var elems []elem
	cf.blockStart = make([]int, len(f.Blocks))
	for bi, b := range f.Blocks {
		cf.blockStart[bi] = len(elems)
		elems = append(elems, fuseBlock(b, bi)...)
	}
	liveOut := computeLiveOut(f)
	for i := range elems {
		markElide(f, liveOut, &elems[i])
	}
	cf.code = make([]op, len(elems))
	cf.runs = make([]runMeta, len(elems))

	fc.BlockStart = append([]int(nil), cf.blockStart...)
	fc.NumPCs = len(elems)
	fc.Elems = make([]ElemCert, len(elems))
	for i := range elems {
		e := &elems[i]
		ec := &fc.Elems[i]
		ec.Kind = certKind(e.kind)
		if e.kind == ekCovPair {
			ec.Sub = certKind(e.sub)
		}
		ec.Bi, ec.Ii, ec.N = e.bi, e.ii, e.srcCount()
		ec.Next = -1
		ec.CalleeIdx = -1
		if e.interElide {
			ec.InterElided = true
			if e.kind == ekCovPair {
				ec.InterReg = e.second.Dst
			} else {
				ec.InterReg = e.first.Dst
			}
		}
	}

	// Run metadata: a run head is pc 0 of a block or the pc after a call.
	// For each head, walk elements to the run-ending op, expanding fused
	// pairs into their source instructions to compute (k, net, maxDip) with
	// the interpreter's exact budget timing: for source instruction number
	// c (1-based), the timeout check sees budget − c + (sancheck
	// compensations completed strictly before it), so the run's dip at that
	// instruction is c − scBefore; no fault can fire in the run iff the
	// entering budget exceeds the maximum dip.
	blockEnd := make([]int, len(f.Blocks))
	for bi := range f.Blocks {
		if bi+1 < len(f.Blocks) {
			blockEnd[bi] = cf.blockStart[bi+1]
		} else {
			blockEnd[bi] = len(elems)
		}
	}
	for bi := range f.Blocks {
		head := cf.blockStart[bi]
		for head < blockEnd[bi] {
			r := &cf.runs[head]
			r.srcBi = int32(elems[head].bi)
			r.srcIi = int32(elems[head].ii)
			var c, sc, maxDip int64
			pc := head
			for {
				e := &elems[pc]
				for _, in := range []*ir.Instr{e.first, e.second, e.third} {
					if in == nil {
						continue
					}
					c++
					if dip := c - sc; dip > maxDip {
						maxDip = dip
					}
					if in.Op == ir.OpSanCheck {
						sc++
					}
				}
				r.cum = append(r.cum, int32(c))
				if e.endsRun() || pc+1 >= blockEnd[bi] {
					break
				}
				pc++
			}
			r.k = c
			r.net = c - sc
			r.maxDip = maxDip
			r.n = int32(pc - head + 1)
			fc.Runs = append(fc.Runs, RunCert{
				Head: head, K: r.k, Net: r.net, MaxDip: r.maxDip,
				N: r.n, SrcBi: r.srcBi, SrcIi: r.srcIi,
				Cum: append([]int32(nil), r.cum...),
			})
			head = pc + 1
		}
	}

	// Pass B: emit closures.
	for pc := range elems {
		e := &elems[pc]
		o, err := emit(p, cf, e, pc, lay, &fc.Elems[pc])
		if err != nil {
			return err
		}
		cf.code[pc] = o
	}
	return nil
}
