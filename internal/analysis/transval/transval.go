// Package transval is the translation validator for the compiled
// execution tier: a per-function static equivalence checker that proves
// the closure-chain program internal/vm/compile lowers a committed
// ir.Module into is a faithful translation of that module.
//
// The compiler is self-certifying — lowering emits a Certificate
// restating every derived decision (source-instruction spans and fusion
// kinds per pc, resolved branch-target pcs, call continuations and callee
// bindings, folded constants, dead-intermediate elisions, and the
// per-run k/net/maxDip/cum budget tables). This package re-derives each
// claim independently from the IR — with its own span walk, the shared
// analysis liveness instance for elision proofs, a fresh vm.Layout for
// folded addresses, and an instruction-exact recount of every budget
// table — and reports any disagreement as an error diagnostic:
//
//	CLX123  branch map drift (target pc, block start, call continuation)
//	CLX124  illegal superinstruction (pattern, partition, live elision)
//	CLX125  folded constant drift
//	CLX126  callee binding drift (extends the verifier's CLX122 to a
//	        full name-vs-index-vs-binding check)
//	CLX127  budget table drift (hang verdicts are certified, not tested)
//
// Where the differential suites and the cross-backend sentinel prove
// equivalence only on the inputs a campaign happens to execute, a
// certificate covers every path of every compiled function before the
// first exec — which is why -backend=compiled refuses to run an
// uncertified module.
package transval

import (
	"fmt"

	"closurex/internal/analysis"
	"closurex/internal/ir"
	"closurex/internal/vm"
	"closurex/internal/vm/compile"
)

// passName labels every diagnostic this package emits.
const passName = "transval"

// Check compiles the module (cached, exactly as backend execution would)
// and validates the emitted certificate against it. An empty result is a
// certification: every compiled function is a proven translation.
func Check(m *ir.Module) analysis.Diagnostics {
	cert, err := compile.CertFor(m)
	if err != nil {
		return analysis.Diagnostics{{
			ID: analysis.IDIllegalFusion, Sev: analysis.SevError, Pass: passName,
			Block: -1, Instr: -1,
			Msg: fmt.Sprintf("module failed to compile: %v", err),
		}}
	}
	return CheckCert(m, cert)
}

// CheckCert validates an explicit certificate against the module. Tests
// corrupt cloned certificates and hand them here to prove each defect
// class is caught by its exact diagnostic.
func CheckCert(m *ir.Module, cert *compile.Certificate) analysis.Diagnostics {
	var ds analysis.Diagnostics
	if len(cert.Funcs) != len(m.Funcs) {
		ds = append(ds, modDiag(analysis.IDBranchMapDrift,
			fmt.Sprintf("certificate covers %d function(s), module has %d", len(cert.Funcs), len(m.Funcs))))
		return ds
	}
	lay := vm.NewLayout(m)
	for i, f := range m.Funcs {
		fc := cert.Funcs[i]
		if fc == nil || fc.Name != f.Name {
			got := "<nil>"
			if fc != nil {
				got = fc.Name
			}
			ds = append(ds, modDiag(analysis.IDBranchMapDrift,
				fmt.Sprintf("certificate function %d is %q, module has %q", i, got, f.Name)))
			continue
		}
		ds = append(ds, checkFunc(m, f, fc, lay)...)
	}
	return ds
}

// Stats summarizes a certificate for reporting: how much was certified
// and how aggressively the lowering optimized.
type Stats struct {
	Funcs  int // certified functions
	PCs    int // compiled ops
	Fused  int // superinstruction elements (≥2 source instructions)
	Elided int // dead-intermediate writes skipped
	Runs   int // straight-line runs with certified budget tables
}

// Summarize tallies a certificate.
func Summarize(c *compile.Certificate) Stats {
	var s Stats
	s.Funcs = len(c.Funcs)
	for _, fc := range c.Funcs {
		s.PCs += fc.NumPCs
		s.Runs += len(fc.Runs)
		for i := range fc.Elems {
			if fc.Elems[i].N >= 2 {
				s.Fused++
			}
			if fc.Elems[i].InterElided {
				s.Elided++
			}
		}
	}
	return s
}

func modDiag(id, msg string) analysis.Diagnostic {
	return analysis.Diagnostic{ID: id, Sev: analysis.SevError, Pass: passName, Block: -1, Instr: -1, Msg: msg}
}

// diag locates a finding at an element's first covered instruction.
func diag(id string, f *ir.Func, ec *compile.ElemCert, msg string) analysis.Diagnostic {
	d := analysis.Diagnostic{
		ID: id, Sev: analysis.SevError, Pass: passName,
		Func: f.Name, Block: ec.Bi, Instr: ec.Ii, Msg: msg,
	}
	if ec.Bi >= 0 && ec.Bi < len(f.Blocks) && ec.Ii >= 0 && ec.Ii < len(f.Blocks[ec.Bi].Instrs) {
		d.Line = f.Blocks[ec.Bi].Instrs[ec.Ii].Pos
	}
	return d
}

func isCmp(b ir.BinOp) bool { return b >= ir.Eq && b <= ir.Uge }
func isAddr(o ir.Op) bool   { return o == ir.OpFrameAddr || o == ir.OpGlobalAddr }
func isAccess(o ir.Op) bool { return o == ir.OpLoad || o == ir.OpStore }
func isPair(k compile.CertKind) bool {
	return k >= compile.CKCmpBr && k <= compile.CKConstStore
}

// pairShape validates a two-instruction fusion pattern starting at in
// (the pair's first instruction) for pair kind k.
func pairShape(k compile.CertKind, in, next *ir.Instr) error {
	switch k {
	case compile.CKCmpBr:
		if in.Op != ir.OpBin || !isCmp(in.Bin) || next.Op != ir.OpCondBr || next.A != in.Dst {
			return fmt.Errorf("cmp+br span is not compare followed by its conditional branch")
		}
	case compile.CKConstBin:
		if in.Op != ir.OpConst || next.Op != ir.OpBin || (next.A == in.Dst) == (next.B == in.Dst) {
			return fmt.Errorf("const+bin span is not a constant consumed on exactly one side of a binary op")
		}
	case compile.CKLoadAnd:
		if in.Op != ir.OpLoad || next.Op != ir.OpBin || next.Bin != ir.And ||
			(next.A != in.Dst && next.B != in.Dst) {
			return fmt.Errorf("load+and span is not a load masked by the following And")
		}
	case compile.CKSanAccess:
		if in.Op != ir.OpSanCheck || !isAccess(next.Op) {
			return fmt.Errorf("san+access span is not a shadow check guarding a load/store")
		}
	case compile.CKAddrLoad:
		if !isAddr(in.Op) || next.Op != ir.OpLoad || next.A != in.Dst {
			return fmt.Errorf("addr+load span is not an address materialization consumed by the load")
		}
	case compile.CKAddrStore:
		if !isAddr(in.Op) || next.Op != ir.OpStore || next.A != in.Dst {
			return fmt.Errorf("addr+store span is not an address materialization consumed by the store")
		}
	case compile.CKConstStore:
		if in.Op != ir.OpConst || next.Op != ir.OpStore || (next.A != in.Dst && next.B != in.Dst) {
			return fmt.Errorf("const+store span is not a constant consumed by the store")
		}
	default:
		return fmt.Errorf("kind %v is not a fusion pair", k)
	}
	return nil
}

// shapeN validates the element's kind against the instructions it claims
// to cover and returns the span length. The cursor (b, ii) is the
// checker's own; the element's Bi/Ii were already matched against it.
func shapeN(b *ir.Block, ii int, ec *compile.ElemCert) (int, error) {
	need := func(n int) error {
		if ii+n > len(b.Instrs) {
			return fmt.Errorf("span of %d overruns block (%d instrs, start %d)", n, len(b.Instrs), ii)
		}
		return nil
	}
	switch ec.Kind {
	case compile.CKFellOff:
		return 0, nil // block-end condition checked by the caller
	case compile.CKSingle:
		return 1, need(1)
	case compile.CKCovX:
		if err := need(2); err != nil {
			return 0, err
		}
		if b.Instrs[ii].Op != ir.OpCov || b.Instrs[ii+1].Op == ir.OpCov {
			return 0, fmt.Errorf("cov+single span is not a probe followed by a non-probe")
		}
		return 2, nil
	case compile.CKCovPair:
		if err := need(3); err != nil {
			return 0, err
		}
		if b.Instrs[ii].Op != ir.OpCov || !isPair(ec.Sub) {
			return 0, fmt.Errorf("cov+pair span is not a probe followed by a fusion pair")
		}
		if err := pairShape(ec.Sub, &b.Instrs[ii+1], &b.Instrs[ii+2]); err != nil {
			return 0, err
		}
		return 3, nil
	default:
		if !isPair(ec.Kind) {
			return 0, fmt.Errorf("unknown element kind %d", ec.Kind)
		}
		if err := need(2); err != nil {
			return 0, err
		}
		if err := pairShape(ec.Kind, &b.Instrs[ii], &b.Instrs[ii+1]); err != nil {
			return 0, err
		}
		return 2, nil
	}
}

// checkFunc runs every obligation against one function. Obligation (b)
// — the span partition — gates the rest: targets, folds, callees, elision
// proofs and budget recounts all index instructions through the spans, so
// a function whose partition fails is reported and skipped.
func checkFunc(m *ir.Module, f *ir.Func, fc *compile.FuncCert, lay *vm.Layout) analysis.Diagnostics {
	var ds analysis.Diagnostics

	// (b) Re-derive the span partition: every element sits exactly where
	// the cursor expects, matches a legal pattern, and the elements of a
	// block concatenate to cover its instructions exactly once, with the
	// synthetic fell-off op present iff the block is empty/unterminated.
	blockStart := make([]int, 0, len(f.Blocks))
	bi, ii := 0, 0
	for pc := range fc.Elems {
		ec := &fc.Elems[pc]
		if bi >= len(f.Blocks) {
			ds = append(ds, diag(analysis.IDIllegalFusion, f, ec,
				fmt.Sprintf("pc %d: elements continue past the last block", pc)))
			return ds
		}
		b := f.Blocks[bi]
		if ii == 0 {
			blockStart = append(blockStart, pc)
		}
		if ec.Bi != bi || ec.Ii != ii {
			ds = append(ds, diag(analysis.IDIllegalFusion, f, ec,
				fmt.Sprintf("pc %d: span starts at b%d#%d, partition cursor is at b%d#%d", pc, ec.Bi, ec.Ii, bi, ii)))
			return ds
		}
		n, err := shapeN(b, ii, ec)
		if err == nil && ec.N != n {
			err = fmt.Errorf("claims %d source instruction(s), pattern covers %d", ec.N, n)
		}
		if err == nil && ec.Kind == compile.CKFellOff {
			if ii != len(b.Instrs) {
				err = fmt.Errorf("fell-off op before block end (#%d of %d)", ii, len(b.Instrs))
			} else if n := len(b.Instrs); n > 0 && b.Instrs[n-1].IsTerminator() {
				err = fmt.Errorf("fell-off op on a terminated block")
			}
		}
		if err != nil {
			ds = append(ds, diag(analysis.IDIllegalFusion, f, ec, fmt.Sprintf("pc %d: %v", pc, err)))
			return ds
		}
		ii += n
		switch {
		case ec.Kind == compile.CKFellOff:
			bi, ii = bi+1, 0
		case ii == len(b.Instrs):
			if len(b.Instrs) > 0 && b.Instrs[len(b.Instrs)-1].IsTerminator() {
				bi, ii = bi+1, 0
			}
			// Otherwise the block is unterminated: the next element must
			// be the fell-off op (any other kind fails shapeN at ii ==
			// len(b.Instrs)).
		}
	}
	if bi != len(f.Blocks) {
		ds = append(ds, modFnDiag(analysis.IDIllegalFusion, f,
			fmt.Sprintf("elements cover %d of %d blocks", bi, len(f.Blocks))))
		return ds
	}

	// (a) Branch map: block starts are exactly the concatenation offsets,
	// every branch target resolved to its block's start pc, and every call
	// continues at pc+1.
	if fc.NumPCs != len(fc.Elems) {
		ds = append(ds, modFnDiag(analysis.IDBranchMapDrift, f,
			fmt.Sprintf("certificate claims %d pcs, has %d elements", fc.NumPCs, len(fc.Elems))))
	}
	if len(fc.BlockStart) != len(blockStart) {
		ds = append(ds, modFnDiag(analysis.IDBranchMapDrift, f,
			fmt.Sprintf("certificate claims %d block starts, derivation has %d", len(fc.BlockStart), len(blockStart))))
	} else {
		for b := range blockStart {
			if fc.BlockStart[b] != blockStart[b] {
				ds = append(ds, modFnDiag(analysis.IDBranchMapDrift, f,
					fmt.Sprintf("block %d starts at pc %d, certificate claims %d", b, blockStart[b], fc.BlockStart[b])))
			}
		}
	}
	for pc := range fc.Elems {
		ec := &fc.Elems[pc]
		last := lastInstr(f, ec)
		var want []int
		if last != nil && (last.Op == ir.OpBr || last.Op == ir.OpCondBr) {
			ts := last.Targets[:1]
			if last.Op == ir.OpCondBr {
				ts = last.Targets[:2]
			}
			for _, t := range ts {
				if t < 0 || t >= len(blockStart) {
					ds = append(ds, diag(analysis.IDBranchMapDrift, f, ec,
						fmt.Sprintf("pc %d: branch target block %d out of range", pc, t)))
					continue
				}
				want = append(want, blockStart[t])
			}
		}
		if !intsEqual(ec.Targets, want) {
			ds = append(ds, diag(analysis.IDBranchMapDrift, f, ec,
				fmt.Sprintf("pc %d: resolved targets %v, re-derivation gives %v", pc, ec.Targets, want)))
		}
		wantNext := -1
		if last != nil && last.Op == ir.OpCall {
			wantNext = pc + 1
		}
		if ec.Next != wantNext {
			ds = append(ds, diag(analysis.IDBranchMapDrift, f, ec,
				fmt.Sprintf("pc %d: call continuation %d, re-derivation gives %d", pc, ec.Next, wantNext)))
		}
	}

	// (d) Callee bindings: the compiled binding, the IR name and the
	// cached CalleeIdx must all resolve to the same thing.
	for pc := range fc.Elems {
		ec := &fc.Elems[pc]
		last := lastInstr(f, ec)
		if last == nil || last.Op != ir.OpCall {
			if ec.Callee != compile.CalleeNone {
				ds = append(ds, diag(analysis.IDCalleeBindDrift, f, ec,
					fmt.Sprintf("pc %d: non-call element carries a callee binding", pc)))
			}
			continue
		}
		ds = append(ds, checkCallee(m, f, ec, pc, last)...)
	}

	// (c) Folded constants re-evaluate from the IR operands.
	for pc := range fc.Elems {
		ec := &fc.Elems[pc]
		want := expectedFolds(f, ec, lay)
		if !foldsEqual(ec.Folds, want) {
			ds = append(ds, diag(analysis.IDFoldDrift, f, ec,
				fmt.Sprintf("pc %d: captured folds %v, re-evaluation gives %v", pc, foldStr(ec.Folds), foldStr(want))))
		}
	}

	// (b, continued) Elision claims: each skipped intermediate write must
	// name the pair's defined register, on a pattern whose closure never
	// reads it, and the register must be provably dead after the pair —
	// proven with this package's liveness instance, not the compiler's.
	var lv *analysis.Liveness
	for pc := range fc.Elems {
		ec := &fc.Elems[pc]
		if !ec.InterElided {
			continue
		}
		if lv == nil {
			lv = analysis.ComputeLiveness(analysis.BuildCFG(f))
		}
		if err := checkElision(f, lv, ec); err != nil {
			ds = append(ds, diag(analysis.IDIllegalFusion, f, ec,
				fmt.Sprintf("pc %d: unprovable elision: %v", pc, err)))
		}
	}

	// (e) Budget tables: recount every run with the interpreter's exact
	// per-instruction timing and compare field for field.
	ds = append(ds, checkRuns(f, fc, blockStart)...)
	return ds
}

func modFnDiag(id string, f *ir.Func, msg string) analysis.Diagnostic {
	return analysis.Diagnostic{ID: id, Sev: analysis.SevError, Pass: passName,
		Func: f.Name, Block: -1, Instr: -1, Msg: msg}
}

// lastInstr returns the last source instruction an element covers, or nil
// for the fell-off op.
func lastInstr(f *ir.Func, ec *compile.ElemCert) *ir.Instr {
	if ec.N == 0 {
		return nil
	}
	return &f.Blocks[ec.Bi].Instrs[ec.Ii+ec.N-1]
}

func intsEqual(a, b []int) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

func foldsEqual(a, b []compile.Fold) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

func foldStr(fs []compile.Fold) string {
	if len(fs) == 0 {
		return "[]"
	}
	s := "["
	for i, fo := range fs {
		if i > 0 {
			s += " "
		}
		s += fmt.Sprintf("%v(%d)=%d", fo.Kind, fo.Arg, fo.Val)
	}
	return s + "]"
}

// checkCallee is the full CLX122 extension: name resolution (module
// function first, builtin second — the interpreter's order), the compiled
// binding, and the cached CalleeIdx must agree.
func checkCallee(m *ir.Module, f *ir.Func, ec *compile.ElemCert, pc int, call *ir.Instr) analysis.Diagnostics {
	var ds analysis.Diagnostics
	bad := func(msg string) {
		ds = append(ds, diag(analysis.IDCalleeBindDrift, f, ec, fmt.Sprintf("pc %d: %s", pc, msg)))
	}
	name := call.Callee
	if fi := m.FuncIndex(name); fi >= 0 {
		if ec.Callee != compile.CalleeFunc || ec.CalleeIdx != fi {
			bad(fmt.Sprintf("callee %q is module function %d, compiled binding is (%d, %d)", name, fi, ec.Callee, ec.CalleeIdx))
		}
		if call.CalleeIdx != 0 && call.CalleeIdx != fi+1 {
			bad(fmt.Sprintf("callee %q is module function %d, cached CalleeIdx is %d", name, fi, call.CalleeIdx))
		}
		return ds
	}
	if slot := vm.BuiltinIndex(name); slot >= 0 {
		if ec.Callee != compile.CalleeBuiltin || ec.CalleeIdx != slot {
			bad(fmt.Sprintf("callee %q is builtin slot %d, compiled binding is (%d, %d)", name, slot, ec.Callee, ec.CalleeIdx))
		}
		if call.CalleeIdx != 0 && call.CalleeIdx != -(slot+1) {
			bad(fmt.Sprintf("callee %q is builtin slot %d, cached CalleeIdx is %d", name, slot, call.CalleeIdx))
		}
		return ds
	}
	if ec.Callee != compile.CalleeUnknown {
		bad(fmt.Sprintf("callee %q resolves to nothing, compiled binding is (%d, %d)", name, ec.Callee, ec.CalleeIdx))
	}
	if call.CalleeIdx != 0 {
		bad(fmt.Sprintf("callee %q resolves to nothing, cached CalleeIdx is %d", name, call.CalleeIdx))
	}
	return ds
}

// expectedFolds re-derives the constants the element's closure should
// have captured, in emission order.
func expectedFolds(f *ir.Func, ec *compile.ElemCert, lay *vm.Layout) []compile.Fold {
	b := f.Blocks[ec.Bi]
	kind := ec.Kind
	ii := ec.Ii
	if kind == compile.CKCovX {
		kind, ii = compile.CKSingle, ii+1
	} else if kind == compile.CKCovPair {
		kind, ii = ec.Sub, ii+1
	}
	switch kind {
	case compile.CKSingle:
		in := &b.Instrs[ii]
		if in.Op == ir.OpGlobalAddr && in.Imm >= 0 && int(in.Imm) < len(lay.GlobalAddr) {
			return []compile.Fold{{Kind: compile.FoldGlobalAddr, Arg: in.Imm, Val: int64(lay.GlobalAddr[in.Imm])}}
		}
	case compile.CKConstBin:
		c, bin := &b.Instrs[ii], &b.Instrs[ii+1]
		out := []compile.Fold{{Kind: compile.FoldImm, Arg: c.Imm, Val: c.Imm}}
		if bin.A != c.Dst { // constant on the right operand
			switch bin.Bin {
			case ir.Shl, ir.Shr:
				out = append(out, compile.Fold{Kind: compile.FoldShiftMask, Arg: c.Imm, Val: int64(uint64(c.Imm) & 63)})
			case ir.Div, ir.Rem:
				switch c.Imm {
				case 0:
					out = append(out, compile.Fold{Kind: compile.FoldDivZero, Arg: 0, Val: 0})
				case -1:
					out = append(out, compile.Fold{Kind: compile.FoldDivNegOne, Arg: -1, Val: -1})
				}
			}
		}
		return out
	case compile.CKConstStore:
		c := &b.Instrs[ii]
		return []compile.Fold{{Kind: compile.FoldImm, Arg: c.Imm, Val: c.Imm}}
	case compile.CKAddrLoad, compile.CKAddrStore:
		ain, acc := &b.Instrs[ii], &b.Instrs[ii+1]
		if ain.Op == ir.OpGlobalAddr && ain.Imm >= 0 && int(ain.Imm) < len(lay.GlobalAddr) {
			base := int64(lay.GlobalAddr[ain.Imm])
			return []compile.Fold{
				{Kind: compile.FoldGlobalAddr, Arg: ain.Imm, Val: base},
				{Kind: compile.FoldAbsAddr, Arg: acc.Imm, Val: int64(uint64(base + acc.Imm))},
			}
		}
	}
	return nil
}

// checkElision proves one dead-intermediate claim. The pair's first
// instruction defines InterReg; the claim is sound iff the pattern's
// closure internalizes every in-pair read of that register AND no later
// use can observe it: either the pair's second instruction redefines it,
// or it is dead after the pair on every path.
func checkElision(f *ir.Func, lv *analysis.Liveness, ec *compile.ElemCert) error {
	kind, ii := ec.Kind, ec.Ii
	if kind == compile.CKCovPair {
		kind, ii = ec.Sub, ii+1
	}
	b := f.Blocks[ec.Bi]
	switch kind {
	case compile.CKCmpBr, compile.CKConstBin, compile.CKLoadAnd, compile.CKAddrLoad, compile.CKAddrStore:
	default:
		return fmt.Errorf("pattern %v may not elide its intermediate", kind)
	}
	first, second := &b.Instrs[ii], &b.Instrs[ii+1]
	r := analysis.InstrDef(first)
	if r < 0 || ec.InterReg != r {
		return fmt.Errorf("claimed register r%d is not the pair's intermediate (r%d)", ec.InterReg, r)
	}
	if kind == compile.CKAddrStore && second.B == r {
		return fmt.Errorf("store value operand reads the elided address register r%d", r)
	}
	if analysis.InstrDef(second) == r {
		return nil // redefined inside the pair
	}
	lastIi := ec.Ii + ec.N - 1
	var buf []int
	for j := lastIi + 1; j < len(b.Instrs); j++ {
		in := &b.Instrs[j]
		buf = analysis.InstrUses(in, buf[:0])
		for _, u := range buf {
			if u == r {
				return fmt.Errorf("r%d read at b%d#%d after the pair", r, ec.Bi, j)
			}
		}
		if analysis.InstrDef(in) == r {
			return nil
		}
	}
	if r < f.NumRegs && lv.LiveOut[ec.Bi].Has(r) {
		return fmt.Errorf("r%d live out of b%d", r, ec.Bi)
	}
	return nil
}

// elemEndsRun mirrors the compiler's run boundary: the element is (or
// ends in) a call or block terminator.
func elemEndsRun(f *ir.Func, ec *compile.ElemCert) bool {
	if ec.Kind == compile.CKFellOff {
		return true
	}
	last := lastInstr(f, ec)
	return last.Op == ir.OpCall || last.IsTerminator()
}

// checkRuns recounts every straight-line run's budget table with the
// interpreter's exact timing — for source instruction number c (1-based),
// the timeout check sees budget − c + (sancheck compensations completed
// strictly before it) — and compares the certificate field for field.
func checkRuns(f *ir.Func, fc *compile.FuncCert, blockStart []int) analysis.Diagnostics {
	var ds analysis.Diagnostics
	type run struct {
		head           int
		k, net, maxDip int64
		n              int32
		srcBi, srcIi   int32
		cum            []int32
	}
	var runs []run
	for bi := range f.Blocks {
		end := len(fc.Elems)
		if bi+1 < len(blockStart) {
			end = blockStart[bi+1]
		}
		head := blockStart[bi]
		for head < end {
			r := run{head: head, srcBi: int32(fc.Elems[head].Bi), srcIi: int32(fc.Elems[head].Ii)}
			var c, sc, maxDip int64
			pc := head
			for {
				ec := &fc.Elems[pc]
				for j := 0; j < ec.N; j++ {
					in := &f.Blocks[ec.Bi].Instrs[ec.Ii+j]
					c++
					if dip := c - sc; dip > maxDip {
						maxDip = dip
					}
					if in.Op == ir.OpSanCheck {
						sc++
					}
				}
				r.cum = append(r.cum, int32(c))
				if elemEndsRun(f, &fc.Elems[pc]) || pc+1 >= end {
					break
				}
				pc++
			}
			r.k, r.net, r.maxDip = c, c-sc, maxDip
			r.n = int32(pc - head + 1)
			runs = append(runs, r)
			head = pc + 1
		}
	}
	if len(fc.Runs) != len(runs) {
		ds = append(ds, modFnDiag(analysis.IDBudgetDrift, f,
			fmt.Sprintf("certificate has %d run table(s), re-derivation has %d", len(fc.Runs), len(runs))))
		return ds
	}
	for i := range runs {
		got, want := &fc.Runs[i], &runs[i]
		if got.Head != want.head || got.K != want.k || got.Net != want.net ||
			got.MaxDip != want.maxDip || got.N != want.n ||
			got.SrcBi != want.srcBi || got.SrcIi != want.srcIi || !cumEqual(got.Cum, want.cum) {
			ec := &fc.Elems[want.head]
			ds = append(ds, diag(analysis.IDBudgetDrift, f, ec, fmt.Sprintf(
				"run at pc %d: certified (k=%d net=%d maxDip=%d n=%d src=b%d#%d cum=%v), recount gives (k=%d net=%d maxDip=%d n=%d src=b%d#%d cum=%v)",
				want.head, got.K, got.Net, got.MaxDip, got.N, got.SrcBi, got.SrcIi, got.Cum,
				want.k, want.net, want.maxDip, want.n, want.srcBi, want.srcIi, want.cum)))
		}
	}
	return ds
}

func cumEqual(a, b []int32) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}
