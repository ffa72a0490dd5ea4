// Package ir defines the intermediate representation the ClosureX pass
// pipeline transforms. It plays the role LLVM IR plays in the paper: a
// module of functions over basic blocks of register-machine instructions,
// plus global variables carrying a section attribute (the hook GlobalPass
// uses, mirroring LLVM's setSection), function renaming (setName) and
// call-site rewriting (replaceAllUsesWith).
package ir

import "fmt"

// BinOp enumerates binary operators. Arithmetic is 64-bit two's complement;
// comparisons yield 0 or 1.
type BinOp uint8

// Binary operators.
const (
	Add BinOp = iota
	Sub
	Mul
	Div // signed; division by zero faults in the VM
	Rem // signed; division by zero faults in the VM
	Shl
	Shr // arithmetic (signed) shift right
	And
	Or
	Xor
	Eq
	Ne
	Lt // signed
	Le
	Gt
	Ge
	Ult // unsigned compare (pointer comparisons)
	Ule
	Ugt
	Uge
)

var binNames = [...]string{
	Add: "add", Sub: "sub", Mul: "mul", Div: "div", Rem: "rem",
	Shl: "shl", Shr: "shr", And: "and", Or: "or", Xor: "xor",
	Eq: "eq", Ne: "ne", Lt: "lt", Le: "le", Gt: "gt", Ge: "ge",
	Ult: "ult", Ule: "ule", Ugt: "ugt", Uge: "uge",
}

func (b BinOp) String() string {
	if int(b) < len(binNames) {
		return binNames[b]
	}
	return fmt.Sprintf("bin(%d)", uint8(b))
}

// UnOp enumerates unary operators.
type UnOp uint8

// Unary operators.
const (
	Neg  UnOp = iota // arithmetic negation
	Not              // logical not: x == 0 ? 1 : 0
	BNot             // bitwise complement
)

func (u UnOp) String() string {
	switch u {
	case Neg:
		return "neg"
	case Not:
		return "not"
	case BNot:
		return "bnot"
	}
	return fmt.Sprintf("un(%d)", uint8(u))
}

// Op enumerates instruction opcodes.
type Op uint8

// Instruction opcodes.
const (
	OpConst       Op = iota // Dst = Imm
	OpMov                   // Dst = R[A]
	OpBin                   // Dst = R[A] <Bin> R[B]
	OpUn                    // Dst = <Un> R[A]
	OpLoad                  // Dst = zero-extended mem[R[A]+Imm], Size bytes
	OpStore                 // mem[R[A]+Imm] = low Size bytes of R[B]
	OpGlobalAddr            // Dst = address of Globals[Imm]
	OpFrameAddr             // Dst = frame base + Imm
	OpCall                  // Dst = Callee(R[Args[0]], ...)
	OpRet                   // return R[A] (A < 0: return 0)
	OpBr                    // jump Targets[0]
	OpCondBr                // if R[A] != 0 jump Targets[0] else Targets[1]
	OpCov                   // coverage probe; Imm = location ID (CoveragePass)
	OpUnreachable           // executing this is a fault
	OpSanCheck              // shadow-check mem[R[A]+Imm], Size bytes; B: 0=read 1=write (SanitizerPass)
)

var opNames = [...]string{
	OpConst: "const", OpMov: "mov", OpBin: "bin", OpUn: "un",
	OpLoad: "load", OpStore: "store", OpGlobalAddr: "gaddr",
	OpFrameAddr: "faddr", OpCall: "call", OpRet: "ret", OpBr: "br",
	OpCondBr: "condbr", OpCov: "cov", OpUnreachable: "unreachable",
	OpSanCheck: "sancheck",
}

func (o Op) String() string {
	if int(o) < len(opNames) {
		return opNames[o]
	}
	return fmt.Sprintf("op(%d)", uint8(o))
}

// Instr is one instruction. The meaning of the operand fields depends on Op;
// see the opcode comments.
type Instr struct {
	Op      Op
	Dst     int    // destination register (-1 when unused)
	A, B    int    // operand registers
	Imm     int64  // immediate / offset / global index / coverage ID
	Size    int    // memory access width: 1, 2, 4 or 8
	Bin     BinOp  // for OpBin
	Un      UnOp   // for OpUn
	Callee  string // for OpCall: function or builtin name
	Args    []int  // for OpCall: argument registers
	Targets [2]int // for OpBr/OpCondBr: block indices
	Pos     int32  // source line (for fault reports and crash triage)
	// SanElide marks an OpLoad/OpStore whose shadow check the static
	// elision analysis proved unnecessary; SanitizerPass sets it instead
	// of inserting an OpSanCheck, and CLX113 audits that every access in
	// a sanitized module is either checked or so marked.
	SanElide bool
	// TrackElide marks an allocation call (closurex_malloc/closurex_calloc)
	// whose chunk the interprocedural lifetime analysis proved freed on
	// every path to iteration end — its chunk-map tracking can be elided.
	// InterprocPass sets it; CLX114 audits that every mark is provable.
	TrackElide bool
	// FileElide is TrackElide's analogue for closurex_fopen sites whose
	// descriptor is provably closed before iteration end.
	FileElide bool
	// CalleeIdx caches OpCall resolution, stamped at module-commit time by
	// Module.ResolveCalls so the VM pays no string-map lookup per call: 0 means unresolved (execute via name lookup),
	// +k means Module.Funcs[k-1], -k means slot k-1 of the canonical
	// builtin table (the builtin names in ascending order). Any call-site
	// rewrite clears it; CLX122 verifies a non-zero index still matches
	// Callee.
	CalleeIdx int
}

// IsTerminator reports whether the instruction ends a basic block.
func (in *Instr) IsTerminator() bool {
	switch in.Op {
	case OpRet, OpBr, OpCondBr, OpUnreachable:
		return true
	}
	return false
}

// Block is a basic block: straight-line instructions ending in one
// terminator.
type Block struct {
	Instrs []Instr
}

// Terminator returns the block's final instruction, or nil if the block is
// empty or unterminated.
func (b *Block) Terminator() *Instr {
	if len(b.Instrs) == 0 {
		return nil
	}
	t := &b.Instrs[len(b.Instrs)-1]
	if !t.IsTerminator() {
		return nil
	}
	return t
}

// Func is a function: a register count, a byte-addressable frame for locals
// whose address is taken, and basic blocks. Parameters arrive in registers
// 0..NumParams-1. Block 0 is the entry.
type Func struct {
	Name      string
	NumParams int
	NumRegs   int
	FrameSize int64 // bytes of addressable locals (arrays, &x)
	Blocks    []*Block
}

// Global is a module-level variable. Section is the linker section the
// variable is placed in; GlobalPass rewrites it exactly as the paper's pass
// calls setSection in LLVM.
type Global struct {
	Name    string
	Size    int64
	Init    []byte // initializer bytes; shorter than Size means zero-fill
	Const   bool   // isConstant() in the paper's GlobalPass
	Section string // ".data" until a pass says otherwise
}

// Well-known section names.
const (
	SectionData    = ".data"
	SectionRodata  = ".rodata"
	SectionClosure = "closure_global_section"
)

// InterprocInfo records what the interprocedural mod/ref + lifetime
// analysis proved about a module. InterprocPass stamps it; the harness
// consumes MayWriteGlobals to scope snapshot/restore/watchdog work to the
// byte ranges the target can actually dirty, and interproc.Audit (CLX114,
// CLX117) re-derives every claim from scratch to reject unsound elisions.
// InterprocBudgetCap is the largest per-execution instruction budget under
// which the interprocedural analysis' elision claims are sound. The
// mod/ref fallback for loop-carried pointer arithmetic proves stores
// heap-directed via a counting argument — an accumulator grows by at most
// 2^32 per executed instruction, so offsets stay below int64 wraparound
// only while executions run at most 2^26 instructions. The harness
// refuses to arm restore elision on a VM with a larger budget.
const InterprocBudgetCap = int64(1) << 26

type InterprocInfo struct {
	// MayWriteGlobals lists indices of globals some function reachable
	// from target_main/closurex_init may write (sorted ascending).
	// Globals absent from the list are provably clean each iteration.
	MayWriteGlobals []int
	// WholeSection is set when the analysis could not bound global writes
	// (unknown pointer stores, call-graph holes): every global must be
	// treated as may-written and no restore scoping is sound.
	WholeSection bool
	// AllocSites / AllocElided count allocation call sites and how many
	// carry TrackElide; FileSites / FileElided likewise for fopen sites.
	AllocSites  int
	AllocElided int
	FileSites   int
	FileElided  int
}

// Module is a translation unit: globals plus functions.
type Module struct {
	Name    string
	Globals []*Global
	Funcs   []*Func

	// Sanitized records that SanitizerPass has run: every load/store is
	// either preceded by an OpSanCheck or carries SanElide (verified by
	// CLX113), and the VM may expect shadow state to be armed.
	Sanitized bool

	// Interproc holds the interprocedural analysis results when
	// InterprocPass has run; nil means no elision metadata (full restore).
	Interproc *InterprocInfo

	funcIdx map[string]int
	// callsResolved records that ResolveCalls has stamped every OpCall's
	// CalleeIdx since the last mutation that could invalidate one.
	callsResolved bool
}

// NewModule returns an empty module.
func NewModule(name string) *Module {
	return &Module{Name: name, funcIdx: make(map[string]int)}
}

// AddGlobal appends a global and returns its index (the operand of
// OpGlobalAddr).
func (m *Module) AddGlobal(g *Global) int {
	if g.Section == "" {
		g.Section = SectionData
	}
	m.Globals = append(m.Globals, g)
	return len(m.Globals) - 1
}

// GlobalIndex returns the index of the named global, or -1.
func (m *Module) GlobalIndex(name string) int {
	for i, g := range m.Globals {
		if g.Name == name {
			return i
		}
	}
	return -1
}

// AddFunc appends a function. Duplicate names are rejected.
func (m *Module) AddFunc(f *Func) error {
	if _, dup := m.funcIdx[f.Name]; dup {
		return fmt.Errorf("ir: duplicate function %q", f.Name)
	}
	m.funcIdx[f.Name] = len(m.Funcs)
	m.Funcs = append(m.Funcs, f)
	// Existing indices stay valid, but calls naming the new function may
	// now resolve where they previously could not.
	m.callsResolved = false
	return nil
}

// Func returns the named function, or nil.
func (m *Module) Func(name string) *Func {
	i, ok := m.funcIdx[name]
	if !ok {
		return nil
	}
	return m.Funcs[i]
}

// FuncIndex returns the position of the named function in Funcs, or -1.
// It is the resolution CalleeIdx caches (+index−1), so checkers comparing
// the cache against the name go through this single accessor.
func (m *Module) FuncIndex(name string) int {
	i, ok := m.funcIdx[name]
	if !ok {
		return -1
	}
	return i
}

// RenameFunc renames a function and rewrites every direct call site — the
// combination of setName and replaceAllUsesWith the paper's RenameMainPass
// performs.
func (m *Module) RenameFunc(from, to string) error {
	i, ok := m.funcIdx[from]
	if !ok {
		return fmt.Errorf("ir: no function %q", from)
	}
	if _, dup := m.funcIdx[to]; dup {
		return fmt.Errorf("ir: rename target %q already exists", to)
	}
	m.Funcs[i].Name = to
	delete(m.funcIdx, from)
	m.funcIdx[to] = i
	m.rewriteCalls(from, to)
	return nil
}

// RewriteCalls redirects every call of `from` to `to` without renaming any
// function definition — the replaceAllUsesWith step used by HeapPass,
// FilePass and ExitPass when they splice in wrapper routines.
func (m *Module) RewriteCalls(from, to string) int {
	return m.rewriteCalls(from, to)
}

func (m *Module) rewriteCalls(from, to string) int {
	n := 0
	for _, f := range m.Funcs {
		for _, b := range f.Blocks {
			for i := range b.Instrs {
				in := &b.Instrs[i]
				if in.Op == OpCall && in.Callee == from {
					in.Callee = to
					in.CalleeIdx = 0
					n++
				}
			}
		}
	}
	if n > 0 {
		m.callsResolved = false
	}
	return n
}

// ResolveCalls stamps every OpCall's CalleeIdx: +k for Funcs[k-1], -k for
// builtin slot k-1 as reported by builtinIndex (which must return the
// callee's position in the canonical — ascending-name — builtin order, or
// a negative value for non-builtins), 0 when the callee resolves to
// neither. Run it once at module-commit time, after the last call-site
// rewrite; the VM then dispatches calls by index instead of a per-call
// string-map lookup. Returns the number of call sites resolved.
func (m *Module) ResolveCalls(builtinIndex func(name string) int) int {
	n := 0
	for _, f := range m.Funcs {
		for _, b := range f.Blocks {
			for i := range b.Instrs {
				in := &b.Instrs[i]
				if in.Op != OpCall {
					continue
				}
				in.CalleeIdx = 0
				if fi, ok := m.funcIdx[in.Callee]; ok {
					in.CalleeIdx = fi + 1
					n++
				} else if builtinIndex != nil {
					if bi := builtinIndex(in.Callee); bi >= 0 {
						in.CalleeIdx = -(bi + 1)
						n++
					}
				}
			}
		}
	}
	m.callsResolved = true
	return n
}

// CallsResolved reports whether ResolveCalls has run since the last
// mutation that could invalidate a cached CalleeIdx. Callers use it to
// skip a redundant (and, post-commit, racy) re-resolution.
func (m *Module) CallsResolved() bool { return m.callsResolved }

// Clone deep-copies the module so a pass pipeline can instrument one copy
// while the pristine module remains available (e.g. for the fresh-process
// ground truth in the correctness study).
func (m *Module) Clone() *Module {
	nm := NewModule(m.Name)
	nm.Sanitized = m.Sanitized
	nm.callsResolved = m.callsResolved
	if m.Interproc != nil {
		info := *m.Interproc
		info.MayWriteGlobals = append([]int(nil), m.Interproc.MayWriteGlobals...)
		nm.Interproc = &info
	}
	for _, g := range m.Globals {
		ng := *g
		ng.Init = append([]byte(nil), g.Init...)
		nm.Globals = append(nm.Globals, &ng)
	}
	for _, f := range m.Funcs {
		nf := &Func{
			Name:      f.Name,
			NumParams: f.NumParams,
			NumRegs:   f.NumRegs,
			FrameSize: f.FrameSize,
		}
		for _, b := range f.Blocks {
			nb := &Block{Instrs: make([]Instr, len(b.Instrs))}
			copy(nb.Instrs, b.Instrs)
			for i := range nb.Instrs {
				if nb.Instrs[i].Args != nil {
					nb.Instrs[i].Args = append([]int(nil), nb.Instrs[i].Args...)
				}
			}
			nf.Blocks = append(nf.Blocks, nb)
		}
		nm.funcIdx[nf.Name] = len(nm.Funcs)
		nm.Funcs = append(nm.Funcs, nf)
	}
	return nm
}

// NumBlocks returns the total basic-block count across all functions (the
// denominator for edge-coverage percentages).
func (m *Module) NumBlocks() int {
	n := 0
	for _, f := range m.Funcs {
		n += len(f.Blocks)
	}
	return n
}
