package vm

import (
	"fmt"
	"sort"

	"closurex/internal/ir"
)

// This file is the execution-backend seam: a registry of pluggable
// engines (vm/compile registers the closure-chain backend here), the
// canonical indexed builtin table shared by call pre-resolution, and the
// bridge accessors an out-of-package engine needs to execute with
// bit-identical semantics — pointer access to the per-execution
// accounting state plus wrappers over the interpreter's access checker,
// shadow checker, fault constructor and binop evaluator. The interpreter
// remains the reference implementation; an engine is only correct if no
// observable field of Result, the coverage bitmap, or memory diverges
// from it.

// InterpBackend names the default switch-dispatch interpreter backend.
const InterpBackend = "interp"

// Engine executes target functions on behalf of a VM. Exec is invoked by
// VM.Call after the per-execution state reset, with the same contract as
// the interpreter's execFunc: it returns the function's return value, or
// an error that is a *Fault, the exit unwind, or an internal failure.
type Engine interface {
	Exec(f *ir.Func, args []int64) (int64, error)
}

// backends is the registry of engine constructors, keyed by backend name.
// Populated by RegisterBackend from backend packages' init functions.
var backendRegistry = map[string]func(*VM) (Engine, error){}

// RegisterBackend installs an engine constructor under name. Backend
// packages call it from init(); consumers arm the backend by importing
// the package (for side effect) and setting Options.Backend.
func RegisterBackend(name string, mk func(*VM) (Engine, error)) {
	if name == "" || name == InterpBackend {
		panic("vm: backend name reserved: " + name)
	}
	backendRegistry[name] = mk
}

// Backends lists the registered backend names, the interpreter first.
func Backends() []string {
	out := []string{InterpBackend}
	var rest []string
	for name := range backendRegistry {
		rest = append(rest, name)
	}
	sort.Strings(rest)
	return append(out, rest...)
}

// bindEngine attaches the named backend's engine to v ("" and "interp"
// leave the interpreter in place).
func (v *VM) bindEngine(name string) error {
	if name == "" || name == InterpBackend {
		return nil
	}
	mk, ok := backendRegistry[name]
	if !ok {
		return fmt.Errorf("vm: unknown backend %q (have %v; import its package?)", name, Backends())
	}
	eng, err := mk(v)
	if err != nil {
		return fmt.Errorf("vm: backend %s: %w", name, err)
	}
	v.engine = eng
	v.backend = name
	return nil
}

// Backend reports the active execution backend's name.
func (v *VM) Backend() string {
	if v.engine == nil {
		return InterpBackend
	}
	return v.backend
}

// ---- canonical builtin table ----

// The canonical builtin order is the builtin names sorted ascending. It is
// derivable from the name set alone, so ir.Module.ResolveCalls (via
// BuiltinIndex), the verifier's CLX122 check (which only sees the
// map[string]bool set) and the execution backends all agree on slot
// numbering without sharing a package.
var (
	builtinNames []string       // ascending
	builtinSlots []builtinFn    // aligned with builtinNames
	builtinIdx   map[string]int // name -> slot
)

// initBuiltinTable builds the indexed table; called from init() in
// builtins.go right after the builtins map is populated.
func initBuiltinTable() {
	builtinNames = make([]string, 0, len(builtins))
	for name := range builtins {
		builtinNames = append(builtinNames, name)
	}
	sort.Strings(builtinNames)
	builtinSlots = make([]builtinFn, len(builtinNames))
	builtinIdx = make(map[string]int, len(builtinNames))
	for i, name := range builtinNames {
		builtinSlots[i] = builtins[name]
		builtinIdx[name] = i
	}
}

// BuiltinIndex returns name's slot in the canonical builtin order, or -1
// when name is not a builtin. This is the resolver ResolveModule feeds to
// ir.Module.ResolveCalls.
func BuiltinIndex(name string) int {
	i, ok := builtinIdx[name]
	if !ok {
		return -1
	}
	return i
}

// ResolveModule stamps every OpCall's CalleeIdx against the module's
// function table and the canonical builtin order. Idempotent: a module
// whose resolution is still valid is left untouched, which also makes the
// call race-free when a shard-supervisor rebuild re-checks a module other
// shards are executing.
func ResolveModule(m *ir.Module) {
	if m == nil || m.CallsResolved() {
		return
	}
	m.ResolveCalls(BuiltinIndex)
}

// CallBuiltinIndexed invokes builtin slot idx (from a negative CalleeIdx:
// slot = -CalleeIdx - 1). The caller must pass a valid slot.
func (v *VM) CallBuiltinIndexed(idx int, in *ir.Instr, args []int64) (int64, error) {
	return builtinSlots[idx](v, in, args)
}

// ---- engine bridge ----

// EngineHooks gives an execution backend pointer access to the VM's
// per-execution accounting state, so a compiled tier mutates exactly the
// cells the interpreter would: the instruction budget and count, the
// coverage chain state (prevLoc, path hash/length), the stack frontier
// and call depth the access checker validates against, and the current
// function pointer fault reports and allocation-site notes read. Cov and
// CovIdx are the coverage map and its touched-line index, fixed at
// construction: a probe bumps Cov[idx] and sets CovIdx[idx>>CovLineShift].
type EngineHooks struct {
	Budget   *int64
	Instrs   *int64
	PrevLoc  *uint64
	PathHash *uint64
	PathLen  *int
	SP       *uint64
	Depth    *int
	CurFn    **ir.Func
	Cov      *[CovMapSize]byte
	CovIdx   *[CovIndexSize]byte
}

// Hooks returns the bridge into v's per-execution state. The pointers are
// stable for the VM's lifetime.
func (v *VM) Hooks() EngineHooks {
	return EngineHooks{
		Budget:   &v.budget,
		Instrs:   &v.instrs,
		PrevLoc:  &v.prevLoc,
		PathHash: &v.pathHash,
		PathLen:  &v.pathLen,
		SP:       &v.sp,
		Depth:    &v.depth,
		CurFn:    &v.curFn,
		Cov:      (*[CovMapSize]byte)(v.covMap),
		CovIdx:   v.covIdx,
	}
}

// EngineCov returns the coverage map bound at construction (always
// non-nil: VMs built without an external map carry a scratch one), with
// its capacity intact so CovIndex still finds the index.
func (v *VM) EngineCov() []byte { return v.covMap }

// EngineTrace reports whether path-sensitive edge tracing is armed.
func (v *VM) EngineTrace() bool { return v.traceEdges }

// EngineCheckAccess classifies and validates an n-byte access exactly as
// the interpreter's load/store path does.
func (v *VM) EngineCheckAccess(addr uint64, n int, store bool, in *ir.Instr) *Fault {
	return v.checkAccess(addr, n, store, in)
}

// EngineSanCheck runs one OpSanCheck's shadow consultation.
func (v *VM) EngineSanCheck(addr uint64, in *ir.Instr) *Fault {
	return v.sanCheck(addr, in)
}

// NewFault constructs a fault at the current function, as the
// interpreter's internal fault helper does.
func (v *VM) NewFault(kind FaultKind, in *ir.Instr, addr uint64, msg string) *Fault {
	return v.fault(kind, in, addr, msg)
}

// EngineBinop evaluates an OpBin with the interpreter's exact semantics
// (including the division fault cases and MinInt64 edge handling).
func (v *VM) EngineBinop(in *ir.Instr, a, b int64) (int64, *Fault) {
	return v.binop(in, a, b)
}

// ---- per-site access-check memoization ----

// AccMode classifies what an AccessCache slot has proven about its site.
type AccMode uint8

const (
	// AccMiss is the zero value: nothing proven, revalidate.
	AccMiss AccMode = iota
	// AccWindow: any access of this site's kind inside [Lo, Hi) is valid,
	// unconditionally (globals; the window is static per layout).
	AccWindow
	// AccHeapChunk: accesses inside [Lo, Hi) are valid while the heap
	// chunk map's generation still equals Gen.
	AccHeapChunk
	// AccStack: the site touches the stack segment; an access is valid
	// iff it lies in [StackBase, sp) — rechecked against the live sp
	// every time (sp moves with every call and return).
	AccStack
)

// AccessCache memoizes one load/store site's access-check verdict so the
// compiled tier can skip the full classification (segment dispatch,
// rodata scan, chunk binary search) when the site keeps touching memory
// it already proved valid. A slot belongs to exactly one site and one
// access kind (load or store), which is what makes the cached window
// sound: the revalidation conditions per mode are exactly the conditions
// under which the original verdict was derived. The zero value is an
// always-miss.
type AccessCache struct {
	Lo, Hi uint64
	Gen    uint64
	Mode   AccMode
}

// EngineCheckAccessCached runs the interpreter's exact access check and,
// on success, installs the widest sound revalidation window into c. On
// fault the slot is invalidated. Engines call this on a cache miss only;
// the inline fast path replays c's mode condition.
func (v *VM) EngineCheckAccessCached(c *AccessCache, addr uint64, n int, store bool, in *ir.Instr) *Fault {
	if flt := v.checkAccess(addr, n, store, in); flt != nil {
		c.Mode = AccMiss
		return flt
	}
	switch {
	case addr >= GlobalsBase && addr < HeapBase:
		if store {
			c.Lo, c.Hi = v.Layout.WritableWindow(addr)
		} else {
			c.Lo, c.Hi = GlobalsBase, v.Layout.End
		}
		c.Mode = AccWindow
	case addr >= HeapBase && addr < HeapEnd:
		if ch, ok := v.Heap.ChunkAt(addr); ok {
			c.Lo, c.Hi, c.Gen = ch.Addr, ch.Addr+ch.Size, v.Heap.Gen()
			c.Mode = AccHeapChunk
		} else {
			c.Mode = AccMiss
		}
	case addr >= StackBase && addr < StackEnd:
		c.Mode = AccStack
	default:
		c.Mode = AccMiss
	}
	return nil
}
