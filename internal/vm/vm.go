// Package vm executes ClosureX IR. It is the stand-in for native execution
// in the paper: a register-machine interpreter over a paged address space,
// with an always-on sanitizer (null/page, heap bounds, use-after-free,
// division by zero, rodata writes, FD exhaustion, hangs) so that the bugs
// the fuzzer plants and finds are the same classes the paper reports.
package vm

import (
	"fmt"
	"sync/atomic"

	"closurex/internal/faultinject"
	"closurex/internal/ir"
	"closurex/internal/mem"
	"closurex/internal/vfs"
)

// DefaultBudget bounds a single execution to this many interpreted
// instructions before it is declared a hang.
const DefaultBudget = 4_000_000

// DefaultMaxDepth bounds the call stack.
const DefaultMaxDepth = 200

// aslrCounter feeds the per-VM PRNG seed, emulating the run-to-run
// nondeterminism (ASLR, time seeds) that the paper's correctness study has
// to mask out for freetype.
var aslrCounter atomic.Uint64

// Options configures VM construction. The zero value is a fresh image
// with the default budget, no coverage map, no image pages and a fresh
// rand()/ASLR seed on the interpreter. The call depth is bounded by
// DefaultMaxDepth, resident pages by mem.DefaultPageLimit and open
// descriptors by vfs.DefaultFDLimit.
type Options struct {
	// CovMap, when non-nil, receives AFL-style hit counts; it must be
	// CovMapSize bytes long or New fails. A map from NewCovMap also gets
	// its touched-cell index kept (see CovIndexOf): every probe that bumps
	// a cell from zero lists the cell, so consumers read only those cells.
	// Any other map works too; its VM keeps a private index nobody reads.
	CovMap []byte
	// Budget overrides DefaultBudget when > 0.
	Budget int64
	// Files pre-populates the virtual filesystem.
	Files map[string][]byte
	// ImagePages materializes that many resident pages of simulated
	// program image (text + static data) at TextBase, modeling the
	// executable sizes of Table 4. Loading them is part of fresh-process
	// cost; their page-table entries are part of fork cost.
	ImagePages int
	// DeterministicRand pins the rand() builtin's seed (used by the
	// correctness study's ground-truth runs); when false each VM gets a
	// fresh seed, modeling real process-level nondeterminism.
	DeterministicRand bool
	RandSeed          uint64
	// TraceEdges enables path-sensitive edge tracing (control-flow
	// equivalence checks, §6.1.4). Costs time; off during fuzzing.
	TraceEdges bool
	// Injector arms deterministic fault injection in the heap, the
	// filesystem and the restore steps of a harness over this VM or its
	// forks (resilience tests); nil injects nothing.
	Injector *faultinject.Injector
	// Sanitize attaches the ASan-style shadow plane to the heap so
	// OpSanCheck instructions (SanitizerPass) classify bad accesses with
	// allocation/free sites. Modules instrumented with -sanitize should
	// run on a VM built with this on; without it the checks are no-ops.
	Sanitize bool
}

// Result describes one completed call into the target.
type Result struct {
	Ret      int64  // return value (0 if exited or faulted)
	Exited   bool   // the target called exit()
	ExitCode int64  // exit status when Exited
	Fault    *Fault // non-nil if the sanitizer fired
	Instrs   int64  // instructions interpreted
	PathHash uint64 // FNV over the edge sequence (when TraceEdges)
	PathLen  int    // number of edges traversed (when TraceEdges)
}

// Crashed reports whether the execution ended in a sanitizer fault.
func (r *Result) Crashed() bool { return r.Fault != nil }

// VM is one simulated process image: module + memory + heap + files.
type VM struct {
	Mod    *ir.Module
	Layout *Layout
	Mem    *mem.Memory
	Heap   *mem.Heap
	FS     *vfs.FS

	prog *program // Mod decoded at New; shared read-only with every fork

	covMap  []byte            // full-capacity map, as EngineCov returns it
	cov     *[CovMapSize]byte // covMap as an array: OpCov's bounds-check-free view
	covIdx  *CovIndex         // covMap's touched-cell index (see bindCov)
	prevLoc uint64

	budget    int64
	maxBudget int64
	depth     int
	sp        uint64 // next free frame byte in the stack segment

	traceEdges bool
	pathHash   uint64
	pathLen    int

	// rngState is the rand() builtin's xorshift state. detRand records
	// Options.DeterministicRand so Fork can copy the state into the child,
	// as a real fork does, instead of drawing fresh process entropy.
	rngState uint64
	detRand  bool

	// Stdout captures target output (bounded).
	Stdout []byte

	instrs int64

	curFn *ir.Func

	// regPool reuses register frames per call depth, avoiding a heap
	// allocation on every target function call.
	regPool [][]int64
	// argPool reuses argument-staging buffers per call depth, for calls
	// with more arguments than the stack buffer holds; same lifecycle
	// argument as regPool (consumed before any same-depth reuse).
	argPool [][]int64
	// scratch holds the builtins' staging buffers (strings walked, regions
	// read, fread transfers), two so a builtin can hold both operands of
	// a comparison. Each is reused up to scratchKeep bytes, so
	// steady-state builtins are allocation-free.
	scratch [2][]byte
	// exit is the value exit() unwinds with, reused for the same reason.
	exit exitUnwind

	// spare is shared by a template and every fork of it: the register
	// frames, staging buffers and output buffer the last released fork
	// gave back, for the next Fork to start from. Nil until the first
	// Fork. Like the memory free list it is not locked.
	spare *vmSpare
}

// vmSpare is the per-VM storage a released image hands on.
type vmSpare struct {
	regPool, argPool [][]int64
	scratch          [2][]byte
	stdout           []byte
}

// New builds a process image for mod: lays out globals, writes their
// initializers, decodes the functions into the interpreter's stream, and
// prepares heap, stack and filesystem. This is the expensive "load the
// binary" step that fresh-process fuzzing repeats for every test case.
//
// A VM runs mod's code as it was at New, as a process runs the binary it
// loaded: changing mod's functions afterwards does not change what this
// VM, or a fork of it, executes.
func New(mod *ir.Module, opts Options) (*VM, error) {
	lay := NewLayout(mod)
	if lay.End >= HeapBase {
		return nil, fmt.Errorf("vm: globals image too large: ends at %#x", lay.End)
	}
	v := &VM{
		Mod:        mod,
		Layout:     lay,
		prog:       decode(mod, lay),
		Mem:        mem.NewMemory(),
		maxBudget:  opts.Budget,
		traceEdges: opts.TraceEdges,
		detRand:    opts.DeterministicRand,
	}
	if v.maxBudget <= 0 {
		v.maxBudget = DefaultBudget
	}
	if err := v.bindCov(opts.CovMap); err != nil {
		return nil, err
	}
	if opts.DeterministicRand {
		// splitmix64 scramble: adjacent seeds must yield independent
		// streams (raw xorshift keeps low-bit correlations for small,
		// arithmetic-progression seeds).
		z := opts.RandSeed + 0x9e3779b97f4a7c15
		z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
		z = (z ^ (z >> 27)) * 0x94d049bb133111eb
		v.rngState = (z ^ (z >> 31)) | 1
	} else {
		v.rngState = aslrCounter.Add(0x9e3779b97f4a7c15) | 1
	}
	v.Heap = mem.NewHeap(v.Mem, HeapBase, HeapEnd)
	// Heap ASLR: every process image allocates from a base jittered across
	// 8 MiB, so heap addresses stored into globals vary across fresh
	// executions — the natural nondeterminism the paper's correctness
	// study identifies and masks. The span deliberately exceeds any
	// drift a long-lived persistent process accumulates, as real ASLR
	// entropy does. Deterministic seeds give deterministic bases.
	v.Heap.Shift((v.rand() % (1 << 19)) * 16)
	if opts.Sanitize {
		// Attach after Shift so the shadow plane's base matches the
		// randomized allocation base. Sparse: only the page index is
		// allocated here and pages materialize on first allocation,
		// keeping fresh-process and sentinel VMs cheap.
		v.Heap.AttachShadow()
	}
	v.Heap.SetInjector(opts.Injector)
	v.FS = vfs.New()
	v.FS.SetInjector(opts.Injector)
	for p, d := range opts.Files {
		v.FS.WriteFile(p, d)
	}
	v.sp = StackBase
	if err := v.writeGlobalInitializers(); err != nil {
		return nil, err
	}
	if err := v.materializeImage(opts.ImagePages); err != nil {
		return nil, err
	}
	return v, nil
}

// MaxBudget reports the per-execution instruction budget. The harness
// compares it against ir.InterprocBudgetCap before arming restore
// elision — the static analysis' no-wraparound argument only covers
// executions up to that length.
func (v *VM) MaxBudget() int64 { return v.maxBudget }

// materializeImage loads n pages of simulated program image at TextBase,
// the analogue of the loader mapping the executable and its static data.
func (v *VM) materializeImage(n int) error {
	if n <= 0 {
		return nil
	}
	var pattern [mem.PageSize]byte
	for i := range pattern {
		pattern[i] = byte(i * 7)
	}
	for p := 0; p < n; p++ {
		if err := v.Mem.Write(TextBase+uint64(p)*mem.PageSize, pattern[:]); err != nil {
			return fmt.Errorf("vm: image page %d: %w", p, err)
		}
	}
	return nil
}

func (v *VM) writeGlobalInitializers() error {
	for gi, g := range v.Mod.Globals {
		addr := v.Layout.GlobalAddr[gi]
		if len(g.Init) > 0 {
			if err := v.Mem.Write(addr, g.Init); err != nil {
				return fmt.Errorf("vm: init global %s: %w", g.Name, err)
			}
		}
	}
	return nil
}

// SetTraceEdges toggles path-sensitive tracing.
func (v *VM) SetTraceEdges(on bool) { v.traceEdges = on }

// SetInput installs the test case at vfs.InputPath.
func (v *VM) SetInput(data []byte) { v.FS.SetInput(data) }

// Fork clones the image copy-on-write — the forkserver's per-test-case
// step. The returned child shares pages with the parent until written.
// Under DeterministicRand the child inherits the parent's rand() state;
// otherwise it draws fresh entropy, modeling per-process time seeds. The
// heap-ASLR base is always inherited, as a real fork() does. The child has
// no section watch window (see mem.Memory.Fork); harness.Fork re-arms it.
//
// The child's frames, page tables, register frames, buffers and
// filesystem storage come from what released forks of v (or of its
// forks) gave back, as a kernel recycles a dead process's pages. Forks of one template must therefore
// be forked, run and released on one goroutine at a time.
func (v *VM) Fork() *VM {
	if v.spare == nil {
		v.spare = new(vmSpare)
	}
	sp := v.spare
	cm := v.Mem.Fork()
	child := &VM{
		Mod:        v.Mod,
		Layout:     v.Layout,
		prog:       v.prog,
		Mem:        cm,
		Heap:       v.Heap.Clone(cm),
		FS:         v.FS.Clone(),
		covMap:     v.covMap,
		cov:        v.cov,
		covIdx:     v.covIdx, // the child shares the map, so its index too
		maxBudget:  v.maxBudget,
		traceEdges: v.traceEdges,
		rngState:   v.rngState,
		detRand:    v.detRand,
		sp:         v.sp,
		regPool:    sp.regPool,
		argPool:    sp.argPool,
		scratch:    sp.scratch,
		Stdout:     sp.stdout[:0],
		spare:      sp,
	}
	*sp = vmSpare{}
	if !v.detRand {
		child.rngState = aslrCounter.Add(0x9e3779b97f4a7c15) | 1
	}
	return child
}

// Release tears the image down: its pages, page tables, heap bookkeeping
// and filesystem go back to the template's free lists (see Fork), and so
// do its register frames and buffers. The image is unusable afterwards:
// Mem, Heap and FS are nil, so a use after release panics instead of
// aliasing the storage of the next fork.
func (v *VM) Release() {
	v.Mem.Release()
	v.Heap.Release()
	v.FS.Release()
	if v.spare != nil {
		*v.spare = vmSpare{regPool: v.regPool, argPool: v.argPool, scratch: v.scratch, stdout: v.Stdout[:0]}
	}
	v.Mem, v.Heap, v.FS = nil, nil, nil
	v.regPool, v.argPool, v.scratch, v.Stdout = nil, nil, [2][]byte{}, nil
}

// RestoreFromSnapshot rolls this image back to the template it was forked
// from: dirty pages are re-shared or unmapped (O(dirty)), and heap and
// descriptor bookkeeping is re-cloned. This is the kernel-snapshot restore
// (AFL++ Snapshot LKM): cheaper than a fresh fork, but page-granular.
func (v *VM) RestoreFromSnapshot(template *VM) {
	v.Mem.RestoreTo(template.Mem)
	v.Heap.Release()
	v.Heap = template.Heap.Clone(v.Mem)
	v.FS.Release()
	v.FS = template.FS.Clone()
	v.sp = template.sp
	v.Stdout = v.Stdout[:0]
}

// Call invokes the named function with args as one execution: the budget,
// coverage context and capture buffers are reset first.
func (v *VM) Call(name string, args ...int64) Result {
	fi := v.Mod.FuncIndex(name)
	if fi < 0 || fi >= len(v.prog.funcs) {
		return Result{Fault: &Fault{Kind: FaultBadCall, Fn: name, Msg: "no such function"}}
	}
	v.budget = v.maxBudget
	v.prevLoc = 0
	v.pathHash = 14695981039346656037 // FNV offset basis
	v.pathLen = 0
	v.instrs = 0
	v.depth = 0
	v.Stdout = v.Stdout[:0]

	ret, err := v.execFunc(&v.prog.funcs[fi], args)
	res := Result{Ret: ret, Instrs: v.instrs, PathHash: v.pathHash, PathLen: v.pathLen}
	switch e := err.(type) {
	case nil:
	case *exitUnwind:
		res.Ret = 0
		res.Exited = true
		res.ExitCode = e.code
	case *Fault:
		res.Ret = 0
		res.Fault = e
	default:
		res.Fault = &Fault{Kind: FaultWild, Fn: name, Msg: err.Error()}
	}
	return res
}

// SnapshotGlobals copies the entire globals image (every section) — the
// dataflow-equivalence comparand in the correctness study.
func (v *VM) SnapshotGlobals() []byte {
	n := int(v.Layout.End - GlobalsBase)
	buf := make([]byte, n)
	_ = v.Mem.ReadInto(GlobalsBase, buf)
	return buf
}

// SnapshotSection copies one named section.
func (v *VM) SnapshotSection(name string) ([]byte, bool) {
	s, ok := v.Layout.Section(name)
	if !ok {
		return nil, false
	}
	buf := make([]byte, s.Size)
	_ = v.Mem.ReadInto(s.Addr, buf)
	return buf, true
}

// SnapshotSectionInto reads the named section into buf (reusing buf's
// backing array when it is large enough) and returns the filled slice.
// This is the allocation-free variant the harness watchdog uses on every
// periodic verification.
func (v *VM) SnapshotSectionInto(name string, buf []byte) ([]byte, bool) {
	s, ok := v.Layout.Section(name)
	if !ok {
		return nil, false
	}
	n := int(s.Size)
	if cap(buf) < n {
		buf = make([]byte, n)
	}
	buf = buf[:n]
	_ = v.Mem.ReadInto(s.Addr, buf)
	return buf, true
}

// WatchSection arms the memory write barrier over the named section so
// writes to it are tracked at page granularity. Returns false when the
// section does not exist (nothing to track).
func (v *VM) WatchSection(name string) bool {
	s, ok := v.Layout.Section(name)
	if !ok || s.Size == 0 {
		return false
	}
	v.Mem.Watch(s.Addr, s.Size)
	return true
}

// RestoreSectionDirty writes data back over the bytes of the named section
// that lie both inside scope, a list of section-relative ranges, and on a
// page dirtied since the last watch reset: the harness's global-restore
// step. The harness passes the single range {0, len(data)} to restore the
// whole section, or the elision ranges to restore only what the target
// may write; an empty scope restores nothing. Every range must lie inside
// the section. It requires WatchSection to have been armed over the
// section; the returned byte count is the data actually copied (the
// paper's restore-bandwidth metric). The watch window is reset afterwards
// so the next execution starts with a clean dirty set.
func (v *VM) RestoreSectionDirty(name string, data []byte, scope []ByteRange) (int, bool) {
	s, ok := v.Layout.Section(name)
	if !ok || uint64(len(data)) != s.Size {
		return 0, false
	}
	copied := 0
	for _, pn := range v.Mem.WatchedDirty() {
		plo := pn << mem.PageShift
		phi := plo + mem.PageSize
		for _, r := range scope {
			lo, hi := s.Addr+r.Lo, s.Addr+r.Hi
			if lo < plo {
				lo = plo
			}
			if hi > phi {
				hi = phi
			}
			if lo >= hi {
				continue
			}
			_ = v.Mem.Write(lo, data[lo-s.Addr:hi-s.Addr])
			copied += int(hi - lo)
		}
	}
	v.Mem.ResetWatch()
	return copied, true
}

// RestoreSection writes bytes back over the named section (the harness's
// global-restore step, Figure 4).
func (v *VM) RestoreSection(name string, data []byte) bool {
	s, ok := v.Layout.Section(name)
	if !ok || uint64(len(data)) != s.Size {
		return false
	}
	_ = v.Mem.Write(s.Addr, data)
	return true
}

// ByteRange is one half-open byte span [Lo, Hi), relative to the start of
// the section it scopes.
type ByteRange struct{ Lo, Hi uint64 }

// ElisionRanges maps the module's interprocedural may-write metadata onto
// the named section: the merged, ascending section-relative byte ranges
// covering every global some reachable function may write. ok is false
// when the module carries no metadata, the analysis could not bound the
// write set (WholeSection), or the section does not exist — in all three
// cases the caller must restore the whole section.
func (v *VM) ElisionRanges(name string) ([]ByteRange, bool) {
	info := v.Mod.Interproc
	if info == nil || info.WholeSection {
		return nil, false
	}
	s, ok := v.Layout.Section(name)
	if !ok {
		return nil, false
	}
	var out []ByteRange
	// MayWriteGlobals is sorted by global index and the layout assigns
	// ascending addresses in index order within a section, so the filtered
	// ranges arrive in ascending order and adjacent ones merge in place.
	for _, gi := range info.MayWriteGlobals {
		if gi < 0 || gi >= len(v.Mod.Globals) || v.Mod.Globals[gi].Section != name {
			continue
		}
		lo := v.Layout.GlobalAddr[gi] - s.Addr
		hi := lo + uint64(v.Mod.Globals[gi].Size)
		if hi > s.Size {
			hi = s.Size
		}
		if n := len(out); n > 0 && lo <= out[n-1].Hi {
			if hi > out[n-1].Hi {
				out[n-1].Hi = hi
			}
			continue
		}
		out = append(out, ByteRange{lo, hi})
	}
	return out, true
}

// ReadCString reads a NUL-terminated string from target memory (bounded).
func (v *VM) ReadCString(addr uint64) (string, error) {
	const maxLen = 4096
	var out []byte
	for i := 0; i < maxLen; i++ {
		b, err := v.Mem.LoadByte(addr + uint64(i))
		if err != nil {
			return "", err
		}
		if b == 0 {
			return string(out), nil
		}
		out = append(out, b)
	}
	return "", fmt.Errorf("vm: unterminated string at %#x", addr)
}

// appendStdout captures target output, bounded to 64 KiB per execution.
func (v *VM) appendStdout(b []byte) {
	const cap = 64 << 10
	if len(v.Stdout) >= cap {
		return
	}
	if len(v.Stdout)+len(b) > cap {
		b = b[:cap-len(v.Stdout)]
	}
	v.Stdout = append(v.Stdout, b...)
}

// rand steps the xorshift PRNG backing the rand() builtin.
func (v *VM) rand() uint64 {
	x := v.rngState
	x ^= x << 13
	x ^= x >> 7
	x ^= x << 17
	v.rngState = x
	return x
}
