package vm

import (
	"bytes"
	"errors"
	"fmt"
	"sort"
	"strconv"

	"closurex/internal/ir"
	"closurex/internal/mem"
	"closurex/internal/vfs"
)

// builtinFn is the signature of a runtime-provided routine.
type builtinFn func(v *VM, in *ir.Instr, args []int64) (int64, error)

// builtins is the C-library surface MinC targets may call. The closurex_*
// names are the wrapper routines the HeapPass/FilePass/ExitPass splice in;
// they behave identically here because the VM's heap and FD table always
// keep the bookkeeping the wrappers exist to provide — what differs between
// mechanisms is whether the harness *uses* that bookkeeping to restore
// state between test cases.
var builtins map[string]builtinFn

// Builtins returns the set of resolvable builtin names, for the verifier
// (analysis.NewBuiltins).
func Builtins() map[string]bool {
	out := make(map[string]bool, len(builtins))
	for name := range builtins {
		out[name] = true
	}
	return out
}

// IsBuiltin reports whether name is a runtime routine.
func IsBuiltin(name string) bool {
	_, ok := builtins[name]
	return ok
}

func init() {
	builtins = map[string]builtinFn{
		"exit":          biExit,
		"closurex_exit": biExit,
		"abort":         biAbort,
		"assert":        biAssert,

		"malloc":           biMalloc,
		"calloc":           biCalloc,
		"realloc":          biRealloc,
		"free":             biFree,
		"closurex_malloc":  biMalloc,
		"closurex_calloc":  biCalloc,
		"closurex_realloc": biRealloc,
		"closurex_free":    biFree,

		"memcpy":  biMemcpy,
		"memmove": biMemcpy,
		"memset":  biMemset,
		"memcmp":  biMemcmp,
		"strlen":  biStrlen,
		"strcmp":  biStrcmp,
		"strncmp": biStrncmp,
		"strcpy":  biStrcpy,

		"fopen":           biFopen,
		"fclose":          biFclose,
		"closurex_fopen":  biFopen,
		"closurex_fclose": biFclose,
		"fread":           biFread,
		"fwrite":          biFwrite,
		"fgetc":           biFgetc,
		"fseek":           biFseek,
		"ftell":           biFtell,
		"fsize":           biFsize,

		"puts":      biPuts,
		"putchar":   biPutchar,
		"print_int": biPrintInt,

		"rand":  biRand,
		"srand": biSrand,
	}
	initBuiltinTable()
}

// The canonical builtin order is the builtin names sorted ascending. It is
// derivable from the name set alone, so ir.Module.ResolveCalls (via
// BuiltinIndex) and the verifier's CLX122 check (which only sees the
// map[string]bool set) agree on slot numbering without sharing a package.
var (
	builtinSlots []builtinFn    // aligned with the sorted names
	builtinIdx   map[string]int // name -> slot
)

// initBuiltinTable builds the indexed table; called from init() right
// after the builtins map is populated.
func initBuiltinTable() {
	names := make([]string, 0, len(builtins))
	for name := range builtins {
		names = append(names, name)
	}
	sort.Strings(names)
	builtinSlots = make([]builtinFn, len(names))
	builtinIdx = make(map[string]int, len(names))
	for i, name := range names {
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

func argn(v *VM, in *ir.Instr, args []int64, n int) error {
	if len(args) != n {
		return v.fault(FaultBadCall, in,
			0, fmt.Sprintf("%s: %d args, want %d", in.Callee, len(args), n))
	}
	return nil
}

func biExit(v *VM, in *ir.Instr, args []int64) (int64, error) {
	var code int64
	if len(args) > 0 {
		code = args[0]
	}
	v.exit.code = code
	return 0, &v.exit
}

func biAbort(v *VM, in *ir.Instr, args []int64) (int64, error) {
	return 0, v.fault(FaultAbort, in, 0, "abort()")
}

func biAssert(v *VM, in *ir.Instr, args []int64) (int64, error) {
	if err := argn(v, in, args, 1); err != nil {
		return 0, err
	}
	if args[0] == 0 {
		return 0, v.fault(FaultAbort, in, 0, "assertion failed")
	}
	return 0, nil
}

// heapFault maps allocator errors onto fault kinds. Under -sanitize the
// fault is enriched with the offending chunk's allocation/free history,
// so double-free and invalid-free triage into per-allocation-site buckets
// like shadow-check faults do.
func heapFault(v *VM, in *ir.Instr, addr uint64, err error) *Fault {
	var flt *Fault
	switch {
	case errors.Is(err, mem.ErrDoubleFree):
		flt = v.fault(FaultDoubleFree, in, addr, err.Error())
	case errors.Is(err, mem.ErrBadFree):
		flt = v.fault(FaultBadFree, in, addr, err.Error())
	case errors.Is(err, mem.ErrUseAfterFree):
		flt = v.fault(FaultUseAfterFree, in, addr, err.Error())
	case errors.Is(err, mem.ErrHeapOOB):
		flt = v.fault(FaultHeapOOB, in, addr, err.Error())
	default:
		return v.fault(FaultOOM, in, addr, err.Error())
	}
	if v.Heap.Shadow() != nil {
		rep := &SanReport{Addr: addr}
		if c, freed := v.Heap.QuarantinedAt(addr); freed {
			fillAllocSite(rep, c)
			rep.FreeFn, rep.FreeLine = c.FreeFn, c.FreeLine
		} else if c, live := v.Heap.ChunkAt(addr); live {
			fillAllocSite(rep, c)
		}
		flt.San = rep
	}
	return flt
}

// noteAllocSite records the call site about to enter the allocator, so
// the chunk carries its allocation/free site for sanitizer reports.
func noteAllocSite(v *VM, in *ir.Instr) {
	fn := "?"
	if v.curFn != nil {
		fn = v.curFn.Name
	}
	v.Heap.NoteSite(fn, in.Pos)
	if in.TrackElide {
		v.Heap.NoteElide()
	}
}

func biMalloc(v *VM, in *ir.Instr, args []int64) (int64, error) {
	if err := argn(v, in, args, 1); err != nil {
		return 0, err
	}
	if args[0] < 0 {
		return 0, nil // size_t overflow request: malloc returns NULL
	}
	noteAllocSite(v, in)
	a, err := v.Heap.Alloc(uint64(args[0]))
	if err != nil {
		return 0, nil // NULL; unchecked callers then null-deref
	}
	return int64(a), nil
}

func biCalloc(v *VM, in *ir.Instr, args []int64) (int64, error) {
	if err := argn(v, in, args, 2); err != nil {
		return 0, err
	}
	n, sz := args[0], args[1]
	if n < 0 || sz < 0 || (sz != 0 && n > (1<<40)/max64(sz, 1)) {
		return 0, nil
	}
	noteAllocSite(v, in)
	a, err := v.Heap.AllocZeroed(uint64(n * sz))
	if err != nil {
		return 0, nil
	}
	return int64(a), nil
}

func biRealloc(v *VM, in *ir.Instr, args []int64) (int64, error) {
	if err := argn(v, in, args, 2); err != nil {
		return 0, err
	}
	if args[1] < 0 {
		return 0, nil
	}
	noteAllocSite(v, in)
	a, err := v.Heap.Realloc(uint64(args[0]), uint64(args[1]))
	if err != nil {
		if errors.Is(err, mem.ErrHeapOOM) {
			return 0, nil
		}
		return 0, heapFault(v, in, uint64(args[0]), err)
	}
	return int64(a), nil
}

func biFree(v *VM, in *ir.Instr, args []int64) (int64, error) {
	if err := argn(v, in, args, 1); err != nil {
		return 0, err
	}
	noteAllocSite(v, in)
	if err := v.Heap.Free(uint64(args[0])); err != nil {
		return 0, heapFault(v, in, uint64(args[0]), err)
	}
	return 0, nil
}

// scratchKeep bounds the scratch buffer a VM keeps between builtin calls:
// a larger transfer gets a buffer of its own, so one huge copy does not
// pin its size for the VM's lifetime.
const scratchKeep = 64 << 10

// buffer returns scratch buffer slot resized to n bytes, with arbitrary
// contents; it stays valid until the next use of the same slot.
func (v *VM) buffer(slot, n int) []byte {
	if cap(v.scratch[slot]) < n {
		b := make([]byte, n)
		v.keep(slot, b)
		return b
	}
	return v.scratch[slot][:n]
}

// keep makes b scratch buffer slot's backing array, unless it is larger
// than scratchKeep.
func (v *VM) keep(slot int, b []byte) {
	if cap(b) <= scratchKeep {
		v.scratch[slot] = b
	}
}

// readRegion validates an n-byte read and copies the region into scratch
// buffer slot.
func (v *VM) readRegion(in *ir.Instr, addr uint64, n, slot int) ([]byte, *Fault) {
	if flt := v.checkAccess(addr, n, false, in); flt != nil {
		return nil, flt
	}
	b := v.buffer(slot, n)
	if err := v.Mem.ReadInto(addr, b); err != nil {
		return nil, v.fault(FaultWild, in, addr, err.Error())
	}
	return b, nil
}

func (v *VM) writeRegion(in *ir.Instr, addr uint64, data []byte) *Fault {
	if flt := v.checkAccess(addr, len(data), true, in); flt != nil {
		return flt
	}
	if err := v.Mem.Write(addr, data); err != nil {
		return v.fault(FaultOOM, in, addr, err.Error())
	}
	return nil
}

func biMemcpy(v *VM, in *ir.Instr, args []int64) (int64, error) {
	if err := argn(v, in, args, 3); err != nil {
		return 0, err
	}
	dst, src, n := uint64(args[0]), uint64(args[1]), args[2]
	if n < 0 {
		// The md4c bug class: a negative length converted to size_t.
		return 0, v.fault(FaultNegativeSize, in, dst, fmt.Sprintf("memcpy size %d", n))
	}
	if n == 0 {
		return args[0], nil
	}
	v.budget -= n
	if v.budget <= 0 {
		return 0, v.fault(FaultTimeout, in, 0, "budget exhausted in memcpy")
	}
	b, flt := v.readRegion(in, src, int(n), 0)
	if flt != nil {
		return 0, flt
	}
	if flt := v.writeRegion(in, dst, b); flt != nil {
		return 0, flt
	}
	return args[0], nil
}

func biMemset(v *VM, in *ir.Instr, args []int64) (int64, error) {
	if err := argn(v, in, args, 3); err != nil {
		return 0, err
	}
	dst, c, n := uint64(args[0]), byte(args[1]), args[2]
	if n < 0 {
		return 0, v.fault(FaultNegativeSize, in, dst, fmt.Sprintf("memset size %d", n))
	}
	if n == 0 {
		return args[0], nil
	}
	v.budget -= n
	if v.budget <= 0 {
		return 0, v.fault(FaultTimeout, in, 0, "budget exhausted in memset")
	}
	buf := v.buffer(0, int(n))
	for i := range buf {
		buf[i] = c
	}
	if flt := v.writeRegion(in, dst, buf); flt != nil {
		return 0, flt
	}
	return args[0], nil
}

func biMemcmp(v *VM, in *ir.Instr, args []int64) (int64, error) {
	if err := argn(v, in, args, 3); err != nil {
		return 0, err
	}
	n := args[2]
	if n < 0 {
		return 0, v.fault(FaultNegativeSize, in, uint64(args[0]), fmt.Sprintf("memcmp size %d", n))
	}
	if n == 0 {
		return 0, nil
	}
	v.budget -= n
	a, flt := v.readRegion(in, uint64(args[0]), int(n), 0)
	if flt != nil {
		return 0, flt
	}
	b, flt := v.readRegion(in, uint64(args[1]), int(n), 1)
	if flt != nil {
		return 0, flt
	}
	for i := range a {
		if a[i] != b[i] {
			if a[i] < b[i] {
				return -1, nil
			}
			return 1, nil
		}
	}
	return 0, nil
}

// contigReadEnd returns a conservative exclusive end address such that
// every byte of [addr, end) passes the per-byte read access check, given
// that addr itself just did. The string walkers use it to validate whole
// runs at once; when the window is exhausted the caller re-classifies, so
// a string legitimately spanning adjacent heap chunks still walks exactly
// as the byte-at-a-time loop would.
func (v *VM) contigReadEnd(addr uint64) uint64 {
	switch {
	case addr >= GlobalsBase && addr < HeapBase:
		if e := v.Layout.End; addr < e {
			return e
		}
	case addr >= HeapBase && addr < HeapEnd:
		if ch, ok := v.Heap.ChunkAt(addr); ok {
			return ch.Addr + ch.Size
		}
	case addr >= StackBase && addr < StackEnd:
		if addr < v.sp {
			return v.sp
		}
	}
	return addr + 1
}

// cstr walks a NUL-terminated string with the per-byte loop's exact fault
// and budget semantics, scanning page-sized valid windows at memory speed
// instead of one map lookup per byte. The string is read into scratch
// buffer slot.
func (v *VM) cstr(in *ir.Instr, addr uint64, slot int) ([]byte, *Fault) {
	out := v.scratch[slot][:0]
	for {
		if flt := v.checkAccess(addr, 1, false, in); flt != nil {
			return nil, flt
		}
		end := v.contigReadEnd(addr)
		if pe := (addr | (mem.PageSize - 1)) + 1; end > pe {
			end = pe
		}
		win := int(end - addr)
		var data []byte
		k := 0 // bytes before the terminator; absent pages read as zero
		if pg := v.Mem.PageView(addr >> mem.PageShift); pg != nil {
			off := addr & (mem.PageSize - 1)
			data = pg[off : off+uint64(win)]
			if k = bytes.IndexByte(data, 0); k < 0 {
				k = win
			}
		}
		if k > 0 && v.budget <= int64(k) {
			// The byte loop decrements after every non-terminator byte and
			// stops the moment the budget reaches zero.
			j := v.budget
			if j < 1 {
				j = 1
			}
			v.budget -= j
			return nil, v.fault(FaultTimeout, in, addr+uint64(j), "budget exhausted in string walk")
		}
		out = append(out, data[:k]...)
		v.keep(slot, out)
		v.budget -= int64(k)
		if k < win {
			return out, nil
		}
		addr = end
	}
}

func biStrlen(v *VM, in *ir.Instr, args []int64) (int64, error) {
	if err := argn(v, in, args, 1); err != nil {
		return 0, err
	}
	s, flt := v.cstr(in, uint64(args[0]), 0)
	if flt != nil {
		return 0, flt
	}
	return int64(len(s)), nil
}

func biStrcmp(v *VM, in *ir.Instr, args []int64) (int64, error) {
	if err := argn(v, in, args, 2); err != nil {
		return 0, err
	}
	a, flt := v.cstr(in, uint64(args[0]), 0)
	if flt != nil {
		return 0, flt
	}
	b, flt := v.cstr(in, uint64(args[1]), 1)
	if flt != nil {
		return 0, flt
	}
	return int64(cmpBytes(a, b)), nil
}

func biStrncmp(v *VM, in *ir.Instr, args []int64) (int64, error) {
	if err := argn(v, in, args, 3); err != nil {
		return 0, err
	}
	n := args[2]
	if n <= 0 {
		return 0, nil
	}
	a, flt := v.cstrBounded(in, uint64(args[0]), n, 0)
	if flt != nil {
		return 0, flt
	}
	b, flt := v.cstrBounded(in, uint64(args[1]), n, 1)
	if flt != nil {
		return 0, flt
	}
	return int64(cmpBytes(a, b)), nil
}

// cstrBounded reads at most n bytes of a C string (stops at NUL) into
// scratch buffer slot.
func (v *VM) cstrBounded(in *ir.Instr, addr uint64, n int64, slot int) ([]byte, *Fault) {
	out := v.scratch[slot][:0]
	for n > 0 {
		if flt := v.checkAccess(addr, 1, false, in); flt != nil {
			return nil, flt
		}
		end := v.contigReadEnd(addr)
		if pe := (addr | (mem.PageSize - 1)) + 1; end > pe {
			end = pe
		}
		win := int(end - addr)
		if int64(win) > n {
			win = int(n)
		}
		var data []byte
		k := 0
		if pg := v.Mem.PageView(addr >> mem.PageShift); pg != nil {
			off := addr & (mem.PageSize - 1)
			data = pg[off : off+uint64(win)]
			if k = bytes.IndexByte(data, 0); k < 0 {
				k = win
			}
		}
		if k > 0 && v.budget <= int64(k) {
			j := v.budget
			if j < 1 {
				j = 1
			}
			v.budget -= j
			return nil, v.fault(FaultTimeout, in, addr+uint64(j), "budget exhausted")
		}
		out = append(out, data[:k]...)
		v.keep(slot, out)
		v.budget -= int64(k)
		if k < win {
			return out, nil
		}
		addr += uint64(win)
		n -= int64(win)
	}
	return out, nil
}

func cmpBytes(a, b []byte) int {
	n := len(a)
	if len(b) < n {
		n = len(b)
	}
	for i := 0; i < n; i++ {
		if a[i] != b[i] {
			if a[i] < b[i] {
				return -1
			}
			return 1
		}
	}
	switch {
	case len(a) < len(b):
		return -1
	case len(a) > len(b):
		return 1
	}
	return 0
}

func biStrcpy(v *VM, in *ir.Instr, args []int64) (int64, error) {
	if err := argn(v, in, args, 2); err != nil {
		return 0, err
	}
	s, flt := v.cstr(in, uint64(args[1]), 0)
	if flt != nil {
		return 0, flt
	}
	s = append(s, 0)
	v.keep(0, s)
	if flt := v.writeRegion(in, uint64(args[0]), s); flt != nil {
		return 0, flt
	}
	return args[0], nil
}

func biFopen(v *VM, in *ir.Instr, args []int64) (int64, error) {
	if err := argn(v, in, args, 2); err != nil {
		return 0, err
	}
	path, flt := v.cstr(in, uint64(args[0]), 0)
	if flt != nil {
		return 0, flt
	}
	mode, flt := v.cstr(in, uint64(args[1]), 1)
	if flt != nil {
		return 0, flt
	}
	md := "r"
	switch {
	case len(mode) == 0:
	case mode[0] == 'w':
		md = "w"
	case mode[0] == 'a':
		md = "a"
	}
	// Interning the overwhelmingly common path avoids a per-fopen string
	// allocation on the hot loop (targets reopen /input every test case);
	// the []byte==string comparison itself does not allocate.
	var p string
	if string(path) == vfs.InputPath {
		p = vfs.InputPath
	} else {
		p = string(path)
	}
	fd, err := v.FS.Open(p, md)
	if err != nil {
		// fopen returns NULL on failure (including EMFILE); targets that
		// abort on NULL turn descriptor exhaustion into the false crashes
		// the paper describes.
		return 0, nil
	}
	if in.FileElide {
		v.FS.MarkElided(fd)
	}
	return int64(fd), nil
}

func biFclose(v *VM, in *ir.Instr, args []int64) (int64, error) {
	if err := argn(v, in, args, 1); err != nil {
		return 0, err
	}
	if err := v.FS.Close(int(args[0])); err != nil {
		return 0, v.fault(FaultBadFree, in, uint64(args[0]), "fclose: "+err.Error())
	}
	return 0, nil
}

func biFread(v *VM, in *ir.Instr, args []int64) (int64, error) {
	if err := argn(v, in, args, 4); err != nil {
		return 0, err
	}
	ptr, size, nmemb, fd := uint64(args[0]), args[1], args[2], int(args[3])
	if size <= 0 || nmemb <= 0 {
		return 0, nil
	}
	total := size * nmemb
	if total < 0 || total > 1<<26 {
		return 0, v.fault(FaultNegativeSize, in, ptr, fmt.Sprintf("fread size %d", total))
	}
	v.budget -= total
	if v.budget <= 0 {
		return 0, v.fault(FaultTimeout, in, 0, "budget exhausted in fread")
	}
	buf := v.buffer(0, int(total))
	n, err := v.FS.Read(fd, buf)
	if err != nil {
		return 0, nil // EOF/err: fread returns 0 items
	}
	if n == 0 {
		return 0, nil
	}
	if flt := v.writeRegion(in, ptr, buf[:n]); flt != nil {
		return 0, flt
	}
	return int64(n) / size, nil
}

func biFwrite(v *VM, in *ir.Instr, args []int64) (int64, error) {
	if err := argn(v, in, args, 4); err != nil {
		return 0, err
	}
	ptr, size, nmemb, fd := uint64(args[0]), args[1], args[2], int(args[3])
	if size <= 0 || nmemb <= 0 {
		return 0, nil
	}
	total := size * nmemb
	if total < 0 || total > 1<<26 {
		return 0, v.fault(FaultNegativeSize, in, ptr, fmt.Sprintf("fwrite size %d", total))
	}
	v.budget -= total
	b, flt := v.readRegion(in, ptr, int(total), 0)
	if flt != nil {
		return 0, flt
	}
	n, err := v.FS.Write(fd, b)
	if err != nil {
		return 0, nil
	}
	return int64(n) / size, nil
}

func biFgetc(v *VM, in *ir.Instr, args []int64) (int64, error) {
	if err := argn(v, in, args, 1); err != nil {
		return 0, err
	}
	c, err := v.FS.Getc(int(args[0]))
	if err != nil {
		return -1, nil
	}
	return int64(c), nil
}

func biFseek(v *VM, in *ir.Instr, args []int64) (int64, error) {
	if err := argn(v, in, args, 3); err != nil {
		return 0, err
	}
	if _, err := v.FS.Seek(int(args[0]), args[1], int(args[2])); err != nil {
		return -1, nil
	}
	return 0, nil
}

func biFtell(v *VM, in *ir.Instr, args []int64) (int64, error) {
	if err := argn(v, in, args, 1); err != nil {
		return 0, err
	}
	off, err := v.FS.Tell(int(args[0]))
	if err != nil {
		return -1, nil
	}
	return off, nil
}

func biFsize(v *VM, in *ir.Instr, args []int64) (int64, error) {
	if err := argn(v, in, args, 1); err != nil {
		return 0, err
	}
	n, err := v.FS.Size(int(args[0]))
	if err != nil {
		return -1, nil
	}
	return n, nil
}

func biPuts(v *VM, in *ir.Instr, args []int64) (int64, error) {
	if err := argn(v, in, args, 1); err != nil {
		return 0, err
	}
	s, flt := v.cstr(in, uint64(args[0]), 0)
	if flt != nil {
		return 0, flt
	}
	v.appendStdout(s)
	v.appendStdout([]byte{'\n'})
	return 0, nil
}

func biPutchar(v *VM, in *ir.Instr, args []int64) (int64, error) {
	if err := argn(v, in, args, 1); err != nil {
		return 0, err
	}
	v.appendStdout([]byte{byte(args[0])})
	return args[0], nil
}

func biPrintInt(v *VM, in *ir.Instr, args []int64) (int64, error) {
	if err := argn(v, in, args, 1); err != nil {
		return 0, err
	}
	var digits [20]byte
	v.appendStdout(strconv.AppendInt(digits[:0], args[0], 10))
	return 0, nil
}

func biRand(v *VM, in *ir.Instr, args []int64) (int64, error) {
	return int64(v.rand() & 0x7fffffff), nil
}

func biSrand(v *VM, in *ir.Instr, args []int64) (int64, error) {
	if err := argn(v, in, args, 1); err != nil {
		return 0, err
	}
	v.rngState = uint64(args[0]) | 1
	return 0, nil
}

func max64(a, b int64) int64 {
	if a > b {
		return a
	}
	return b
}
