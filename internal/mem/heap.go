package mem

import (
	"errors"
	"fmt"
	"sort"

	"closurex/internal/faultinject"
)

// Heap manages a segment of a Memory as a malloc-style arena and keeps the
// chunk map that ClosureX's HeapPass relies on: every live allocation is
// recorded so the harness can (a) bound-check accesses like a sanitizer and
// (b) free everything the target leaked when a test case ends (Figure 5 of
// the paper).
type Heap struct {
	mem  *Memory
	base uint64
	end  uint64
	brk  uint64 // bump pointer

	// chunks holds live allocations sorted by start address; parsers
	// allocate tens of chunks per execution, so a sorted slice with binary
	// search beats fancier structures.
	chunks []Chunk

	// quarantine holds freed chunk start addresses so double-free and
	// use-after-free can be told apart from wild pointers. Bounded FIFO.
	quarantine     []Chunk
	quarantineCap  int
	bytesAllocated uint64 // live bytes (for the memory-usage audit, §6.1.4)

	// inj, when armed, fails allocations on demand so tests can drive the
	// target's (and the harness's) OOM paths deterministically. Nil in
	// production.
	inj *faultinject.Injector

	// shadow, when attached (-sanitize), mirrors every allocation and free
	// into the ASan-style shadow plane so the VM can classify accesses
	// without consulting the chunk map.
	shadow *Shadow

	// siteFn/siteLine hold the allocation/free site the VM noted just
	// before calling into the allocator; consumed into Chunk fields for
	// sanitizer reports. siteElide carries the interproc TrackElide mark
	// of that site so the chunk records whether the analysis proved it
	// freed on every path.
	siteFn    string
	siteLine  int32
	siteElide bool

	// spare is shared by a heap and every clone of it: the chunk and
	// quarantine storage the last released clone gave back, for the next
	// Clone to append into. Nil until the first Clone. Like Memory's free
	// list it is not locked.
	spare *heapSpare
}

// heapSpare is the bookkeeping storage a released heap hands on.
type heapSpare struct {
	chunks, quarantine []Chunk
}

// Chunk describes one live heap allocation.
type Chunk struct {
	Addr uint64
	Size uint64
	// Init marks chunks allocated before the fuzzing loop started (during
	// deferred initialization); the harness must not reclaim them between
	// test cases.
	Init bool
	// Allocation and free sites (function name + source line), recorded
	// when the VM notes them via NoteSite. Free sites are only meaningful
	// on quarantined chunks.
	AllocFn   string
	AllocLine int32
	FreeFn    string
	FreeLine  int32
	// Elided marks chunks born at a TrackElide allocation site: the
	// interprocedural analysis proved the target frees them on every path,
	// so the harness expects none of them live at restore time (on
	// non-crashed iterations) and audits that expectation instead of
	// paying per-chunk tracking costs for the sweep accounting.
	Elided bool
}

// Heap errors surfaced to the VM sanitizer.
var (
	ErrHeapOOM      = errors.New("heap: out of memory")
	ErrBadFree      = errors.New("heap: free of non-heap or unaligned pointer")
	ErrDoubleFree   = errors.New("heap: double free")
	ErrUseAfterFree = errors.New("heap: use after free")
	ErrHeapOOB      = errors.New("heap: out-of-bounds access")
)

// chunkAlign rounds allocation sizes so neighbouring chunks never share a
// word, giving the sanitizer redzones for free.
const chunkAlign = 16

// defaultQuarantine is how many freed chunks are remembered for UAF
// reporting before their address ranges may be reused.
const defaultQuarantine = 512

// NewHeap creates a heap over [base, end) of m.
func NewHeap(m *Memory, base, end uint64) *Heap {
	return &Heap{
		mem:           m,
		base:          base,
		end:           end,
		brk:           base,
		quarantineCap: defaultQuarantine,
	}
}

// SetInjector arms fault injection for this heap (nil disarms).
func (h *Heap) SetInjector(inj *faultinject.Injector) { h.inj = inj }

// AttachShadow arms the ASan-style shadow plane over the heap span. Call
// after Shift so the plane's base matches the randomized allocation base.
func (h *Heap) AttachShadow() {
	h.shadow = NewShadow(h.base, h.end)
}

// Shadow returns the attached shadow plane, or nil when not sanitizing.
func (h *Heap) Shadow() *Shadow { return h.shadow }

// NoteSite records the function and source line about to perform an
// allocator call, so the next Alloc/Free stamps it into the chunk for
// sanitizer reports.
func (h *Heap) NoteSite(fn string, line int32) {
	h.siteFn, h.siteLine = fn, line
	h.siteElide = false
}

// NoteElide records that the pending allocator call originates from a
// TrackElide-marked site; the next Alloc stamps Chunk.Elided. Call after
// NoteSite (which clears the flag).
func (h *Heap) NoteElide() { h.siteElide = true }

// ChunkAt returns the live chunk containing addr.
func (h *Heap) ChunkAt(addr uint64) (Chunk, bool) {
	if i := h.findChunk(addr); i >= 0 {
		return h.chunks[i], true
	}
	return Chunk{}, false
}

// QuarantinedAt returns the quarantined (freed) chunk containing addr.
func (h *Heap) QuarantinedAt(addr uint64) (Chunk, bool) {
	return h.findQuarantined(addr)
}

// ChunkNear returns the live chunk containing addr or whose trailing
// redzone covers it — used to attribute an overflow report to the
// allocation being overflowed.
func (h *Heap) ChunkNear(addr uint64) (Chunk, bool) {
	i := sort.Search(len(h.chunks), func(i int) bool { return h.chunks[i].Addr > addr })
	i--
	if i < 0 {
		return Chunk{}, false
	}
	c := h.chunks[i]
	rounded := (c.Size + chunkAlign - 1) &^ uint64(chunkAlign-1)
	if addr < c.Addr+rounded+chunkAlign {
		return c, true
	}
	return Chunk{}, false
}

// QuarantineSnapshot copies the current quarantine ring — the harness
// captures it after deferred initialization so each iteration starts from
// the same free history (classification and first-fit behavior stay
// deterministic per iteration).
func (h *Heap) QuarantineSnapshot() []Chunk {
	return append([]Chunk(nil), h.quarantine...)
}

// RestoreQuarantine replaces the quarantine ring with the snapshot taken
// at harness-init time.
func (h *Heap) RestoreQuarantine(snap []Chunk) {
	h.quarantine = append(h.quarantine[:0], snap...)
}

// QuarantineLen reports how many freed chunks the quarantine currently
// remembers (watchdog invariant checks).
func (h *Heap) QuarantineLen() int { return len(h.quarantine) }

// Base returns the lowest address the heap may hand out.
func (h *Heap) Base() uint64 { return h.base }

// Shift slides the allocation base upward by off bytes — heap ASLR. Must
// be called before the first allocation. Shifting models the per-process
// randomization that makes stored heap addresses naturally nondeterministic
// across fresh executions (the §6.1.4 masking exists precisely for this).
func (h *Heap) Shift(off uint64) {
	if len(h.chunks) != 0 || h.brk != h.base {
		return // too late: allocations exist
	}
	if off > (h.end-h.base)/4 {
		off = (h.end - h.base) / 4
	}
	off &^= chunkAlign - 1
	h.base += off
	h.brk = h.base
}

// End returns the first address past the heap segment.
func (h *Heap) End() uint64 { return h.end }

// Contains reports whether addr falls inside the heap segment.
func (h *Heap) Contains(addr uint64) bool { return addr >= h.base && addr < h.end }

// LiveChunks returns the number of live allocations.
func (h *Heap) LiveChunks() int { return len(h.chunks) }

// Chunks returns a copy of every live chunk, init-persistent or not, in
// address order (image-equivalence checks).
func (h *Heap) Chunks() []Chunk { return append([]Chunk(nil), h.chunks...) }

// Brk returns the bump pointer: the first address never handed out.
func (h *Heap) Brk() uint64 { return h.brk }

// LiveBytes returns the number of live allocated bytes.
func (h *Heap) LiveBytes() uint64 { return h.bytesAllocated }

// findChunk returns the index of the live chunk containing addr, or -1.
func (h *Heap) findChunk(addr uint64) int {
	i := sort.Search(len(h.chunks), func(i int) bool { return h.chunks[i].Addr > addr })
	i--
	if i >= 0 {
		c := h.chunks[i]
		if addr >= c.Addr && addr < c.Addr+c.Size {
			return i
		}
	}
	return -1
}

// findQuarantined reports whether addr lies inside a recently freed chunk.
func (h *Heap) findQuarantined(addr uint64) (Chunk, bool) {
	for i := len(h.quarantine) - 1; i >= 0; i-- {
		c := h.quarantine[i]
		if addr >= c.Addr && addr < c.Addr+c.Size {
			return c, true
		}
	}
	return Chunk{}, false
}

// Alloc allocates size bytes (zero-size allocations get a minimal chunk so
// they still have a unique address, as malloc(0) may).
func (h *Heap) Alloc(size uint64) (uint64, error) {
	if h.inj.Should(faultinject.HeapAlloc) {
		return 0, fmt.Errorf("%w (%v)", ErrHeapOOM, faultinject.Err(faultinject.HeapAlloc))
	}
	if size == 0 {
		size = 1
	}
	rounded := (size + chunkAlign - 1) &^ uint64(chunkAlign-1)
	// Bump allocation with redzone gap; when the arena is exhausted, fall
	// back to first-fit over the gaps left by frees past quarantine.
	addr := h.brk
	if addr+rounded+chunkAlign > h.end || addr+rounded < addr {
		a, ok := h.firstFit(rounded)
		if !ok {
			return 0, ErrHeapOOM
		}
		addr = a
	} else {
		h.brk = addr + rounded + chunkAlign
	}
	c := Chunk{Addr: addr, Size: size, AllocFn: h.siteFn, AllocLine: h.siteLine, Elided: h.siteElide}
	h.siteFn, h.siteLine, h.siteElide = "", 0, false
	i := sort.Search(len(h.chunks), func(i int) bool { return h.chunks[i].Addr > addr })
	h.chunks = append(h.chunks, Chunk{})
	copy(h.chunks[i+1:], h.chunks[i:])
	h.chunks[i] = c
	h.bytesAllocated += size
	if h.shadow != nil {
		h.shadow.Unpoison(addr, size)
		// Everything between the valid bytes and the next chunk is this
		// allocation's right redzone: the round-up tail plus the
		// chunkAlign gap the allocator always leaves.
		up := (size + ShadowGranule - 1) &^ uint64(ShadowGranule-1)
		h.shadow.Poison(addr+up, rounded+chunkAlign-up, ShadowRedzone)
	}
	return addr, nil
}

// firstFit scans for a gap between live chunks big enough for rounded bytes
// plus redzones. Only used once the bump pointer hits the segment end.
func (h *Heap) firstFit(rounded uint64) (uint64, bool) {
	prevEnd := h.base
	need := rounded + 2*chunkAlign
	for _, c := range h.chunks {
		if c.Addr > prevEnd && c.Addr-prevEnd >= need {
			if _, q := h.findQuarantined(prevEnd + chunkAlign); !q {
				return prevEnd + chunkAlign, true
			}
		}
		e := c.Addr + c.Size
		e = (e + chunkAlign - 1) &^ uint64(chunkAlign-1)
		if e > prevEnd {
			prevEnd = e
		}
	}
	if h.end > prevEnd && h.end-prevEnd >= need {
		return prevEnd + chunkAlign, true
	}
	return 0, false
}

// AllocZeroed allocates and clears size bytes (calloc).
func (h *Heap) AllocZeroed(size uint64) (uint64, error) {
	addr, err := h.Alloc(size)
	if err != nil {
		return 0, err
	}
	if err := h.mem.Zero(addr, int(size)); err != nil {
		return 0, err
	}
	return addr, nil
}

// Free releases the chunk starting exactly at addr. free(NULL) is a no-op,
// as in C.
func (h *Heap) Free(addr uint64) error {
	if addr == 0 {
		return nil
	}
	if !h.Contains(addr) {
		return fmt.Errorf("%w: %#x", ErrBadFree, addr)
	}
	i := h.findChunk(addr)
	if i < 0 || h.chunks[i].Addr != addr {
		if _, q := h.findQuarantined(addr); q {
			return fmt.Errorf("%w: %#x", ErrDoubleFree, addr)
		}
		return fmt.Errorf("%w: %#x", ErrBadFree, addr)
	}
	c := h.chunks[i]
	c.FreeFn, c.FreeLine = h.siteFn, h.siteLine
	h.siteFn, h.siteLine = "", 0
	h.chunks = append(h.chunks[:i], h.chunks[i+1:]...)
	h.bytesAllocated -= c.Size
	h.quarantine = append(h.quarantine, c)
	if len(h.quarantine) > h.quarantineCap {
		h.quarantine = h.quarantine[1:]
	}
	if h.shadow != nil {
		h.shadow.Poison(c.Addr, c.Size, ShadowFreed)
	}
	return nil
}

// Realloc resizes the chunk at addr, moving it if necessary.
// realloc(0, n) behaves like malloc(n).
func (h *Heap) Realloc(addr, size uint64) (uint64, error) {
	if addr == 0 {
		return h.Alloc(size)
	}
	i := h.findChunk(addr)
	if i < 0 || h.chunks[i].Addr != addr {
		if _, q := h.findQuarantined(addr); q {
			return 0, fmt.Errorf("%w: realloc %#x", ErrUseAfterFree, addr)
		}
		return 0, fmt.Errorf("%w: realloc %#x", ErrBadFree, addr)
	}
	old := h.chunks[i]
	if size == 0 {
		size = 1
	}
	siteFn, siteLine := h.siteFn, h.siteLine
	if size <= old.Size {
		h.bytesAllocated -= old.Size - size
		h.chunks[i].Size = size
		h.siteFn, h.siteLine = "", 0
		if h.shadow != nil {
			// Shrink in place: the abandoned tail becomes redzone.
			h.shadow.Poison(addr, old.Size, ShadowRedzone)
			h.shadow.Unpoison(addr, size)
		}
		return addr, nil
	}
	nAddr, err := h.Alloc(size)
	if err != nil {
		return 0, err
	}
	data, err := h.mem.Read(old.Addr, int(old.Size))
	if err != nil {
		return 0, err
	}
	if err := h.mem.Write(nAddr, data); err != nil {
		return 0, err
	}
	h.NoteSite(siteFn, siteLine)
	if err := h.Free(old.Addr); err != nil {
		return 0, err
	}
	return nAddr, nil
}

// Check validates an n-byte access at addr, distinguishing use-after-free
// from plain out-of-bounds, for the VM sanitizer.
func (h *Heap) Check(addr uint64, n int) error {
	i := h.findChunk(addr)
	if i < 0 {
		if _, q := h.findQuarantined(addr); q {
			return fmt.Errorf("%w: %d bytes at %#x", ErrUseAfterFree, n, addr)
		}
		return fmt.Errorf("%w: %d bytes at %#x", ErrHeapOOB, n, addr)
	}
	c := h.chunks[i]
	if addr+uint64(n) > c.Addr+c.Size {
		return fmt.Errorf("%w: %d bytes at %#x overruns chunk [%#x,%#x)",
			ErrHeapOOB, n, addr, c.Addr, c.Addr+c.Size)
	}
	return nil
}

// Leaked returns the live chunks that were allocated during test-case
// execution (Init == false) — exactly what the ClosureX harness frees
// between test cases.
func (h *Heap) Leaked() []Chunk { return h.AppendLeaked(nil) }

// AppendLeaked appends the non-init live chunks to dst and returns it —
// the allocation-free variant the harness restore loop uses every
// iteration.
func (h *Heap) AppendLeaked(dst []Chunk) []Chunk {
	for _, c := range h.chunks {
		if !c.Init {
			dst = append(dst, c)
		}
	}
	return dst
}

// LeakedCount reports how many live chunks are not init-persistent,
// without materializing them.
func (h *Heap) LeakedCount() int {
	n := 0
	for _, c := range h.chunks {
		if !c.Init {
			n++
		}
	}
	return n
}

// MarkInit flags every currently live chunk as initialization state that
// survives across test cases (the deferred-initialization optimization).
func (h *Heap) MarkInit() {
	for i := range h.chunks {
		h.chunks[i].Init = true
	}
}

// Reset drops every live chunk and the quarantine, returning the arena to
// its pristine state. Used by the fresh-process mechanism.
func (h *Heap) Reset() {
	h.chunks = h.chunks[:0]
	h.quarantine = h.quarantine[:0]
	h.brk = h.base
	h.bytesAllocated = 0
	if h.shadow != nil {
		h.shadow = NewShadow(h.shadow.base, h.shadow.end)
	}
}

// Clone duplicates the allocator bookkeeping for use over a forked Memory.
// The page contents themselves are shared copy-on-write by Memory.Fork.
// The clone's chunk and quarantine slices reuse the storage the last
// released clone of h gave back.
func (h *Heap) Clone(m *Memory) *Heap {
	if h.spare == nil {
		h.spare = new(heapSpare)
	}
	sp := h.spare
	nh := &Heap{
		mem:            m,
		base:           h.base,
		end:            h.end,
		brk:            h.brk,
		quarantineCap:  h.quarantineCap,
		bytesAllocated: h.bytesAllocated,
		inj:            h.inj,
		spare:          sp,
	}
	nh.chunks = append(sp.chunks[:0], h.chunks...)
	nh.quarantine = append(sp.quarantine[:0], h.quarantine...)
	*sp = heapSpare{}
	if h.shadow != nil {
		nh.shadow = h.shadow.Clone()
	}
	return nh
}

// Release ends the heap's life with its image's (process tear-down): its
// chunk and quarantine storage goes to the next Clone of the heap it was
// cloned from, and the heap is left without memory or chunks, unfit for
// further use.
func (h *Heap) Release() {
	if h.spare != nil {
		*h.spare = heapSpare{chunks: h.chunks[:0], quarantine: h.quarantine[:0]}
	}
	h.mem, h.chunks, h.quarantine = nil, nil, nil
}
