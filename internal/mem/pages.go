// Package mem provides the memory substrate for the ClosureX virtual
// machine: a paged, flat address space with copy-on-write forking (the
// analogue of the kernel-level page management that an AFL++ forkserver
// relies on) and a heap allocator with a chunk map (the analogue of the
// malloc-family bookkeeping that ClosureX's HeapPass injects).
//
// Process-management cost in this reproduction is real work, not simulated
// sleep: a fresh "process" rebuilds the whole image, a forkserver child
// copies the page table and faults dirty pages, and a ClosureX iteration
// touches only the fine-grain state it restores. The relative costs of the
// paper's execution mechanisms therefore emerge from the data structures
// themselves. The page table has the shape of a hardware one: a directory
// of 512-entry tables whose entries point at reference-counted page
// frames, so a fork copies each populated table and takes one reference
// per resident frame, as a kernel's fork does, and a tear-down gives its
// frames and tables to a free list the next fork takes from, as a
// kernel's page allocator does. Every access translates
// through that table, as a hardware walk would: a read walks the dense
// directory in line, and a write goes through writablePage, which
// privatizes a shared frame first.
package mem

import (
	"cmp"
	"encoding/binary"
	"errors"
	"fmt"
	"slices"
)

// PageSize is the granularity of copy-on-write sharing, mirroring a 4 KiB
// hardware page.
const PageSize = 4096

// PageShift is log2(PageSize).
const PageShift = 12

// page is a reference-counted page frame. A page with refs > 1 is shared
// between a parent image and one or more copy-on-write forks and must be
// duplicated before any write.
type page struct {
	data [PageSize]byte
	refs int32
}

// tableShift is log2 of a page table's entry count: 512 entries, the
// shape of an x86-64 last-level table, so one table maps 2 MiB.
const tableShift = 9

// tableMask selects a page's entry within its table.
const tableMask = 1<<tableShift - 1

// table is one last-level page table: entry pn&tableMask of table
// pn>>tableShift maps page pn; nil is not resident.
type table [1 << tableShift]*page

// denseTables bounds the directly indexed part of the directory: tables
// below it (the low 2 GiB of address space, where every image section
// lives) sit in a slice indexed by table number, at most 8 KiB of
// pointers. Tables at or above it — a wild pointer's far page — are kept
// sorted in a short list, so a page at 1<<40 costs one entry, not a
// directory in proportion to its address.
const denseTables = 1 << 10

// farEntry is one directory entry above the dense range.
type farEntry struct {
	tn uint64 // table number, pn>>tableShift
	t  *table
}

// Memory is a sparse, paged address space. The zero page (addresses below
// PageSize) is never mapped; accesses to it fault, which is how the VM's
// sanitizer turns NULL dereferences into reports.
type Memory struct {
	// dir is the directory's dense part, indexed by table number and grown
	// to the highest table touched below denseTables; far holds the tables
	// above it in ascending order. A nil entry maps no page.
	dir []*table
	far []farEntry
	// resident counts the mapped pages.
	resident int
	// limit is the maximum number of resident pages; exceeding it reports
	// an out-of-memory condition instead of letting a runaway target eat
	// the host.
	limit int
	// trackDirty records every page privatized or newly mapped since the
	// last RestoreTo — the write-protection bookkeeping a kernel snapshot
	// module (AFL++ Snapshot LKM) maintains.
	trackDirty bool
	dirty      []uint64

	// Watch state: a write barrier over a fixed page range. Unlike
	// trackDirty (which only sees privatization/mapping events and exists
	// for CoW restore), the watch sees EVERY write to the watched range,
	// including writes to pages that are already private — the bookkeeping
	// ClosureX's dirty-tracking incremental restore needs. watchBits is a
	// dense bitmap over [watchLo, watchHi) page numbers; watchList is the
	// deduplicated list of dirtied page numbers since the last ResetWatch.
	watchLo   uint64
	watchHi   uint64
	watchBits []uint64
	watchList []uint64

	// free is the free list this image shares with the image it was
	// forked from and every other fork of that image; nil until the first
	// Fork (an image that is never forked gives its storage to the
	// garbage collector).
	free *freeList
}

// freeList holds the storage released images gave back — frames whose
// last reference was dropped, page tables and directories — for the next
// fork or page fault of any image sharing it, the way a kernel's page
// allocator recycles a dead process's frames and tables. A frame on it
// has refs == 0 and is mapped by no image; tables and directories on it
// hold stale entries and are overwritten or cleared when taken.
//
// The list is not locked: every image sharing one must be forked,
// written and released on one goroutine at a time, which the
// non-atomic reference counts already require.
type freeList struct {
	frames []*page
	tables []*table
	dirs   [][]*table
	// watchBits/watchList are the last released image's watch window
	// storage, for the next Watch.
	watchBits, watchList []uint64
}

// pop removes and returns the last entry of a free list, or nil when it
// is empty.
func pop[T any](list *[]*T) *T {
	n := len(*list)
	if n == 0 {
		return nil
	}
	x := (*list)[n-1]
	*list = (*list)[:n-1]
	return x
}

// dir returns a cleared directory of n entries, reusing a released one
// when it is large enough.
func (fl *freeList) dir(n int) []*table {
	if k := len(fl.dirs); k > 0 {
		d := fl.dirs[k-1]
		fl.dirs[k-1] = nil
		fl.dirs = fl.dirs[:k-1]
		if cap(d) >= n {
			d = d[:n]
			clear(d)
			return d
		}
	}
	return make([]*table, n)
}

// Common memory errors. The VM wraps these into sanitizer faults with
// program context attached.
var (
	ErrUnmapped = errors.New("mem: access to unmapped page")
	ErrNullPage = errors.New("mem: access to null page")
	ErrNoMemory = errors.New("mem: page limit exceeded")
)

// DefaultPageLimit bounds a single image to 64 MiB of resident pages.
const DefaultPageLimit = 16384

// NewMemory returns an empty address space with the default page limit.
func NewMemory() *Memory {
	return &Memory{limit: DefaultPageLimit}
}

// NewMemoryLimit returns an empty address space bounded to limit pages.
func NewMemoryLimit(limit int) *Memory {
	if limit <= 0 {
		limit = DefaultPageLimit
	}
	return &Memory{limit: limit}
}

// Pages reports the number of resident pages (shared pages count once per
// image that maps them, as in a real page table).
func (m *Memory) Pages() int { return m.resident }

// table returns the page table covering table number tn, or nil.
func (m *Memory) table(tn uint64) *table {
	if tn < uint64(len(m.dir)) {
		return m.dir[tn]
	}
	return m.farTable(tn)
}

// farTable is table's slow path, for tables past the dense directory. It
// stays out of line so that table inlines into its callers.
//
//go:noinline
func (m *Memory) farTable(tn uint64) *table {
	if i, ok := m.findFar(tn); ok {
		return m.far[i].t
	}
	return nil
}

// findFar binary-searches the far list for table number tn.
func (m *Memory) findFar(tn uint64) (int, bool) {
	return slices.BinarySearchFunc(m.far, tn, func(f farEntry, tn uint64) int {
		return cmp.Compare(f.tn, tn)
	})
}

// newTable installs an empty page table for table number tn, which has
// none yet, taking it from the free list first.
func (m *Memory) newTable(tn uint64) *table {
	var t *table
	if m.free != nil {
		if t = pop(&m.free.tables); t != nil {
			clear(t[:])
		}
	}
	if t == nil {
		t = new(table)
	}
	if tn < denseTables {
		if tn >= uint64(len(m.dir)) {
			m.dir = append(m.dir, make([]*table, int(tn)+1-len(m.dir))...)
		}
		m.dir[tn] = t
		return t
	}
	i, _ := m.findFar(tn)
	m.far = slices.Insert(m.far, i, farEntry{tn: tn, t: t})
	return t
}

// frame returns the page frame mapped at pn, or nil. ReadUint and LoadByte,
// the interpreter's loads, walk the dense directory in line instead and
// call frame only past it: frame is too large to inline, and a call on
// every load costs the persistent campaign about 4%.
func (m *Memory) frame(pn uint64) *page {
	t := m.table(pn >> tableShift)
	if t == nil {
		return nil
	}
	return t[pn&tableMask]
}

// MappedPages returns the numbers of every resident page in ascending
// order (image-equivalence checks; read each one with PageView). The
// directory walk is already ascending: dense tables by index, then the
// sorted far list.
func (m *Memory) MappedPages() []uint64 {
	out := make([]uint64, 0, m.resident)
	m.eachTable(func(tn uint64, t *table) {
		for i, pg := range t {
			if pg != nil {
				out = append(out, tn<<tableShift|uint64(i))
			}
		}
	})
	return out
}

// eachTable calls fn on every page table in ascending table order.
func (m *Memory) eachTable(fn func(tn uint64, t *table)) {
	for tn, t := range m.dir {
		if t != nil {
			fn(uint64(tn), t)
		}
	}
	for _, f := range m.far {
		fn(f.tn, f.t)
	}
}

// Fork produces a copy-on-write duplicate of the address space: every
// populated page table is copied whole and every resident frame gains a
// reference, so every page becomes shared. This is the cost an AFL++
// forkserver pays per test case; it is O(resident pages) regardless of how
// little the test case will touch. The child's directory and tables come
// from the free list m shares with its forks (see freeList) when it holds
// them. The child has no watch window, whatever
// the parent's: a caller that needs the write barrier re-arms it with
// Watch (the ClosureX harness does so in harness.Fork).
func (m *Memory) Fork() *Memory {
	if m.free == nil {
		m.free = new(freeList)
	}
	fl := m.free
	child := &Memory{resident: m.resident, limit: m.limit, free: fl}
	child.dir = fl.dir(len(m.dir))
	m.eachTable(func(tn uint64, t *table) {
		c := pop(&fl.tables)
		if c == nil {
			c = new(table)
		}
		*c = *t
		for _, pg := range c {
			if pg != nil {
				pg.refs++
			}
		}
		if tn < denseTables {
			child.dir[tn] = c
		} else {
			child.far = append(child.far, farEntry{tn: tn, t: c})
		}
	})
	return child
}

// Release drops every page reference held by this image in one walk of
// its tables and unmaps everything. A forked child calls Release when the
// test case finishes, which is the analogue of process tear-down: frames
// it held the last reference to, its tables and its directory go onto
// its free list, if it has one, for the next fork.
func (m *Memory) Release() {
	fl := m.free
	m.eachTable(func(_ uint64, t *table) {
		for _, pg := range t {
			if pg != nil {
				m.unref(pg)
			}
		}
		if fl != nil {
			fl.tables = append(fl.tables, t)
		}
	})
	if fl != nil && m.dir != nil {
		fl.dirs = append(fl.dirs, m.dir)
	}
	if fl != nil && m.watchBits != nil {
		fl.watchBits, fl.watchList = m.watchBits, m.watchList
	}
	m.dir, m.far, m.resident = nil, nil, 0
	m.dirty = m.dirty[:0]
	m.watchBits, m.watchList = nil, nil
}

// unref drops one reference to pg, a frame this image no longer maps. The
// last reference puts the frame on the free list.
func (m *Memory) unref(pg *page) {
	pg.refs--
	if pg.refs == 0 && m.free != nil {
		m.free.frames = append(m.free.frames, pg)
	}
}

// newFrame returns a frame with one reference, from the free list first.
// A recycled frame holds stale bytes, which zero clears; a caller that
// overwrites the whole frame passes false.
func (m *Memory) newFrame(zero bool) *page {
	if m.free != nil {
		if pg := pop(&m.free.frames); pg != nil {
			pg.refs = 1
			if zero {
				clear(pg.data[:])
			}
			return pg
		}
	}
	return &page{refs: 1}
}

// writablePage returns the page at pn private to this image: a fresh
// zeroed page on first touch, or a copy-on-write duplicate when the page
// is shared.
func (m *Memory) writablePage(pn uint64) (*page, error) {
	tn, i := pn>>tableShift, pn&tableMask
	t := m.table(tn)
	var pg *page
	if t != nil {
		pg = t[i]
	}
	if pg == nil {
		if m.resident >= m.limit {
			return nil, ErrNoMemory
		}
		if t == nil {
			t = m.newTable(tn)
		}
		pg = m.newFrame(true) // demand-zero
		t[i] = pg
		m.resident++
		if m.trackDirty {
			m.dirty = append(m.dirty, pn)
		}
	}
	if m.watchBits != nil {
		m.markWatched(pn)
	}
	if pg.refs > 1 {
		dup := m.newFrame(false) // the copy overwrites it
		dup.data = pg.data
		pg.refs--
		t[i] = dup
		if m.trackDirty {
			m.dirty = append(m.dirty, pn)
		}
		return dup, nil
	}
	return pg, nil
}

// Watch arms the write barrier over [addr, addr+size): every subsequent
// write that touches a page in the range records that page as dirty, no
// matter whether the page was already private. Watching replaces any
// previous watch range. size == 0 disarms the barrier.
func (m *Memory) Watch(addr, size uint64) {
	if size == 0 {
		m.watchBits = nil
		m.watchList = m.watchList[:0]
		m.watchLo, m.watchHi = 0, 0
		return
	}
	m.watchLo = addr >> PageShift
	m.watchHi = (addr + size + PageSize - 1) >> PageShift
	n := (m.watchHi - m.watchLo + 63) / 64
	if fl := m.free; fl != nil && uint64(cap(fl.watchBits)) >= n {
		// A released image's window storage, as Release left it.
		m.watchBits = fl.watchBits[:n]
		clear(m.watchBits)
		if cap(fl.watchList) > cap(m.watchList) {
			m.watchList = fl.watchList
		}
		fl.watchBits, fl.watchList = nil, nil
	} else {
		m.watchBits = make([]uint64, n)
	}
	m.watchList = m.watchList[:0]
}

// markWatched sets the dirty bit for pn when it falls inside the watched
// range; first-touch per window also appends it to the dirty list. The two
// compares are the entire hot-path cost when pn is outside the range.
func (m *Memory) markWatched(pn uint64) {
	if pn < m.watchLo || pn >= m.watchHi {
		return
	}
	m.setWatchBit(pn)
}

// setWatchBit records pn (already known to be inside the watched window)
// in the dirty bitmap and, on first touch, the dirty list.
func (m *Memory) setWatchBit(pn uint64) {
	off := pn - m.watchLo
	w, b := off/64, uint64(1)<<(off%64)
	if m.watchBits[w]&b == 0 {
		m.watchBits[w] |= b
		m.watchList = append(m.watchList, pn)
	}
}

// WatchedDirty returns the page numbers written since the last ResetWatch,
// in first-touch order. The slice is owned by the Memory and is only valid
// until the next ResetWatch.
func (m *Memory) WatchedDirty() []uint64 { return m.watchList }

// ResetWatch clears the dirty bits and list, starting a new watch window.
func (m *Memory) ResetWatch() {
	for _, pn := range m.watchList {
		off := pn - m.watchLo
		m.watchBits[off/64] &^= uint64(1) << (off % 64)
	}
	m.watchList = m.watchList[:0]
}

// TrackDirty enables (or disables) dirty-page recording and clears the
// current dirty list.
func (m *Memory) TrackDirty(on bool) {
	m.trackDirty = on
	m.dirty = m.dirty[:0]
}

// DirtyPages reports how many pages have been dirtied since tracking
// started or the last RestoreTo.
func (m *Memory) DirtyPages() int { return len(m.dirty) }

// RestoreTo undoes every dirty page against the snapshot parent: pages the
// parent also maps are re-shared copy-on-write (a page this image
// discarded included), pages the parent lacks are unmapped. Cost is
// O(dirty pages) — the kernel-snapshot restore path,
// cheaper than a fork (O(all resident pages)) but page-granular, unlike
// ClosureX's byte-granular restoration.
func (m *Memory) RestoreTo(parent *Memory) {
	for _, pn := range m.dirty {
		tn, i := pn>>tableShift, pn&tableMask
		t := m.table(tn)
		var pg *page
		if t != nil {
			pg = t[i]
		}
		tp := parent.frame(pn)
		if pg == tp {
			continue // duplicate dirty entry already handled
		}
		if pg != nil {
			m.unmap(t, i)
		}
		if tp != nil {
			if t == nil {
				t = m.newTable(tn)
			}
			t[i] = tp
			tp.refs++
			m.resident++
		}
	}
	m.dirty = m.dirty[:0]
}

// unmap drops the mapped entry i of table t: the frame loses this image's
// reference and the page reads zero until it is next written.
func (m *Memory) unmap(t *table, i uint64) {
	m.unref(t[i])
	t[i] = nil
	m.resident--
}

// Discard unmaps every whole page inside [addr, addr+n), as madvise's
// MADV_DONTNEED does, and reports how many were mapped. Each frame loses
// this image's reference: a frame a fork still maps stays the fork's, and
// one that loses its last reference goes onto the free list. The page
// reads zero until it is next written. A partial page at either end of the
// range keeps its bytes: callers clear those with Zero. A discarded page
// counts as written for the watch window and for RestoreTo, which maps
// the parent's page back.
func (m *Memory) Discard(addr uint64, n int) int {
	if n <= 0 {
		return 0
	}
	lo := (addr + PageSize - 1) >> PageShift
	hi := (addr + uint64(n)) >> PageShift
	dropped := 0
	for pn := lo; pn < hi; pn++ {
		t := m.table(pn >> tableShift)
		if t == nil || t[pn&tableMask] == nil {
			continue
		}
		m.unmap(t, pn&tableMask)
		dropped++
		if m.watchBits != nil {
			m.markWatched(pn)
		}
		if m.trackDirty {
			m.dirty = append(m.dirty, pn)
		}
	}
	return dropped
}

func checkAddr(addr uint64, n int) error {
	if addr < PageSize {
		return ErrNullPage
	}
	if n < 0 || addr+uint64(n) < addr {
		return fmt.Errorf("mem: address overflow at %#x+%d", addr, n)
	}
	return nil
}

// LoadByte reads one byte. Reading an unmapped (never written) page returns
// zero, matching demand-zero semantics.
func (m *Memory) LoadByte(addr uint64) (byte, error) {
	if addr < PageSize {
		return 0, ErrNullPage
	}
	var pg *page
	if pn, tn := addr>>PageShift, addr>>(PageShift+tableShift); tn < uint64(len(m.dir)) {
		if t := m.dir[tn]; t != nil {
			pg = t[pn&tableMask]
		}
	} else {
		pg = m.frame(pn)
	}
	if pg == nil {
		return 0, nil
	}
	return pg.data[addr&(PageSize-1)], nil
}

// PageView returns a read-only view of the mapped page pn, or nil when
// the page is absent (absent memory reads as zero). The view aliases live
// page storage: callers must not write through it and must not hold it
// across any operation that could remap pages.
func (m *Memory) PageView(pn uint64) []byte {
	if pg := m.frame(pn); pg != nil {
		return pg.data[:]
	}
	return nil
}

// StoreByte writes one byte, mapping or privatizing the page as needed.
func (m *Memory) StoreByte(addr uint64, v byte) error {
	if addr < PageSize {
		return ErrNullPage
	}
	pg, err := m.writablePage(addr >> PageShift)
	if err != nil {
		return err
	}
	pg.data[addr&(PageSize-1)] = v
	return nil
}

// Read copies n bytes starting at addr into a fresh slice.
func (m *Memory) Read(addr uint64, n int) ([]byte, error) {
	if err := checkAddr(addr, n); err != nil {
		return nil, err
	}
	out := make([]byte, n)
	if err := m.ReadInto(addr, out); err != nil {
		return nil, err
	}
	return out, nil
}

// ReadInto fills dst with the bytes at addr.
func (m *Memory) ReadInto(addr uint64, dst []byte) error {
	if err := checkAddr(addr, len(dst)); err != nil {
		return err
	}
	for len(dst) > 0 {
		off := addr & (PageSize - 1)
		n := PageSize - int(off)
		if n > len(dst) {
			n = len(dst)
		}
		if pg := m.frame(addr >> PageShift); pg != nil {
			copy(dst[:n], pg.data[off:off+uint64(n)])
		} else {
			clear(dst[:n])
		}
		dst = dst[n:]
		addr += uint64(n)
	}
	return nil
}

// Write stores src at addr.
func (m *Memory) Write(addr uint64, src []byte) error {
	if err := checkAddr(addr, len(src)); err != nil {
		return err
	}
	for len(src) > 0 {
		off := addr & (PageSize - 1)
		n := PageSize - int(off)
		if n > len(src) {
			n = len(src)
		}
		pg, err := m.writablePage(addr >> PageShift)
		if err != nil {
			return err
		}
		copy(pg.data[off:off+uint64(n)], src[:n])
		src = src[n:]
		addr += uint64(n)
	}
	return nil
}

// ReadUint reads a little-endian unsigned integer of size 1, 2, 4 or 8.
func (m *Memory) ReadUint(addr uint64, size int) (uint64, error) {
	if addr < PageSize {
		return 0, ErrNullPage
	}
	// Fast path: the value sits within one page.
	off := addr & (PageSize - 1)
	if int(off)+size <= PageSize {
		var pg *page // the walk in line, as in LoadByte
		if pn, tn := addr>>PageShift, addr>>(PageShift+tableShift); tn < uint64(len(m.dir)) {
			if t := m.dir[tn]; t != nil {
				pg = t[pn&tableMask]
			}
		} else {
			pg = m.frame(pn)
		}
		if pg == nil {
			return 0, nil
		}
		// The length tests repeat the page-fit test above in a form the
		// compiler can prove, so the loads carry no bounds checks.
		b := pg.data[off:]
		switch size {
		case 1:
			return uint64(pg.data[off]), nil
		case 2:
			if len(b) >= 2 {
				return uint64(binary.LittleEndian.Uint16(b)), nil
			}
		case 4:
			if len(b) >= 4 {
				return uint64(binary.LittleEndian.Uint32(b)), nil
			}
		case 8:
			if len(b) >= 8 {
				return binary.LittleEndian.Uint64(b), nil
			}
		}
	}
	var buf [8]byte
	if err := m.ReadInto(addr, buf[:size]); err != nil {
		return 0, err
	}
	var v uint64
	for i := size - 1; i >= 0; i-- {
		v = v<<8 | uint64(buf[i])
	}
	return v, nil
}

// WriteUint stores a little-endian unsigned integer of size 1, 2, 4 or 8.
func (m *Memory) WriteUint(addr uint64, v uint64, size int) error {
	if addr < PageSize {
		return ErrNullPage
	}
	off := addr & (PageSize - 1)
	if int(off)+size <= PageSize {
		pg, err := m.writablePage(addr >> PageShift)
		if err != nil {
			return err
		}
		b := pg.data[off:] // length tests as in ReadUint
		switch size {
		case 1:
			pg.data[off] = byte(v)
			return nil
		case 2:
			if len(b) >= 2 {
				binary.LittleEndian.PutUint16(b, uint16(v))
				return nil
			}
		case 4:
			if len(b) >= 4 {
				binary.LittleEndian.PutUint32(b, uint32(v))
				return nil
			}
		case 8:
			if len(b) >= 8 {
				binary.LittleEndian.PutUint64(b, v)
				return nil
			}
		}
	}
	var buf [8]byte
	for i := 0; i < size; i++ {
		buf[i] = byte(v >> (8 * i))
	}
	return m.Write(addr, buf[:size])
}

// Zero clears n bytes starting at addr. Pages not yet mapped are left
// unmapped (they already read as zero).
func (m *Memory) Zero(addr uint64, n int) error {
	if err := checkAddr(addr, n); err != nil {
		return err
	}
	for n > 0 {
		off := addr & (PageSize - 1)
		cn := PageSize - int(off)
		if cn > n {
			cn = n
		}
		pn := addr >> PageShift
		if pg := m.frame(pn); pg != nil {
			if pg.refs > 1 {
				var err error
				if pg, err = m.writablePage(pn); err != nil {
					return err
				}
			} else if m.watchBits != nil {
				m.markWatched(pn)
			}
			clear(pg.data[off : off+uint64(cn)])
		}
		n -= cn
		addr += uint64(cn)
	}
	return nil
}
