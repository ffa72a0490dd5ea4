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
// themselves.
package mem

import (
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

// Memory is a sparse, paged address space. The zero page (addresses below
// PageSize) is never mapped; accesses to it fault, which is how the VM's
// sanitizer turns NULL dereferences into reports.
type Memory struct {
	pages map[uint64]*page
	// limit is the maximum number of resident pages; exceeding it reports
	// an out-of-memory condition instead of letting a runaway target eat
	// the host.
	limit int
	// epoch counts page-table shape changes: a page mapped, privatized,
	// re-shared, released or newly shared with a fork. Any cached page
	// translation (TLB) is only valid while the epoch it was filled under
	// still matches. Page CONTENT writes do not bump the epoch — a
	// translation caches the frame, not the bytes.
	epoch uint64
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
	return &Memory{pages: make(map[uint64]*page), limit: DefaultPageLimit}
}

// NewMemoryLimit returns an empty address space bounded to limit pages.
func NewMemoryLimit(limit int) *Memory {
	if limit <= 0 {
		limit = DefaultPageLimit
	}
	return &Memory{pages: make(map[uint64]*page), limit: limit}
}

// Pages reports the number of resident pages (shared pages count once per
// image that maps them, as in a real page table).
func (m *Memory) Pages() int { return len(m.pages) }

// MappedPages returns the numbers of every resident page in ascending
// order (image-equivalence checks; read each one with PageView).
func (m *Memory) MappedPages() []uint64 {
	out := make([]uint64, 0, len(m.pages))
	for pn := range m.pages {
		out = append(out, pn)
	}
	slices.Sort(out)
	return out
}

// Fork produces a copy-on-write duplicate of the address space: the page
// table is copied and every page becomes shared. This is the cost an AFL++
// forkserver pays per test case; it is O(resident pages) regardless of how
// little the test case will touch. The child has no watch window, whatever
// the parent's: a caller that needs the write barrier re-arms it with Watch
// (the ClosureX harness does so in harness.Fork).
func (m *Memory) Fork() *Memory {
	child := &Memory{pages: make(map[uint64]*page, len(m.pages)), limit: m.limit}
	for pn, pg := range m.pages {
		pg.refs++
		child.pages[pn] = pg
	}
	// Every parent page just became shared: cached writable translations
	// into them must die, or a cached write would bleed into the child.
	m.epoch++
	return child
}

// Release drops every page reference held by this image. A forked child
// calls Release when the test case finishes, which is the analogue of
// process tear-down.
func (m *Memory) Release() {
	for pn, pg := range m.pages {
		pg.refs--
		delete(m.pages, pn)
	}
	m.epoch++
}

// mapPage returns the page for addr, allocating a private zeroed page on
// first touch.
func (m *Memory) mapPage(pn uint64) (*page, error) {
	if pg, ok := m.pages[pn]; ok {
		return pg, nil
	}
	if len(m.pages) >= m.limit {
		return nil, ErrNoMemory
	}
	pg := &page{refs: 1}
	m.pages[pn] = pg
	m.epoch++
	if m.trackDirty {
		m.dirty = append(m.dirty, pn)
	}
	return pg, nil
}

// writablePage returns a page that is private to this image, performing the
// copy-on-write duplication if the page is shared.
func (m *Memory) writablePage(pn uint64) (*page, error) {
	pg, err := m.mapPage(pn)
	if err != nil {
		return nil, err
	}
	if m.watchBits != nil {
		m.markWatched(pn)
	}
	if pg.refs > 1 {
		dup := &page{refs: 1}
		dup.data = pg.data
		pg.refs--
		m.pages[pn] = dup
		m.epoch++
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
	m.watchBits = make([]uint64, (m.watchHi-m.watchLo+63)/64)
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
// parent also maps are re-shared copy-on-write, pages the parent lacks are
// unmapped. Cost is O(dirty pages) — the kernel-snapshot restore path,
// cheaper than a fork (O(all resident pages)) but page-granular, unlike
// ClosureX's byte-granular restoration.
func (m *Memory) RestoreTo(parent *Memory) {
	for _, pn := range m.dirty {
		pg := m.pages[pn]
		tp := parent.pages[pn]
		if pg == nil || pg == tp {
			continue // duplicate dirty entry already handled
		}
		pg.refs--
		if tp != nil {
			tp.refs++
			m.pages[pn] = tp
		} else {
			delete(m.pages, pn)
		}
	}
	m.dirty = m.dirty[:0]
	// Both page tables changed shape: ours re-shared/unmapped pages, and
	// the parent's previously-private pages may now be shared again.
	m.epoch++
	parent.epoch++
}

// Epoch returns the page-table epoch. Cached translations (TLB entries)
// filled under an older epoch must be discarded.
func (m *Memory) Epoch() uint64 { return m.epoch }

// WatchArmed reports whether the write barrier is armed. Callers that
// write page data directly through a cached translation must consult it
// and call MarkWatched on every write while it is armed.
func (m *Memory) WatchArmed() bool { return m.watchBits != nil }

// MarkWatched records a write to page pn against the armed watch barrier.
// No-op when the barrier is disarmed or pn is outside the watched window;
// that disarmed/out-of-window path is the entire hot-path cost.
func (m *Memory) MarkWatched(pn uint64) {
	if m.watchBits == nil || pn < m.watchLo || pn >= m.watchHi {
		return
	}
	m.setWatchBit(pn)
}

// ---- translation lookaside buffer ----

// TLBBits sizes the direct-mapped translation cache (64 entries covers
// 256 KiB of working set at 4 KiB pages).
const TLBBits = 6

// TLBSize is the entry count of a TLB.
const TLBSize = 1 << TLBBits

// TLBEntry caches one page translation. Tag is pn+1 (0 = empty). Data
// points at the page frame, or is nil for a cached "unmapped" verdict
// (demand-zero reads); W marks the frame private and safe to write
// through. An entry is only meaningful while the owning TLB's Epoch
// matches the Memory's.
type TLBEntry struct {
	Tag  uint64
	Data *[PageSize]byte
	W    bool
}

// TLB is a per-executor direct-mapped page-translation cache. Execution
// backends embed one per machine and consult it inline; Fill/FillW are
// the miss paths. The zero value is ready to use (every entry empty,
// epoch 0 — the first epoch mismatch or empty tag forces a fill).
type TLB struct {
	Epoch uint64
	E     [TLBSize]TLBEntry
}

// reset empties every entry and adopts the given epoch.
func (t *TLB) reset(epoch uint64) {
	*t = TLB{Epoch: epoch}
}

// TLBFill resolves a read translation for page pn into t and returns the
// entry. Unmapped pages cache a nil-Data entry (reads are demand-zero);
// the entry's W reports whether it is also write-safe.
func (m *Memory) TLBFill(t *TLB, pn uint64) *TLBEntry {
	if t.Epoch != m.epoch {
		t.reset(m.epoch)
	}
	e := &t.E[pn&(TLBSize-1)]
	pg := m.pages[pn]
	if pg == nil {
		e.Tag, e.Data, e.W = pn+1, nil, false
		return e
	}
	e.Tag, e.Data, e.W = pn+1, &pg.data, pg.refs == 1
	return e
}

// TLBFillW resolves a writable translation for page pn into t, mapping or
// privatizing the page as needed (which may advance the epoch — the TLB
// is resynced afterwards). The returned entry always has W set. The
// caller must still honor the watch barrier (WatchArmed/MarkWatched) on
// every write made through the cached entry; this fill itself records the
// write the caller is about to perform.
func (m *Memory) TLBFillW(t *TLB, pn uint64) (*TLBEntry, error) {
	pg, err := m.writablePage(pn)
	if err != nil {
		return nil, err
	}
	if t.Epoch != m.epoch {
		t.reset(m.epoch)
	}
	e := &t.E[pn&(TLBSize-1)]
	e.Tag, e.Data, e.W = pn+1, &pg.data, true
	return e, nil
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
	pg, ok := m.pages[addr>>PageShift]
	if !ok {
		return 0, nil
	}
	return pg.data[addr&(PageSize-1)], nil
}

// PageView returns a read-only view of the mapped page pn, or nil when
// the page is absent (absent memory reads as zero). The view aliases live
// page storage: callers must not write through it and must not hold it
// across any operation that could remap pages.
func (m *Memory) PageView(pn uint64) []byte {
	if pg, ok := m.pages[pn]; ok {
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
		if pg, ok := m.pages[addr>>PageShift]; ok {
			copy(dst[:n], pg.data[off:off+uint64(n)])
		} else {
			for i := 0; i < n; i++ {
				dst[i] = 0
			}
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
		pg := m.pages[addr>>PageShift]
		if pg == nil {
			return 0, nil
		}
		b := pg.data[off:]
		switch size {
		case 1:
			return uint64(b[0]), nil
		case 2:
			return uint64(b[0]) | uint64(b[1])<<8, nil
		case 4:
			return uint64(b[0]) | uint64(b[1])<<8 | uint64(b[2])<<16 | uint64(b[3])<<24, nil
		case 8:
			return uint64(b[0]) | uint64(b[1])<<8 | uint64(b[2])<<16 | uint64(b[3])<<24 |
				uint64(b[4])<<32 | uint64(b[5])<<40 | uint64(b[6])<<48 | uint64(b[7])<<56, nil
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
		b := pg.data[off:]
		switch size {
		case 1:
			b[0] = byte(v)
			return nil
		case 2:
			b[0], b[1] = byte(v), byte(v>>8)
			return nil
		case 4:
			b[0], b[1], b[2], b[3] = byte(v), byte(v>>8), byte(v>>16), byte(v>>24)
			return nil
		case 8:
			b[0], b[1], b[2], b[3] = byte(v), byte(v>>8), byte(v>>16), byte(v>>24)
			b[4], b[5], b[6], b[7] = byte(v>>32), byte(v>>40), byte(v>>48), byte(v>>56)
			return nil
		}
	}
	var buf [8]byte
	for i := 0; i < size; i++ {
		buf[i] = byte(v >> (8 * i))
	}
	return m.Write(addr, buf[:size])
}

// Zero clears n bytes starting at addr. Pages that are entirely covered and
// not yet mapped are left unmapped (they already read as zero).
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
		if pg, ok := m.pages[pn]; ok {
			if off == 0 && cn == PageSize && pg.refs == 1 {
				if m.watchBits != nil {
					m.markWatched(pn)
				}
				pg.data = [PageSize]byte{}
			} else {
				wp, err := m.writablePage(pn)
				if err != nil {
					return err
				}
				for i := uint64(0); i < uint64(cn); i++ {
					wp.data[off+i] = 0
				}
			}
		}
		n -= cn
		addr += uint64(cn)
	}
	return nil
}
