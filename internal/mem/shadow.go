package mem

// Shadow is an ASan-style shadow plane over the heap segment: one shadow
// byte describes each 8-byte granule of application memory. The plane is
// sparse — shadow pages materialize on first poison/unpoison — because the
// fresh-process mechanism and the divergence sentinel build a whole VM per
// execution and must not pay for a flat shadow up front. Only the page
// index, one pointer per shadow page of the span (8 KiB for the 32 MiB
// heap), is allocated up front. An absent shadow page means "never
// allocated", which reads back as ShadowUnallocated.
//
// Encoding (per shadow byte):
//
//	0        the whole 8-byte granule is addressable
//	1..7     only the first k bytes of the granule are addressable
//	ShadowRedzone      redzone between chunks (right redzone / alignment gap)
//	ShadowFreed        granule belongs to a quarantined (freed) chunk
//	ShadowUnallocated  heap space never handed out (also the absent default)
type Shadow struct {
	base uint64 // first heap address covered
	end  uint64 // first address past the covered span

	// pages indexes the materialized shadow pages by shadow-page number,
	// ((addr-base)>>ShadowScale)>>PageShift, so one shadow page covers
	// PageSize<<ShadowScale (32 KiB) of heap; nil means absent. The slice
	// has one entry per page of the span plus one (1,025 for a 32 MiB
	// heap), so a lookup is a slice load rather than a map hash.
	pages []*shadowPage

	// spare holds pages RestoreDirty unlinked because the snapshot lacked
	// them. page() reuses them before allocating, so the rollback loop —
	// an iteration mallocs into a fresh shadow page, the restore drops it —
	// allocates nothing in steady state. Spare pages are never reachable
	// from pages and never shared with a clone.
	spare []*shadowPage

	// Dirty tracking for the harness: mirrors the Memory watch machinery.
	// When armed, the first mutation of each shadow page records it in
	// watchList so restore touches only pages the iteration changed.
	watchBits []uint64
	watchList []uint64
}

type shadowPage struct {
	data [PageSize]byte
}

// unallocatedPage is the contents of a page that was never written: every
// byte ShadowUnallocated. New and reused pages are filled from it with one
// copy.
var unallocatedPage = func() (p [PageSize]byte) {
	for i := range p {
		p[i] = ShadowUnallocated
	}
	return p
}()

// Shadow poison codes. Values 0..7 encode addressability; codes >= 0xf0
// classify why a granule is off-limits.
const (
	ShadowRedzone     = 0xfa
	ShadowFreed       = 0xfd
	ShadowUnallocated = 0xfc
)

// ShadowScale is log2 of the granule size: 1 shadow byte per 8 app bytes.
const ShadowScale = 3

// ShadowGranule is the granule size in bytes.
const ShadowGranule = 1 << ShadowScale

// NewShadow creates a shadow plane over the heap span [base, end). The page
// index has a slot per shadow page of the span plus one, so an access
// straddling the span's last granule still indexes.
func NewShadow(base, end uint64) *Shadow {
	npages := ((end - base) >> ShadowScale >> PageShift) + 1
	return &Shadow{base: base, end: end, pages: make([]*shadowPage, npages)}
}

// Covers reports whether addr falls inside the shadowed span.
func (s *Shadow) Covers(addr uint64) bool { return addr >= s.base && addr < s.end }

// locate splits a heap address into shadow page index and in-page offset.
func (s *Shadow) locate(addr uint64) (uint64, int) {
	g := (addr - s.base) >> ShadowScale
	return g >> PageShift, int(g & (PageSize - 1))
}

// page returns the materialized shadow page pn, creating it (filled with
// ShadowUnallocated, from a spare page when one is left over from a
// restore) on first write. Marks the page dirty when watched, so every
// watched page is materialized.
func (s *Shadow) page(pn uint64) *shadowPage {
	if s.watchBits != nil {
		s.markWatched(pn)
	}
	pg := s.pages[pn]
	if pg == nil {
		if n := len(s.spare); n > 0 {
			pg = s.spare[n-1]
			s.spare = s.spare[:n-1]
		} else {
			pg = new(shadowPage)
		}
		pg.data = unallocatedPage
		s.pages[pn] = pg
	}
	return pg
}

// shadowByte reads the shadow byte for the granule containing addr; a
// granule past the indexed span reads as unallocated, like an absent page.
func (s *Shadow) shadowByte(addr uint64) byte {
	pn, off := s.locate(addr)
	if pn < uint64(len(s.pages)) {
		if pg := s.pages[pn]; pg != nil {
			return pg.data[off]
		}
	}
	return ShadowUnallocated
}

// set writes shadow bytes for n consecutive granules starting at the
// granule containing addr, one in-page run at a time.
func (s *Shadow) set(addr uint64, granules int, code byte) {
	for granules > 0 {
		pn, off := s.locate(addr)
		run := s.page(pn).data[off:min(off+granules, PageSize)]
		if code == 0 {
			clear(run)
		} else {
			for i := range run {
				run[i] = code
			}
		}
		granules -= len(run)
		addr += uint64(len(run)) << ShadowScale
	}
}

// Unpoison marks [addr, addr+size) addressable. addr must be granule
// aligned (the allocator's chunkAlign guarantees this). A trailing partial
// granule gets the 1..7 partial encoding so overruns inside the last word
// are still caught.
func (s *Shadow) Unpoison(addr, size uint64) {
	if size == 0 {
		return
	}
	full := size >> ShadowScale
	if full > 0 {
		s.set(addr, int(full), 0)
	}
	if rem := size & (ShadowGranule - 1); rem != 0 {
		s.set(addr+(full<<ShadowScale), 1, byte(rem))
	}
}

// Poison marks the granules of [addr, addr+size) off-limits with code,
// rounding size up to whole granules.
func (s *Shadow) Poison(addr, size uint64, code byte) {
	if size == 0 {
		return
	}
	granules := int((size + ShadowGranule - 1) >> ShadowScale)
	s.set(addr, granules, code)
}

// Check validates an n-byte access at addr (n <= 8, so the access spans at
// most two granules). It returns (0, true) when the access is addressable,
// or the offending poison code and false. A partial-granule overrun
// returns ShadowRedzone, since the bytes past the valid prefix are the
// chunk's tail redzone.
func (s *Shadow) Check(addr uint64, n int) (byte, bool) {
	if n <= 0 {
		return 0, true
	}
	last := addr + uint64(n) - 1
	k := s.shadowByte(addr)
	if k != 0 {
		if k >= 8 {
			return k, false
		}
		// Partial granule: only bytes [0,k) are valid, so the access must
		// end inside the prefix. A spanning access (off+n > 8 > k) fails
		// here too, which is right: bytes k..7 are the tail redzone.
		if (addr&(ShadowGranule-1))+uint64(n) > uint64(k) {
			return ShadowRedzone, false
		}
	}
	if (addr >> ShadowScale) != (last >> ShadowScale) {
		k2 := s.shadowByte(last)
		if k2 != 0 {
			if k2 >= 8 {
				return k2, false
			}
			if (last&(ShadowGranule-1))+1 > uint64(k2) {
				return ShadowRedzone, false
			}
		}
	}
	return 0, true
}

// Clone deep-copies the shadow plane (for VM forks and snapshot restore).
// An armed dirty-tracking window carries over, same size and empty, so a
// forked harness image keeps rolling back the shadow pages it mutates.
func (s *Shadow) Clone() *Shadow {
	ns := NewShadow(s.base, s.end)
	copyPages(ns.pages, s.pages)
	if s.watchBits != nil {
		ns.watchBits = make([]uint64, len(s.watchBits))
	}
	return ns
}

// --- dirty tracking + snapshot/restore (harness integration) ---

// copyPages deep-copies every materialized page of src into dst (same
// length), leaving absent pages absent.
func copyPages(dst, src []*shadowPage) {
	for pn, pg := range src {
		if pg != nil {
			cp := *pg
			dst[pn] = &cp
		}
	}
}

// ShadowSnapshot is a point-in-time deep copy of the shadow plane,
// captured by the harness after deferred initialization. Its pages slice
// is indexed like the live plane's.
type ShadowSnapshot struct {
	pages []*shadowPage
}

// Snapshot captures the current shadow contents and arms dirty tracking,
// so a later RestoreDirty touches only pages mutated since this call.
func (s *Shadow) Snapshot() *ShadowSnapshot {
	snap := &ShadowSnapshot{pages: make([]*shadowPage, len(s.pages))}
	copyPages(snap.pages, s.pages)
	s.watchBits = make([]uint64, (len(s.pages)+63)/64)
	s.watchList = s.watchList[:0]
	return snap
}

func (s *Shadow) markWatched(pn uint64) {
	w, b := pn/64, pn%64
	if int(w) >= len(s.watchBits) {
		return
	}
	if s.watchBits[w]&(1<<b) == 0 {
		s.watchBits[w] |= 1 << b
		s.watchList = append(s.watchList, pn)
	}
}

// DirtyPages returns how many shadow pages have been mutated since the
// last Snapshot/ResetWatch.
func (s *Shadow) DirtyPages() int { return len(s.watchList) }

// RestoreDirty rolls every shadow page mutated since the last watch reset
// back to its snapshot contents in place, then re-arms tracking. Pages
// that did not exist at snapshot time are dropped (back to the
// absent/unallocated default) onto the spare list for page() to reuse.
// Returns the number of pages restored.
func (s *Shadow) RestoreDirty(snap *ShadowSnapshot) int {
	for _, pn := range s.watchList {
		pg := s.pages[pn] // watched, so materialized
		if orig := snap.pages[pn]; orig != nil {
			pg.data = orig.data
		} else {
			s.pages[pn] = nil
			s.spare = append(s.spare, pg)
		}
	}
	n := len(s.watchList)
	s.ResetWatch()
	return n
}

// ResetWatch clears the dirty set without restoring anything.
func (s *Shadow) ResetWatch() {
	for _, pn := range s.watchList {
		w, b := pn/64, pn%64
		if int(w) < len(s.watchBits) {
			s.watchBits[w] &^= 1 << b
		}
	}
	s.watchList = s.watchList[:0]
}

// Equal reports whether the live shadow matches the snapshot — the restore
// watchdog's invariant check. Pages absent on either side compare equal
// only if the other side is entirely ShadowUnallocated.
func (s *Shadow) Equal(snap *ShadowSnapshot) bool {
	for pn, pg := range s.pages {
		if !shadowPagesEqual(pg, snap.pages[pn]) {
			return false
		}
	}
	return true
}

func shadowPagesEqual(a, b *shadowPage) bool {
	if a == nil && b == nil {
		return true
	}
	if a == nil {
		a, b = b, a
	}
	if b == nil {
		return a.data == unallocatedPage
	}
	return a.data == b.data
}
