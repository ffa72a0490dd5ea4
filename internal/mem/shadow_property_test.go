package mem

import (
	"bytes"
	"math/rand"
	"slices"
	"testing"
)

// shadowModel is the reference for the shadow plane: one byte per granule
// of the span plus the granule past it (reached by an access straddling
// the span's end), ShadowUnallocated where nothing was ever written. It
// knows nothing of pages beyond which ones a write touched.
type shadowModel struct {
	base  uint64
	bytes []byte
	dirty map[uint64]bool // shadow pages written since the last snapshot/restore
}

func newShadowModel(base, end uint64) *shadowModel {
	b := make([]byte, (end-base)>>ShadowScale+1)
	for i := range b {
		b[i] = ShadowUnallocated
	}
	return &shadowModel{base: base, bytes: b, dirty: map[uint64]bool{}}
}

func (m *shadowModel) set(addr uint64, granules int, code byte) {
	g := (addr - m.base) >> ShadowScale
	for i := uint64(0); i < uint64(granules); i++ {
		m.bytes[g+i] = code
		m.dirty[(g+i)>>PageShift] = true
	}
}

func (m *shadowModel) unpoison(addr, size uint64) {
	m.set(addr, int(size>>ShadowScale), 0)
	if rem := size & (ShadowGranule - 1); rem != 0 {
		m.set(addr+size&^(ShadowGranule-1), 1, byte(rem))
	}
}

func (m *shadowModel) poison(addr, size uint64, code byte) {
	m.set(addr, int((size+ShadowGranule-1)>>ShadowScale), code)
}

// check classifies an n-byte access byte by byte: the first byte that is
// not addressable decides, and a byte past a partial granule's valid
// prefix is redzone.
func (m *shadowModel) check(addr uint64, n int) (byte, bool) {
	for a := addr; a < addr+uint64(n); a++ {
		k := m.bytes[(a-m.base)>>ShadowScale]
		switch {
		case k == 0:
		case k >= ShadowGranule:
			return k, false
		case a&(ShadowGranule-1) >= uint64(k):
			return ShadowRedzone, false
		}
	}
	return 0, true
}

func (m *shadowModel) clone() *shadowModel {
	return &shadowModel{base: m.base, bytes: slices.Clone(m.bytes), dirty: map[uint64]bool{}}
}

// shadowChecker drives one live plane and its model with random ops.
type shadowChecker struct {
	t        *testing.T
	rng      *rand.Rand
	base     uint64
	end      uint64
	reused   bool // a write took its page from the spare list
	restores int
}

// addr picks an address at most end-room, biased to the span's first and
// last shadow page and to page boundaries, where runs split.
func (c *shadowChecker) addr(room uint64) uint64 {
	const pageSpan = uint64(PageSize << ShadowScale)
	span := c.end - c.base - room // highest offset
	var off uint64
	switch c.rng.Intn(4) {
	case 0:
		off = uint64(c.rng.Intn(512))
	case 1:
		off = span - min(span, uint64(c.rng.Intn(512)))
	case 2:
		if k := span / pageSpan; k > 0 {
			off = (1+uint64(c.rng.Int63n(int64(k))))*pageSpan - uint64(c.rng.Intn(256))
		}
	default:
		off = uint64(c.rng.Int63n(int64(span) + 1))
	}
	return c.base + min(off, span)
}

// size picks a write length: mostly chunk-sized, sometimes spanning pages.
func (c *shadowChecker) size() uint64 {
	if c.rng.Intn(8) == 0 {
		return uint64(c.rng.Intn(3 * PageSize << ShadowScale))
	}
	return uint64(c.rng.Intn(300))
}

// write applies one random Poison or Unpoison to both sides.
func (c *shadowChecker) write(s *Shadow, m *shadowModel) {
	spare := len(s.spare)
	n := c.size()
	a := c.addr(n)
	if c.rng.Intn(2) == 0 {
		a &^= ShadowGranule - 1
		s.Unpoison(a, n)
		m.unpoison(a, n)
	} else {
		code := []byte{ShadowRedzone, ShadowFreed, ShadowUnallocated}[c.rng.Intn(3)]
		s.Poison(a, n, code)
		m.poison(a, n, code)
	}
	if len(s.spare) < spare {
		c.reused = true
	}
}

// probe compares random accesses, then every page, with the model.
func (c *shadowChecker) probe(who string, s *Shadow, m *shadowModel) {
	c.t.Helper()
	for i := 0; i < 20; i++ {
		a := c.addr(1) // Check is only asked about covered addresses
		n := 1 + c.rng.Intn(8)
		gc, gok := s.Check(a, n)
		wc, wok := m.check(a, n)
		if gc != wc || gok != wok {
			c.t.Fatalf("%s: Check(%#x, %d) = (%#x, %v), model (%#x, %v)", who, a, n, gc, gok, wc, wok)
		}
	}
	for pn, pg := range s.pages {
		lo := pn << PageShift
		want := m.bytes[lo:min(lo+PageSize, len(m.bytes))]
		got := unallocatedPage[:len(want)]
		if pg != nil {
			got = pg.data[:len(want)]
		}
		if !bytes.Equal(got, want) {
			c.t.Fatalf("%s: shadow page %d differs from the model", who, pn)
		}
	}
}

// structure checks the page bookkeeping: the spare list holds distinct
// pages that no page slot and no snapshot references.
func (c *shadowChecker) structure(who string, s *Shadow, snap *ShadowSnapshot) {
	c.t.Helper()
	linked := map[*shadowPage]bool{}
	for _, pg := range s.pages {
		if pg != nil {
			linked[pg] = true
		}
	}
	if snap != nil {
		for pn, pg := range snap.pages {
			if pg != nil && linked[pg] {
				c.t.Fatalf("%s: snapshot page %d is linked into the live plane", who, pn)
			}
		}
	}
	seen := map[*shadowPage]bool{}
	for _, pg := range s.spare {
		if pg == nil || linked[pg] || seen[pg] {
			c.t.Fatalf("%s: spare list holds a nil, linked or repeated page", who)
		}
		seen[pg] = true
	}
}

func TestShadowModelProperty(t *testing.T) {
	// Three full shadow pages and a partial fourth, so the last page's
	// tail and the straddle past the span's end are exercised.
	base := uint64(0x40000000)
	end := base + 3*uint64(PageSize<<ShadowScale) + 24
	for seed := int64(1); seed <= 20; seed++ {
		c := &shadowChecker{t: t, rng: rand.New(rand.NewSource(seed)), base: base, end: end}
		s, m := NewShadow(base, end), newShadowModel(base, end)
		// Init-time state on the first page only, so the other pages start
		// absent from the snapshot and restores drop them to the spare list.
		s.Unpoison(base+64, 40)
		m.unpoison(base+64, 40)
		snap, snapModel := s.Snapshot(), m.clone()
		m.dirty = map[uint64]bool{}
		for step := 0; step < 400; step++ {
			switch op := c.rng.Intn(40); {
			case op < 24:
				c.write(s, m)
			case op < 25: // retake the snapshot
				snap, snapModel = s.Snapshot(), m.clone()
				m.dirty = map[uint64]bool{}
			case op < 34: // restore, as the harness does after every iteration
				if got := s.DirtyPages(); got != len(m.dirty) {
					t.Fatalf("seed %d step %d: DirtyPages = %d, model %d", seed, step, got, len(m.dirty))
				}
				if got := s.RestoreDirty(snap); got != len(m.dirty) {
					t.Fatalf("seed %d step %d: RestoreDirty = %d pages, model %d", seed, step, got, len(m.dirty))
				}
				m = snapModel.clone()
				c.restores++
			case op < 36:
				if got, want := s.Equal(snap), slices.Equal(m.bytes, snapModel.bytes); got != want {
					t.Fatalf("seed %d step %d: Equal = %v, model %v", seed, step, got, want)
				}
			default: // clone, then write both sides apart
				cl, cm := s.Clone(), m.clone()
				for pn, pg := range s.pages {
					if pg != nil && pg == cl.pages[pn] {
						t.Fatalf("seed %d step %d: clone shares page %d", seed, step, pn)
					}
				}
				if len(cl.spare) != 0 {
					t.Fatalf("seed %d step %d: clone inherited %d spare pages", seed, step, len(cl.spare))
				}
				for i := 0; i < 5; i++ {
					c.write(s, m)
					c.write(cl, cm)
				}
				c.structure("clone", cl, nil)
				c.probe("clone", cl, cm)
			}
			c.structure("plane", s, snap)
			c.probe("plane", s, m)
		}
		if c.restores < 20 || !c.reused {
			t.Fatalf("seed %d: %d restores, spare page reused: %v; the run never recycled a page", seed, c.restores, c.reused)
		}
	}
}
