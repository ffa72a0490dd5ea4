package mem

import (
	"bytes"
	"errors"
	"math/rand"
	"slices"
	"testing"
)

// The page table must behave like a flat byte array per image, whatever
// mix of writes, forks (of forks), releases in any order and snapshot
// restores runs against it, and every frame's reference count must equal
// the number of live images that map it. Discard unmaps the whole pages of
// a range and leaves partial ones alone: a discarded page reads zero, a
// frame a fork still maps keeps the fork's reference, and one whose last
// reference goes lands on the free list. Released frames and tables are
// recycled through the free list forks share: a frame on it has no
// references, is mapped by no live image and is listed once, and a frame
// drawn from it reads as the model says — zero on a first touch, the
// parent's bytes on a copy-on-write fault. The addresses land on both sides
// of the first table boundaries (511/512, 1023/1024), both sides of the
// dense directory's end, and two far pages above 1<<40.
var pageTablePages = []uint64{
	1, 511, 512, 1023, 1024, 1025,
	denseTables<<tableShift - 1, denseTables << tableShift,
	1 << 40, 1<<40 + 1,
}

// ptImage pairs a Memory with its model: the bytes of every page the
// image maps (absent pages are unmapped and read as zero).
type ptImage struct {
	m     *Memory
	pages map[uint64]*[PageSize]byte
	limit int
	// snapOf is the image this one is TrackDirty-forked from and may be
	// restored to; frozen counts such children. A frozen image is neither
	// written nor released, so everything its snapshot children changed
	// is in their dirty lists and a restore makes them equal to it.
	snapOf *ptImage
	frozen int
	depth  int // forks between this image and its root
}

func (im *ptImage) clone(m *Memory) *ptImage {
	c := &ptImage{m: m, pages: map[uint64]*[PageSize]byte{}, limit: im.limit, depth: im.depth + 1}
	for pn, d := range im.pages {
		cp := *d
		c.pages[pn] = &cp
	}
	return c
}

// write applies src at addr page by page, stopping before a page that
// would pass the limit, as Memory.Write does; it reports whether all of
// src was written.
func (im *ptImage) write(addr uint64, src []byte) bool {
	for len(src) > 0 {
		pn, off := addr>>PageShift, int(addr&(PageSize-1))
		n := min(len(src), PageSize-off)
		d := im.pages[pn]
		if d == nil {
			if len(im.pages) >= im.limit {
				return false
			}
			d = new([PageSize]byte)
			im.pages[pn] = d
		}
		copy(d[off:], src[:n])
		src, addr = src[n:], addr+uint64(n)
	}
	return true
}

// zero clears n bytes at addr on the pages the image maps.
func (im *ptImage) zero(addr uint64, n int) {
	for n > 0 {
		pn, off := addr>>PageShift, int(addr&(PageSize-1))
		c := min(n, PageSize-off)
		if d := im.pages[pn]; d != nil {
			clear(d[off : off+c])
		}
		n, addr = n-c, addr+uint64(c)
	}
}

func (im *ptImage) read(addr uint64, n int) []byte {
	out := make([]byte, n)
	for i := range out {
		a := addr + uint64(i)
		if d := im.pages[a>>PageShift]; d != nil {
			out[i] = d[a&(PageSize-1)]
		}
	}
	return out
}

type ptChecker struct {
	t    *testing.T
	rng  *rand.Rand
	op   int
	live []*ptImage
	// what the run reached, so the test can insist it is not vacuous
	limitHit, forkOfFork, restores int
	// single-page writes served by a recycled frame: first touches and
	// copy-on-write faults
	recycledZero, recycledCoW int
	// discarded frames a fork still mapped, and frames whose last
	// reference the discard dropped
	discardShared, discardLast int
}

// writeFault is what a write to one page does to an image's table.
type writeFault int

const (
	noFault    writeFault = iota
	firstTouch            // maps a demand-zero frame
	cowFault              // privatizes a shared frame
)

// fault classifies a write to page pn of im before it happens.
func fault(im *ptImage, pn uint64) writeFault {
	switch pg := im.m.frame(pn); {
	case pg == nil:
		return firstTouch
	case pg.refs > 1:
		return cowFault
	}
	return noFault
}

// freeFrames is the length of im's free list of frames (0 with none).
func freeFrames(im *ptImage) int {
	if im.m.free == nil {
		return 0
	}
	return len(im.m.free.frames)
}

// countRecycled records a single-page write at a whose frame came off the
// free list, given the fault it was classified as and the list's length
// before it.
func (c *ptChecker) countRecycled(im *ptImage, f writeFault, before int) {
	if freeFrames(im) != before-1 {
		return
	}
	switch f {
	case firstTouch:
		c.recycledZero++
	case cowFault:
		c.recycledCoW++
	}
}

func (c *ptChecker) fail(format string, args ...any) {
	c.t.Helper()
	c.t.Fatalf("op %d: "+format, append([]any{c.op}, args...)...)
}

func (c *ptChecker) addr() uint64 {
	pn := pageTablePages[c.rng.Intn(len(pageTablePages))]
	off := uint64(c.rng.Intn(PageSize))
	if c.rng.Intn(3) == 0 {
		off = PageSize - 1 - uint64(c.rng.Intn(8)) // straddle the next page
	}
	return pn<<PageShift + off
}

func (c *ptChecker) pick() *ptImage { return c.live[c.rng.Intn(len(c.live))] }

// pickWritable returns a live image that is not frozen, or nil.
func (c *ptChecker) pickWritable() *ptImage {
	im := c.pick()
	if im.frozen > 0 {
		return nil
	}
	return im
}

// expectWrite checks a write's error against the model's verdict.
func (c *ptChecker) expectWrite(what string, err error, ok bool) {
	c.t.Helper()
	switch {
	case ok && err != nil:
		c.fail("%s: %v", what, err)
	case !ok && !errors.Is(err, ErrNoMemory):
		c.fail("%s past the page limit: err = %v, want ErrNoMemory", what, err)
	case !ok:
		c.limitHit++
	}
}

func (c *ptChecker) step() {
	c.t.Helper()
	c.op++
	switch c.rng.Intn(13) {
	case 0, 1: // StoreByte
		im := c.pickWritable()
		if im == nil {
			return
		}
		a, v := c.addr(), byte(c.rng.Intn(256))
		f, before := fault(im, a>>PageShift), freeFrames(im)
		c.expectWrite("StoreByte", im.m.StoreByte(a, v), im.write(a, []byte{v}))
		c.countRecycled(im, f, before)
	case 2, 3: // Write, sometimes over several pages
		im := c.pickWritable()
		if im == nil {
			return
		}
		a := c.addr()
		buf := make([]byte, c.rng.Intn(64))
		if c.rng.Intn(4) == 0 {
			buf = make([]byte, c.rng.Intn(3*PageSize))
		}
		c.rng.Read(buf)
		c.expectWrite("Write", im.m.Write(a, buf), im.write(a, buf))
	case 4: // WriteUint
		im := c.pickWritable()
		if im == nil {
			return
		}
		a, v := c.addr(), c.rng.Uint64()
		size := []int{1, 2, 4, 8}[c.rng.Intn(4)]
		le := make([]byte, size)
		for i := range le {
			le[i] = byte(v >> (8 * i))
		}
		f, before := fault(im, a>>PageShift), freeFrames(im)
		c.expectWrite("WriteUint", im.m.WriteUint(a, v, size), im.write(a, le))
		if (a+uint64(size)-1)>>PageShift == a>>PageShift {
			c.countRecycled(im, f, before)
		}
	case 5: // Zero, sometimes a whole page
		im := c.pickWritable()
		if im == nil {
			return
		}
		a, n := c.addr(), c.rng.Intn(300)
		if c.rng.Intn(4) == 0 {
			a, n = a&^(PageSize-1), PageSize*(1+c.rng.Intn(2))
		}
		if err := im.m.Zero(a, n); err != nil {
			c.fail("Zero(%#x, %d): %v", a, n, err)
		}
		im.zero(a, n)
	case 6: // reads
		im := c.pick()
		a, n := c.addr(), c.rng.Intn(2*PageSize)
		got, err := im.m.Read(a, n)
		if err != nil || !bytes.Equal(got, im.read(a, n)) {
			c.fail("Read(%#x, %d) differs from the model (err %v)", a, n, err)
		}
		size := []int{1, 2, 4, 8}[c.rng.Intn(4)]
		v, err := im.m.ReadUint(a, size)
		var want uint64
		for i, b := range im.read(a, size) {
			want |= uint64(b) << (8 * i)
		}
		if err != nil || v != want {
			c.fail("ReadUint(%#x, %d) = %#x (err %v), model %#x", a, size, v, err, want)
		}
	case 7, 8: // Fork, of any live image; sometimes a tracked snapshot child
		if len(c.live) >= 6 {
			return
		}
		p := c.pick()
		ch := p.clone(p.m.Fork())
		if ch.depth >= 2 {
			c.forkOfFork++
		}
		if c.rng.Intn(2) == 0 {
			ch.m.TrackDirty(true)
			ch.snapOf = p
			p.frozen++
		}
		c.live = append(c.live, ch)
	case 9: // Release any live image that is not frozen
		im := c.pickWritable()
		if im == nil {
			return
		}
		im.m.Release()
		if im.snapOf != nil {
			im.snapOf.frozen--
		}
		c.live = slices.DeleteFunc(c.live, func(x *ptImage) bool { return x == im })
	case 10: // RestoreTo the snapshot parent
		im := c.pickWritable()
		if im == nil || im.snapOf == nil {
			return
		}
		im.m.RestoreTo(im.snapOf.m)
		im.pages = im.snapOf.clone(nil).pages
		c.restores++
	case 11: // stop tracking, which thaws the parent
		im := c.pick()
		if im.snapOf == nil {
			return
		}
		im.m.TrackDirty(false)
		im.snapOf.frozen--
		im.snapOf = nil
	case 12: // Discard, often whole pages
		im := c.pickWritable()
		if im == nil {
			return
		}
		a, n := c.addr(), c.rng.Intn(3*PageSize)
		if c.rng.Intn(2) == 0 {
			a, n = a&^(PageSize-1), PageSize*(1+c.rng.Intn(2))
		}
		c.discard(im, a, n)
	}
	if len(c.live) == 0 {
		c.live = append(c.live, c.newRoot())
	}
	c.check()
}

// discard runs Discard(a, n) on im and checks what it did to the frames
// of the whole pages inside the range; check then compares the image with
// the model.
func (c *ptChecker) discard(im *ptImage, a uint64, n int) {
	c.t.Helper()
	type mapped struct {
		pg   *page
		refs int32
	}
	var whole []mapped
	for pn := (a + PageSize - 1) >> PageShift; pn < (a+uint64(n))>>PageShift; pn++ {
		if pg := im.m.frame(pn); pg != nil {
			whole = append(whole, mapped{pg, pg.refs})
			delete(im.pages, pn)
		}
	}
	before, free := im.m.Pages(), freeFrames(im)
	if got := im.m.Discard(a, n); got != len(whole) {
		c.fail("Discard(%#x, %d) = %d, model maps %d whole pages there", a, n, got, len(whole))
	}
	if im.m.Pages() != before-len(whole) {
		c.fail("Discard(%#x, %d): Pages %d -> %d, want %d fewer", a, n, before, im.m.Pages(), len(whole))
	}
	freed := 0
	for _, w := range whole {
		switch {
		case w.pg.refs != w.refs-1:
			c.fail("a discarded frame has refs %d, had %d", w.pg.refs, w.refs)
		case w.refs > 1:
			c.discardShared++
		default:
			c.discardLast++
			freed++
		}
	}
	if im.m.free != nil && freeFrames(im) != free+freed {
		c.fail("Discard(%#x, %d) freed %d frames, the free list grew by %d", a, n, freed, freeFrames(im)-free)
	}
}

func (c *ptChecker) newRoot() *ptImage {
	limit := 6 + c.rng.Intn(8) // some roots cannot map every test page
	return &ptImage{m: NewMemoryLimit(limit), pages: map[uint64]*[PageSize]byte{}, limit: limit}
}

// check compares every live image with its model and checks reference
// conservation across them.
func (c *ptChecker) check() {
	c.t.Helper()
	maps := map[*page]int32{}
	for i, im := range c.live {
		want := make([]uint64, 0, len(im.pages))
		for pn := range im.pages {
			want = append(want, pn)
		}
		slices.Sort(want)
		got := im.m.MappedPages()
		if !slices.Equal(got, want) {
			c.fail("image %d: MappedPages = %v, model %v", i, got, want)
		}
		if im.m.Pages() != len(want) {
			c.fail("image %d: Pages = %d, model %d", i, im.m.Pages(), len(want))
		}
		for _, pn := range got {
			if !bytes.Equal(im.m.PageView(pn), im.pages[pn][:]) {
				c.fail("image %d: page %#x differs from the model", i, pn)
			}
			maps[im.m.frame(pn)]++
		}
		for _, pn := range pageTablePages {
			if im.pages[pn] == nil && im.m.PageView(pn) != nil {
				c.fail("image %d: unmapped page %#x has a view", i, pn)
			}
		}
	}
	for pg, n := range maps {
		if pg.refs != n {
			c.fail("a frame has refs %d, mapped by %d live images", pg.refs, n)
		}
	}
	c.checkFree(maps)
}

// checkFree checks every free list a live image shares: its frames have
// no references, are mapped by no live image and are listed once, and its
// tables are no live image's.
func (c *ptChecker) checkFree(maps map[*page]int32) {
	c.t.Helper()
	inUse := map[*table]bool{}
	lists := map[*freeList]bool{}
	for _, im := range c.live {
		im.m.eachTable(func(_ uint64, t *table) { inUse[t] = true })
		if im.m.free != nil {
			lists[im.m.free] = true
		}
	}
	for fl := range lists {
		seen := map[*page]bool{}
		for _, pg := range fl.frames {
			switch {
			case pg.refs != 0:
				c.fail("a free frame has refs %d", pg.refs)
			case maps[pg] > 0:
				c.fail("a free frame is mapped by %d live images", maps[pg])
			case seen[pg]:
				c.fail("a frame is on the free list twice")
			}
			seen[pg] = true
		}
		for _, t := range fl.tables {
			if inUse[t] {
				c.fail("a free page table is a live image's")
			}
		}
	}
}

func TestPageTableProperty(t *testing.T) {
	var limitHit, forkOfFork, restores, recycledZero, recycledCoW, discardShared, discardLast int
	for seed := int64(1); seed <= 40; seed++ {
		c := &ptChecker{t: t, rng: rand.New(rand.NewSource(seed))}
		c.live = []*ptImage{c.newRoot()}
		for i := 0; i < 400; i++ {
			c.step()
		}
		limitHit += c.limitHit
		forkOfFork += c.forkOfFork
		restores += c.restores
		recycledZero += c.recycledZero
		recycledCoW += c.recycledCoW
		discardShared += c.discardShared
		discardLast += c.discardLast
	}
	if limitHit == 0 || forkOfFork == 0 || restores == 0 || recycledZero == 0 || recycledCoW == 0 ||
		discardShared == 0 || discardLast == 0 {
		t.Fatalf("vacuous run: %d writes reached the page limit, %d forks of forks, %d restores, "+
			"%d first touches and %d copy-on-write faults on recycled frames, "+
			"%d shared and %d last-reference frames discarded",
			limitHit, forkOfFork, restores, recycledZero, recycledCoW, discardShared, discardLast)
	}
	t.Logf("%d first touches and %d copy-on-write faults on recycled frames", recycledZero, recycledCoW)
}
