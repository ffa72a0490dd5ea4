package mem

import (
	"math/rand"
	"slices"
	"testing"
)

// ReadUint, WriteUint, Zero and LoadByte, the interpreter's accessors,
// must behave like a flat byte array per image across forks, snapshot
// restores, Discard and the watch window: every read returns what the
// model holds, no write reaches a page a fork shares, and the watch window
// records exactly the watched pages written or discarded. The reads walk the dense directory in
// line and fall back to the page table's slow path past it, so the
// addresses also land on both sides of a table boundary (511/512), in a
// table past the highest one mapped so far (2563, in table 5; 1025 then
// sits in a dense table that is still absent) and on a far page above
// 1<<40.

// accessPages are the pages the random addresses land on.
var accessPages = []uint64{1, 2, 3, 65, 66, 129, 200, 511, 512, 1025, 2563, 1<<40 + 3}

// flatImage is the reference model of one Memory: a sparse byte map
// (absent reads as zero) plus the set of pages the image has mapped.
type flatImage struct {
	bytes  map[uint64]byte
	mapped map[uint64]bool
}

func newFlatImage() *flatImage {
	return &flatImage{bytes: map[uint64]byte{}, mapped: map[uint64]bool{}}
}

func (f *flatImage) clone() *flatImage {
	c := newFlatImage()
	for a, b := range f.bytes {
		c.bytes[a] = b
	}
	for pn := range f.mapped {
		c.mapped[pn] = true
	}
	return c
}

// accessImage pairs a Memory with its model and, when the watch window is
// armed, the set of watched pages written since the last ResetWatch.
type accessImage struct {
	m              *Memory
	f              *flatImage
	watchLo, watch uint64 // watched page range [watchLo, watch); watch == 0: disarmed
	dirty          map[uint64]bool
}

func (im *accessImage) noteWrite(addr uint64, n int, mapsPages bool) {
	if n <= 0 {
		return
	}
	for pn := addr >> PageShift; pn <= (addr+uint64(n)-1)>>PageShift; pn++ {
		if mapsPages {
			im.f.mapped[pn] = true
		} else if !im.f.mapped[pn] {
			continue // Zero leaves unmapped pages alone
		}
		if im.watch != 0 && pn >= im.watchLo && pn < im.watch {
			im.dirty[pn] = true
		}
	}
}

type accessChecker struct {
	t   *testing.T
	rng *rand.Rand
	op  int
}

func (c *accessChecker) addr() uint64 {
	pn := accessPages[c.rng.Intn(len(accessPages))]
	off := uint64(c.rng.Intn(PageSize))
	if c.rng.Intn(4) == 0 {
		off = PageSize - 1 - uint64(c.rng.Intn(8)) // straddle the next page
	}
	return pn<<PageShift + off
}

func (c *accessChecker) fail(who, format string, args ...any) {
	c.t.Helper()
	c.t.Fatalf("op %d on %s: "+format, append([]any{c.op, who}, args...)...)
}

// step applies one random operation to im and checks it against the model;
// with readOnly it picks only among the reads.
func (c *accessChecker) step(who string, im *accessImage, readOnly bool) {
	c.t.Helper()
	c.op++
	a := c.addr()
	op := c.rng.Intn(8)
	if readOnly {
		op = []int{0, 1, 4}[op%3]
	}
	switch op {
	case 0, 1:
		size := []int{1, 2, 4, 8}[c.rng.Intn(4)]
		got, err := im.m.ReadUint(a, size)
		if err != nil {
			c.fail(who, "ReadUint(%#x, %d): %v", a, size, err)
		}
		var want uint64
		for i := size - 1; i >= 0; i-- {
			want = want<<8 | uint64(im.f.bytes[a+uint64(i)])
		}
		if got != want {
			c.fail(who, "ReadUint(%#x, %d) = %#x, model %#x", a, size, got, want)
		}
	case 2:
		size := []int{1, 2, 4, 8}[c.rng.Intn(4)]
		v := c.rng.Uint64()
		if err := im.m.WriteUint(a, v, size); err != nil {
			c.fail(who, "WriteUint(%#x, %d): %v", a, size, err)
		}
		for i := 0; i < size; i++ {
			im.f.bytes[a+uint64(i)] = byte(v >> (8 * i))
		}
		im.noteWrite(a, size, true)
	case 3:
		n := c.rng.Intn(300)
		if c.rng.Intn(8) == 0 {
			a, n = a&^(PageSize-1), PageSize // whole-page clear
		}
		if err := im.m.Zero(a, n); err != nil {
			c.fail(who, "Zero(%#x, %d): %v", a, n, err)
		}
		im.noteWrite(a, n, false)
		for i := 0; i < n; i++ {
			delete(im.f.bytes, a+uint64(i))
		}
	case 4:
		got, err := im.m.LoadByte(a)
		if err != nil {
			c.fail(who, "LoadByte(%#x): %v", a, err)
		}
		if want := im.f.bytes[a]; got != want {
			c.fail(who, "LoadByte(%#x) = %#x, model %#x", a, got, want)
		}
	case 5:
		v := byte(c.rng.Intn(256))
		if err := im.m.StoreByte(a, v); err != nil {
			c.fail(who, "StoreByte(%#x): %v", a, err)
		}
		im.f.bytes[a] = v
		im.noteWrite(a, 1, true)
	case 6:
		buf := make([]byte, c.rng.Intn(64))
		c.rng.Read(buf)
		if err := im.m.Write(a, buf); err != nil {
			c.fail(who, "Write(%#x, %d): %v", a, len(buf), err)
		}
		for i, b := range buf {
			im.f.bytes[a+uint64(i)] = b
		}
		im.noteWrite(a, len(buf), true)
	case 7: // Discard: the whole pages inside the range read zero, unmapped
		n := c.rng.Intn(3 * PageSize)
		if c.rng.Intn(2) == 0 {
			a, n = a&^(PageSize-1), PageSize*(1+c.rng.Intn(2))
		}
		for pn := (a + PageSize - 1) >> PageShift; pn < (a+uint64(n))>>PageShift; pn++ {
			if !im.f.mapped[pn] {
				continue
			}
			im.noteWrite(pn<<PageShift, PageSize, false)
			delete(im.f.mapped, pn)
			for i := uint64(0); i < PageSize; i++ {
				delete(im.f.bytes, pn<<PageShift+i)
			}
		}
		im.m.Discard(a, n)
	}
}

// checkWatch compares the watch window's dirty list with the model.
func (c *accessChecker) checkWatch(who string, im *accessImage) {
	c.t.Helper()
	got := slices.Clone(im.m.WatchedDirty())
	slices.Sort(got)
	var want []uint64
	for pn := range im.dirty {
		want = append(want, pn)
	}
	slices.Sort(want)
	if !slices.Equal(got, want) {
		c.fail(who, "WatchedDirty = %v, written watched pages %v", got, want)
	}
}

// mixed runs n steps, each on the parent or the child at random; with
// parentReads the parent only reads.
func (c *accessChecker) mixed(n int, parent, child *accessImage, parentReads bool) {
	c.t.Helper()
	for i := 0; i < n; i++ {
		if c.rng.Intn(2) == 0 {
			c.step("parent", parent, parentReads)
		} else {
			c.step("child", child, false)
		}
	}
}

func TestMemoryAccessProperty(t *testing.T) {
	for seed := int64(1); seed <= 40; seed++ {
		c := &accessChecker{t: t, rng: rand.New(rand.NewSource(seed))}
		p := &accessImage{m: NewMemory(), f: newFlatImage(), dirty: map[uint64]bool{}}
		for round := 0; round < 30; round++ {
			for i := 0; i < 20; i++ {
				c.step("parent", p, false)
			}
			switch c.rng.Intn(4) {
			case 0: // fork, write both sides, tear the child down
				// The child watches as a harness fork does, in window
				// storage an earlier child's Release may have left.
				ch := &accessImage{m: p.m.Fork(), f: p.f.clone(), watchLo: 2, watch: 66, dirty: map[uint64]bool{}}
				ch.m.Watch(2<<PageShift, 64<<PageShift)
				c.mixed(40, p, ch, false)
				c.checkWatch("child", ch)
				ch.m.Release()
			case 1: // snapshot child restored against its parent
				// The parent is the snapshot, so it only reads until the
				// restore, which shares the pages the child privatized with
				// the parent again; writes on either side must then copy.
				ch := &accessImage{m: p.m.Fork(), f: p.f.clone()}
				ch.m.TrackDirty(true)
				c.mixed(40, p, ch, true)
				ch.m.RestoreTo(p.m)
				ch.f = p.f.clone()
				c.mixed(40, p, ch, false)
				ch.m.Release()
			case 2: // arm (or re-arm) the watch window over pages [2, 66)
				p.m.Watch(2<<PageShift, 64<<PageShift)
				p.watchLo, p.watch = 2, 66
				p.dirty = map[uint64]bool{}
			case 3: // close the watch window and start a new one
				if p.watch != 0 {
					c.checkWatch("parent", p)
					p.m.ResetWatch()
					p.dirty = map[uint64]bool{}
				}
			}
			if p.watch != 0 {
				c.checkWatch("parent", p)
			}
		}
	}
}
