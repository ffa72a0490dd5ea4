package mem

import (
	"bytes"
	"testing"
	"testing/quick"
)

func TestReadUnmappedIsZero(t *testing.T) {
	m := NewMemory()
	b, err := m.Read(0x10000, 16)
	if err != nil {
		t.Fatalf("Read: %v", err)
	}
	for _, v := range b {
		if v != 0 {
			t.Fatalf("unmapped read returned %v, want zeros", b)
		}
	}
}

func TestNullPageFaults(t *testing.T) {
	m := NewMemory()
	if _, err := m.LoadByte(0); err != ErrNullPage {
		t.Errorf("LoadByte(0) err = %v, want ErrNullPage", err)
	}
	if err := m.StoreByte(PageSize-1, 1); err != ErrNullPage {
		t.Errorf("StoreByte(PageSize-1) err = %v, want ErrNullPage", err)
	}
	if _, err := m.ReadUint(100, 8); err != ErrNullPage {
		t.Errorf("ReadUint(100) err = %v, want ErrNullPage", err)
	}
	if err := m.Write(0x800, []byte{1}); err != ErrNullPage {
		t.Errorf("Write(0x800) err = %v, want ErrNullPage", err)
	}
}

func TestWriteReadRoundTrip(t *testing.T) {
	m := NewMemory()
	data := []byte("the quick brown fox jumps over the lazy dog")
	// Straddle a page boundary on purpose.
	addr := uint64(2*PageSize - 10)
	if err := m.Write(addr, data); err != nil {
		t.Fatalf("Write: %v", err)
	}
	got, err := m.Read(addr, len(data))
	if err != nil {
		t.Fatalf("Read: %v", err)
	}
	if !bytes.Equal(got, data) {
		t.Fatalf("round trip: got %q want %q", got, data)
	}
}

func TestReadWriteUintSizes(t *testing.T) {
	m := NewMemory()
	cases := []struct {
		size int
		v    uint64
	}{
		{1, 0xab}, {2, 0xbeef}, {4, 0xdeadbeef}, {8, 0x0123456789abcdef},
	}
	addr := uint64(0x40000)
	for _, c := range cases {
		if err := m.WriteUint(addr, c.v, c.size); err != nil {
			t.Fatalf("WriteUint size %d: %v", c.size, err)
		}
		got, err := m.ReadUint(addr, c.size)
		if err != nil {
			t.Fatalf("ReadUint size %d: %v", c.size, err)
		}
		if got != c.v {
			t.Errorf("size %d: got %#x want %#x", c.size, got, c.v)
		}
		addr += 64
	}
	// Cross-page integer.
	addr = 3*PageSize - 3
	if err := m.WriteUint(addr, 0x1122334455667788, 8); err != nil {
		t.Fatalf("WriteUint cross-page: %v", err)
	}
	got, err := m.ReadUint(addr, 8)
	if err != nil {
		t.Fatalf("ReadUint cross-page: %v", err)
	}
	if got != 0x1122334455667788 {
		t.Errorf("cross-page: got %#x", got)
	}
}

func TestUintEndianness(t *testing.T) {
	m := NewMemory()
	addr := uint64(0x50000)
	if err := m.WriteUint(addr, 0x04030201, 4); err != nil {
		t.Fatal(err)
	}
	b, _ := m.Read(addr, 4)
	if !bytes.Equal(b, []byte{1, 2, 3, 4}) {
		t.Fatalf("little-endian layout: got %v", b)
	}
}

func TestForkIsolation(t *testing.T) {
	parent := NewMemory()
	addr := uint64(0x10000)
	if err := parent.Write(addr, []byte("parent")); err != nil {
		t.Fatal(err)
	}
	child := parent.Fork()
	// Child sees parent data.
	got, _ := child.Read(addr, 6)
	if string(got) != "parent" {
		t.Fatalf("child read %q, want parent", got)
	}
	// Child writes are invisible to parent.
	if err := child.Write(addr, []byte("child!")); err != nil {
		t.Fatal(err)
	}
	got, _ = parent.Read(addr, 6)
	if string(got) != "parent" {
		t.Fatalf("parent sees child write: %q", got)
	}
	// Parent writes after fork are invisible to child.
	if err := parent.Write(addr+100, []byte("late")); err != nil {
		t.Fatal(err)
	}
	got, _ = child.Read(addr+100, 4)
	if string(got) == "late" {
		t.Fatalf("child sees parent's post-fork write")
	}
	child.Release()
	// Parent still intact after child release.
	got, _ = parent.Read(addr, 6)
	if string(got) != "parent" {
		t.Fatalf("parent corrupted after child release: %q", got)
	}
}

func TestForkSharesUntouchedPages(t *testing.T) {
	parent := NewMemory()
	for i := 0; i < 32; i++ {
		if err := parent.StoreByte(uint64(0x10000+i*PageSize), byte(i)); err != nil {
			t.Fatal(err)
		}
	}
	child := parent.Fork()
	defer child.Release()
	// Before any child write, every page is shared: same backing objects.
	for _, pn := range parent.MappedPages() {
		pg := parent.frame(pn)
		if child.frame(pn) != pg {
			t.Fatalf("page %#x not shared after fork", pn)
		}
		if pg.refs != 2 {
			t.Fatalf("page %#x refs = %d, want 2", pn, pg.refs)
		}
	}
	// A single child write privatizes exactly one page.
	if err := child.StoreByte(0x10000, 99); err != nil {
		t.Fatal(err)
	}
	priv := 0
	for _, pn := range child.MappedPages() {
		if parent.frame(pn) != child.frame(pn) {
			priv++
		}
	}
	if priv != 1 {
		t.Fatalf("privatized %d pages after one write, want 1", priv)
	}
}

func TestPageLimit(t *testing.T) {
	m := NewMemoryLimit(2)
	if err := m.StoreByte(PageSize, 1); err != nil {
		t.Fatal(err)
	}
	if err := m.StoreByte(2*PageSize, 1); err != nil {
		t.Fatal(err)
	}
	if err := m.StoreByte(3*PageSize, 1); err != ErrNoMemory {
		t.Fatalf("err = %v, want ErrNoMemory", err)
	}
}

func TestZero(t *testing.T) {
	m := NewMemory()
	addr := uint64(4*PageSize - 8)
	if err := m.Write(addr, bytes.Repeat([]byte{0xff}, 32)); err != nil {
		t.Fatal(err)
	}
	if err := m.Zero(addr+4, 20); err != nil {
		t.Fatal(err)
	}
	got, _ := m.Read(addr, 32)
	for i, v := range got {
		want := byte(0xff)
		if i >= 4 && i < 24 {
			want = 0
		}
		if v != want {
			t.Fatalf("byte %d = %#x, want %#x (%v)", i, v, want, got)
		}
	}
}

func TestZeroWholePageFast(t *testing.T) {
	m := NewMemory()
	base := uint64(8 * PageSize)
	if err := m.Write(base, bytes.Repeat([]byte{1}, PageSize)); err != nil {
		t.Fatal(err)
	}
	if err := m.Zero(base, PageSize); err != nil {
		t.Fatal(err)
	}
	b, _ := m.Read(base, PageSize)
	for _, v := range b {
		if v != 0 {
			t.Fatal("whole-page zero left nonzero bytes")
		}
	}
}

// Property: any interleaving of writes to parent and a CoW child keeps the
// two address spaces fully independent (differential model check against two
// plain maps).
func TestForkIsolationProperty(t *testing.T) {
	f := func(ops []struct {
		ToChild bool
		Off     uint16
		Val     byte
	}) bool {
		parent := NewMemory()
		seed := []byte("seed data for the shared image 0123456789")
		base := uint64(0x20000)
		if err := parent.Write(base, seed); err != nil {
			return false
		}
		child := parent.Fork()
		defer child.Release()
		pModel := map[uint64]byte{}
		cModel := map[uint64]byte{}
		for i, b := range seed {
			pModel[base+uint64(i)] = b
			cModel[base+uint64(i)] = b
		}
		for _, op := range ops {
			addr := base + uint64(op.Off)%8192
			if op.ToChild {
				if err := child.StoreByte(addr, op.Val); err != nil {
					return false
				}
				cModel[addr] = op.Val
			} else {
				if err := parent.StoreByte(addr, op.Val); err != nil {
					return false
				}
				pModel[addr] = op.Val
			}
		}
		for a, v := range pModel {
			got, err := parent.LoadByte(a)
			if err != nil || got != v {
				return false
			}
		}
		for a, v := range cModel {
			got, err := child.LoadByte(a)
			if err != nil || got != v {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

// Property: Write/Read round-trips arbitrary payloads at arbitrary offsets.
func TestWriteReadProperty(t *testing.T) {
	f := func(off uint16, data []byte) bool {
		if len(data) > 3*PageSize {
			data = data[:3*PageSize]
		}
		m := NewMemory()
		addr := uint64(PageSize) + uint64(off)
		if err := m.Write(addr, data); err != nil {
			return false
		}
		got, err := m.Read(addr, len(data))
		if err != nil {
			return false
		}
		return bytes.Equal(got, data)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func BenchmarkForkRelease(b *testing.B) {
	parent := NewMemory()
	for i := 0; i < 1024; i++ { // 4 MiB resident image
		_ = parent.StoreByte(uint64((i+1)*PageSize), byte(i))
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		c := parent.Fork()
		_ = c.StoreByte(PageSize, 1) // one dirty page, like a tiny test case
		c.Release()
	}
}

// BenchmarkMemoryAccess times the interpreter's memory traffic on its own:
// word reads and writes plus a frame scrub over a small working set (two
// globals pages under a watch window, two heap pages, a stack page and a
// never-written page that reads as zero), shaped like one ClosureX
// iteration of a small target. It uses only the exported API.
func BenchmarkMemoryAccess(b *testing.B) {
	const (
		globals = 0x0001_0000
		heap    = 0x0400_0000
		stack   = 0x0800_0000
		accs    = 64 // word accesses per iteration
	)
	m := NewMemory()
	m.Watch(globals, 2*PageSize)
	addrs := [...]uint64{globals + 8, globals + PageSize + 16, heap + 64, heap + PageSize + 128, stack + 256}
	for _, a := range addrs {
		if err := m.WriteUint(a, 1, 8); err != nil {
			b.Fatal(err)
		}
	}
	const absent = heap + 8*PageSize
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for j := 0; j < accs; j++ {
			a := addrs[j%len(addrs)] + uint64(j&7)*8
			v, _ := m.ReadUint(a, 8)
			_ = m.WriteUint(a, v+1, 8)
			z, _ := m.ReadUint(absent+uint64(j)*4, 4)
			_ = m.WriteUint(a+4, z, 4)
		}
		_ = m.Zero(stack+256, 128)
		m.ResetWatch()
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*accs*4), "ns/access")
}

// pagesOf is a test helper returning WatchedDirty as a plain slice copy.
func pagesOf(m *Memory) []uint64 {
	return append([]uint64(nil), m.WatchedDirty()...)
}

func TestWatchRecordsWritesInRange(t *testing.T) {
	m := NewMemory()
	base := uint64(4 * PageSize)
	m.Watch(base, 4*PageSize) // pages 4..7

	if err := m.StoreByte(base, 1); err != nil { // page 4
		t.Fatal(err)
	}
	if err := m.StoreByte(base+2*PageSize+17, 2); err != nil { // page 6
		t.Fatal(err)
	}
	if err := m.StoreByte(base-1, 3); err != nil { // page 3, outside
		t.Fatal(err)
	}
	if err := m.StoreByte(base+4*PageSize, 4); err != nil { // page 8, outside
		t.Fatal(err)
	}

	got := pagesOf(m)
	want := []uint64{4, 6}
	if len(got) != len(want) || got[0] != want[0] || got[1] != want[1] {
		t.Fatalf("WatchedDirty = %v, want %v (first-touch order)", got, want)
	}
}

func TestWatchDeduplicatesRepeatedWrites(t *testing.T) {
	m := NewMemory()
	base := uint64(2 * PageSize)
	m.Watch(base, 2*PageSize)
	for i := 0; i < 100; i++ {
		if err := m.StoreByte(base+uint64(i), byte(i)); err != nil {
			t.Fatal(err)
		}
	}
	if got := pagesOf(m); len(got) != 1 || got[0] != 2 {
		t.Fatalf("WatchedDirty = %v, want [2]", got)
	}
}

func TestWatchSeesWritesToPrivatePages(t *testing.T) {
	// Unlike trackDirty (which only fires on privatization/mapping), the
	// watch must record writes to pages that are already private — that is
	// the whole point of the barrier for incremental restore.
	m := NewMemory()
	base := uint64(8 * PageSize)
	if err := m.StoreByte(base, 1); err != nil { // page now mapped + private
		t.Fatal(err)
	}
	m.Watch(base, PageSize)
	m.ResetWatch()
	if err := m.StoreByte(base+1, 2); err != nil {
		t.Fatal(err)
	}
	if got := pagesOf(m); len(got) != 1 || got[0] != 8 {
		t.Fatalf("write to already-private page not recorded: WatchedDirty = %v", got)
	}
}

func TestWatchResetStartsNewWindow(t *testing.T) {
	m := NewMemory()
	base := uint64(PageSize)
	m.Watch(base, 3*PageSize) // pages 1..3

	if err := m.StoreByte(base, 1); err != nil {
		t.Fatal(err)
	}
	if err := m.StoreByte(base+PageSize, 1); err != nil {
		t.Fatal(err)
	}
	if got := pagesOf(m); len(got) != 2 {
		t.Fatalf("before reset: WatchedDirty = %v, want 2 pages", got)
	}

	m.ResetWatch()
	if got := pagesOf(m); len(got) != 0 {
		t.Fatalf("after reset: WatchedDirty = %v, want empty", got)
	}

	// The bits must be cleared too, or re-dirtied pages would be missed.
	if err := m.StoreByte(base+PageSize, 2); err != nil {
		t.Fatal(err)
	}
	if got := pagesOf(m); len(got) != 1 || got[0] != 2 {
		t.Fatalf("after reset + write: WatchedDirty = %v, want [2]", got)
	}
}

func TestWatchDisarm(t *testing.T) {
	m := NewMemory()
	base := uint64(PageSize)
	m.Watch(base, PageSize)
	if err := m.StoreByte(base, 1); err != nil {
		t.Fatal(err)
	}
	if got := pagesOf(m); len(got) != 1 {
		t.Fatalf("armed: WatchedDirty = %v, want 1 page", got)
	}

	m.Watch(0, 0) // disarm
	if got := pagesOf(m); len(got) != 0 {
		t.Fatalf("disarmed: WatchedDirty = %v, want empty", got)
	}
	if err := m.StoreByte(base, 2); err != nil {
		t.Fatal(err)
	}
	if got := pagesOf(m); len(got) != 0 {
		t.Fatalf("disarmed write recorded: WatchedDirty = %v", got)
	}
}

func TestWatchZeroFastPath(t *testing.T) {
	// Zero on a whole resident private page takes a fast path that skips
	// writablePage; it must still feed the watch barrier.
	m := NewMemory()
	base := uint64(5 * PageSize)
	if err := m.StoreByte(base, 0xff); err != nil {
		t.Fatal(err)
	}
	m.Watch(base, PageSize)
	m.ResetWatch()
	if err := m.Zero(base, PageSize); err != nil {
		t.Fatal(err)
	}
	if got := pagesOf(m); len(got) != 1 || got[0] != 5 {
		t.Fatalf("Zero fast path not recorded: WatchedDirty = %v, want [5]", got)
	}
	b, err := m.Read(base, 1)
	if err != nil || b[0] != 0 {
		t.Fatalf("page not zeroed: %v %v", b, err)
	}
}

func TestWatchSurvivesCoWPrivatization(t *testing.T) {
	// A write that privatizes a shared page (post-fork CoW) must be
	// recorded exactly once, against the child doing the write.
	parent := NewMemory()
	base := uint64(3 * PageSize)
	if err := parent.StoreByte(base, 7); err != nil {
		t.Fatal(err)
	}
	child := parent.Fork()
	child.Watch(base, PageSize)
	if err := child.StoreByte(base, 9); err != nil {
		t.Fatal(err)
	}
	if got := pagesOf(child); len(got) != 1 || got[0] != 3 {
		t.Fatalf("CoW write not recorded: WatchedDirty = %v, want [3]", got)
	}
	if got := pagesOf(parent); len(got) != 0 {
		t.Fatalf("parent saw child's write: WatchedDirty = %v", got)
	}
	b, _ := parent.Read(base, 1)
	if b[0] != 7 {
		t.Fatalf("parent page corrupted: %d", b[0])
	}
	child.Release()
}
