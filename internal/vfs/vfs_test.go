package vfs

import (
	"bytes"
	"errors"
	"reflect"
	"testing"
	"testing/quick"
)

func TestOpenMissingFile(t *testing.T) {
	fs := New()
	if _, err := fs.Open("/nope", "r"); !errors.Is(err, ErrNotFound) {
		t.Fatalf("err = %v, want ErrNotFound", err)
	}
}

func TestReadInput(t *testing.T) {
	fs := New()
	fs.SetInput([]byte("hello fuzzer"))
	fd, err := fs.Open(InputPath, "r")
	if err != nil {
		t.Fatal(err)
	}
	buf := make([]byte, 5)
	n, err := fs.Read(fd, buf)
	if err != nil || n != 5 || string(buf) != "hello" {
		t.Fatalf("Read = %d %q %v", n, buf, err)
	}
	n, err = fs.Read(fd, make([]byte, 100))
	if err != nil || n != 7 {
		t.Fatalf("short read = %d, %v; want 7", n, err)
	}
	n, _ = fs.Read(fd, buf)
	if n != 0 {
		t.Fatalf("EOF read = %d, want 0", n)
	}
}

func TestGetc(t *testing.T) {
	fs := New()
	fs.SetInput([]byte{0xff, 0x00})
	fd, _ := fs.Open(InputPath, "r")
	if c, _ := fs.Getc(fd); c != 0xff {
		t.Fatalf("Getc = %d, want 255", c)
	}
	if c, _ := fs.Getc(fd); c != 0 {
		t.Fatalf("Getc = %d, want 0", c)
	}
	if c, _ := fs.Getc(fd); c != -1 {
		t.Fatalf("Getc at EOF = %d, want -1", c)
	}
}

func TestSeekTellSize(t *testing.T) {
	fs := New()
	fs.SetInput([]byte("0123456789"))
	fd, _ := fs.Open(InputPath, "r")
	if off, err := fs.Seek(fd, 4, SeekSet); err != nil || off != 4 {
		t.Fatalf("SeekSet = %d, %v", off, err)
	}
	if off, err := fs.Seek(fd, 2, SeekCur); err != nil || off != 6 {
		t.Fatalf("SeekCur = %d, %v", off, err)
	}
	if off, err := fs.Seek(fd, -1, SeekEnd); err != nil || off != 9 {
		t.Fatalf("SeekEnd = %d, %v", off, err)
	}
	if c, _ := fs.Getc(fd); c != '9' {
		t.Fatalf("Getc after seek = %c", c)
	}
	if pos, _ := fs.Tell(fd); pos != 10 {
		t.Fatalf("Tell = %d", pos)
	}
	if sz, _ := fs.Size(fd); sz != 10 {
		t.Fatalf("Size = %d", sz)
	}
	if _, err := fs.Seek(fd, -100, SeekSet); err == nil {
		t.Fatal("negative seek accepted")
	}
}

func TestWriteMode(t *testing.T) {
	fs := New()
	fd, err := fs.Open("/out", "w")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := fs.Write(fd, []byte("abc")); err != nil {
		t.Fatal(err)
	}
	if _, err := fs.Seek(fd, 1, SeekSet); err != nil {
		t.Fatal(err)
	}
	if _, err := fs.Write(fd, []byte("XY")); err != nil {
		t.Fatal(err)
	}
	if err := fs.Close(fd); err != nil {
		t.Fatal(err)
	}
	got, err := fs.ReadFile("/out")
	if err != nil || !bytes.Equal(got, []byte("aXY")) {
		t.Fatalf("file = %q, %v", got, err)
	}
	// "w" truncates an existing file.
	fd, _ = fs.Open("/out", "w")
	if sz, _ := fs.Size(fd); sz != 0 {
		t.Fatalf("w-mode did not truncate: size %d", sz)
	}
}

func TestAppendMode(t *testing.T) {
	fs := New()
	fs.WriteFile("/log", []byte("one"))
	fd, _ := fs.Open("/log", "a")
	_, _ = fs.Write(fd, []byte("two"))
	got, _ := fs.ReadFile("/log")
	if string(got) != "onetwo" {
		t.Fatalf("append produced %q", got)
	}
}

func TestFDExhaustion(t *testing.T) {
	fs := New()
	fs.SetInput([]byte("x"))
	fs.SetFDLimit(4)
	for i := 0; i < 4; i++ {
		if _, err := fs.Open(InputPath, "r"); err != nil {
			t.Fatalf("open %d: %v", i, err)
		}
	}
	if _, err := fs.Open(InputPath, "r"); !errors.Is(err, ErrFDExhausted) {
		t.Fatalf("err = %v, want ErrFDExhausted", err)
	}
}

func TestCloseSemantics(t *testing.T) {
	fs := New()
	fs.SetInput([]byte("x"))
	fd, _ := fs.Open(InputPath, "r")
	if err := fs.Close(fd); err != nil {
		t.Fatal(err)
	}
	if err := fs.Close(fd); !errors.Is(err, ErrBadFD) {
		t.Fatalf("double close err = %v, want ErrBadFD", err)
	}
	if _, err := fs.Read(fd, make([]byte, 1)); !errors.Is(err, ErrBadFD) {
		t.Fatalf("read closed err = %v", err)
	}
	if err := fs.Close(12345); !errors.Is(err, ErrBadFD) {
		t.Fatalf("close bogus err = %v", err)
	}
}

func TestLeakedAndInitFDs(t *testing.T) {
	fs := New()
	fs.SetInput([]byte("x"))
	fs.WriteFile("/cfg", []byte("config"))
	cfgFD, _ := fs.Open("/cfg", "r")
	fs.MarkInit()
	in1, _ := fs.Open(InputPath, "r")
	in2, _ := fs.Open(InputPath, "r")
	_ = fs.Close(in1)
	leaked := fs.LeakedFDs()
	if len(leaked) != 1 || leaked[0] != in2 {
		t.Fatalf("LeakedFDs = %v, want [%d]", leaked, in2)
	}
	init := fs.InitFDs()
	if len(init) != 1 || init[0] != cfgFD {
		t.Fatalf("InitFDs = %v, want [%d]", init, cfgFD)
	}
}

func TestReset(t *testing.T) {
	fs := New()
	fs.SetInput([]byte("x"))
	_, _ = fs.Open(InputPath, "r")
	fs.WriteFile("/scratch", []byte("junk"))
	fs.Reset(map[string][]byte{"/keep": []byte("kept")})
	if fs.OpenCount() != 0 {
		t.Fatalf("descriptors survived reset: %d", fs.OpenCount())
	}
	if _, err := fs.ReadFile("/scratch"); !errors.Is(err, ErrNotFound) {
		t.Fatal("scratch file survived reset")
	}
	if got, err := fs.ReadFile("/keep"); err != nil || string(got) != "kept" {
		t.Fatalf("keep file = %q, %v", got, err)
	}
}

func TestCloneIsolation(t *testing.T) {
	fs := New()
	fs.SetInput([]byte("parent"))
	fd, _ := fs.Open(InputPath, "r")
	_, _ = fs.Getc(fd)
	cl := fs.Clone()
	// Clone sees the open descriptor at the same position.
	if c, err := cl.Getc(fd); err != nil || c != 'a' {
		t.Fatalf("clone Getc = %c, %v", c, err)
	}
	// Advancing the clone's position does not move the parent's.
	if c, _ := fs.Getc(fd); c != 'a' {
		t.Fatalf("parent position moved by clone read: %c", c)
	}
	// Writes in the clone do not affect the parent.
	w, _ := cl.Open("/new", "w")
	_, _ = cl.Write(w, []byte("clone-only"))
	if _, err := fs.ReadFile("/new"); !errors.Is(err, ErrNotFound) {
		t.Fatal("clone write leaked into parent")
	}
}

// TestReleasedCloneRebuildsAsTemplate: a clone rebuilt from a released
// one holds the template's files and descriptors only, whatever the
// released clone wrote, opened or leaked, and a forkserver child's
// filesystem cycle does not allocate.
func TestReleasedCloneRebuildsAsTemplate(t *testing.T) {
	fs := New()
	fs.WriteFile("/cfg", []byte("config"))
	fs.SetInput([]byte("parent input"))
	fd, _ := fs.Open("/cfg", "r")
	_, _ = fs.Getc(fd)
	fs.MarkInit()
	use := func(cl *FS) {
		cl.SetInput([]byte("a longer child input"))
		w, _ := cl.Open("/out", "w")
		_, _ = cl.Write(w, []byte("child output"))
		in, _ := cl.Open(InputPath, "r")
		_, _ = cl.Getc(in)
		_, _ = cl.Getc(fd)
		cl.WriteFile("/cfg", []byte("overwritten"))
	}
	use(fs.Clone())
	cl := fs.Clone() // a fresh clone: no released one yet
	use(cl)
	cl.Release()
	got := fs.Clone()
	if !reflect.DeepEqual(got.Snapshot(), fs.Snapshot()) {
		t.Fatalf("rebuilt clone's files %q, template's %q", got.Snapshot(), fs.Snapshot())
	}
	if got.OpenCount() != 1 || got.LeakedCount() != 0 || got.TotalOpens() != fs.TotalOpens() {
		t.Fatalf("rebuilt clone: %d open, %d leaked, %d opens; want 1, 0, %d",
			got.OpenCount(), got.LeakedCount(), got.TotalOpens(), fs.TotalOpens())
	}
	if pos, err := got.Tell(fd); err != nil || pos != 1 {
		t.Fatalf("rebuilt clone's init descriptor at %d (%v), want 1", pos, err)
	}
	if c, err := got.Getc(fd); err != nil || c != 'o' {
		t.Fatalf("rebuilt clone reads %c (%v) through the init descriptor, want o", c, err)
	}
	got.Release()
	if n := testing.AllocsPerRun(20, func() {
		cl := fs.Clone()
		cl.SetInput([]byte("a test case"))
		in, _ := cl.Open(InputPath, "r")
		_, _ = cl.Getc(in)
		cl.Release()
	}); n != 0 {
		t.Fatalf("clone, input install, open and release allocate %v times, want 0", n)
	}
}

// TestReleasedCloneRecyclesWrittenAndReplacedFiles: a forkserver child
// that extends a file and replaces one under two open descriptors hands
// every file object and buffer on at release, each once, so the next
// cycle does not allocate and no two files share a buffer. Contents keep
// one length so any recycled buffer fits any role.
func TestReleasedCloneRecyclesWrittenAndReplacedFiles(t *testing.T) {
	fs := New()
	fs.WriteFile("/cfg", []byte("config"))
	fd, _ := fs.Open("/cfg", "r")
	fs.MarkInit()
	cycle := func() {
		cl := fs.Clone()
		w, _ := cl.Open("/out", "w")
		_, _ = cl.Write(w, []byte("output"))
		_, _ = cl.Open("/cfg", "r")
		cl.WriteFile("/cfg", []byte("CONFIG"))
		if c, err := cl.Getc(fd); err != nil || c != 'c' {
			t.Fatalf("the descriptor reads %c (%v) after /cfg was replaced, want c", c, err)
		}
		cl.Release()
	}
	if n := testing.AllocsPerRun(20, cycle); n != 0 {
		t.Fatalf("clone, write, replace and release allocate %v times, want 0", n)
	}
}

// TestWritePastEndZeroFillsGap: a write past the end of a file leaves the
// skipped bytes reading zero, also when the buffer it grows into held
// older contents: a file truncated by "w" or a recycled one.
func TestWritePastEndZeroFillsGap(t *testing.T) {
	fs := New()
	fs.WriteFile("/f", []byte("abcdef"))
	fd, _ := fs.Open("/f", "w")
	if _, err := fs.Seek(fd, 3, SeekSet); err != nil {
		t.Fatal(err)
	}
	if _, err := fs.Write(fd, []byte("Z")); err != nil {
		t.Fatal(err)
	}
	if got, _ := fs.ReadFile("/f"); string(got) != "\x00\x00\x00Z" {
		t.Fatalf("truncated file reads %q, want %q", got, "\x00\x00\x00Z")
	}

	fs = New()
	cl := fs.Clone()
	w, _ := cl.Open("/out", "w")
	_, _ = cl.Write(w, []byte("stale bytes"))
	cl.Release()
	cl = fs.Clone()
	w, _ = cl.Open("/out", "w")
	_, _ = cl.Seek(w, 2, SeekSet)
	_, _ = cl.Write(w, []byte("xy"))
	if got, _ := cl.ReadFile("/out"); string(got) != "\x00\x00xy" {
		t.Fatalf("recycled file reads %q, want %q", got, "\x00\x00xy")
	}
}

func TestSnapshot(t *testing.T) {
	fs := New()
	fs.WriteFile("/a", []byte("1"))
	fs.WriteFile("/b", []byte("2"))
	snap := fs.Snapshot()
	fs.WriteFile("/a", []byte("mutated"))
	if string(snap["/a"]) != "1" || string(snap["/b"]) != "2" {
		t.Fatalf("snapshot not isolated: %v", snap)
	}
}

// Property: a random sequence of reads and seeks against the descriptor
// matches a model cursor over the same byte slice.
func TestReadSeekProperty(t *testing.T) {
	f := func(data []byte, ops []struct {
		Seek bool
		Arg  int16
	}) bool {
		fs := New()
		fs.SetInput(data)
		fd, err := fs.Open(InputPath, "r")
		if err != nil {
			return false
		}
		pos := 0
		for _, op := range ops {
			if op.Seek {
				np := int(op.Arg)
				if np < 0 {
					np = -np
				}
				if _, err := fs.Seek(fd, int64(np), SeekSet); err != nil {
					return false
				}
				pos = np
			} else {
				n := int(op.Arg) % 64
				if n < 0 {
					n = -n
				}
				buf := make([]byte, n)
				got, err := fs.Read(fd, buf)
				if err != nil {
					return false
				}
				want := 0
				if pos < len(data) {
					want = copy(make([]byte, n), data[pos:])
				}
				if got != want {
					return false
				}
				if got > 0 && !bytes.Equal(buf[:got], data[pos:pos+got]) {
					return false
				}
				pos += got
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}
