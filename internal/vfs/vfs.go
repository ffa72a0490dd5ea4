// Package vfs implements the virtual filesystem and file-descriptor table
// that the ClosureX VM exposes to fuzzing targets. Targets read their test
// case through fopen("/input") / fread, exactly as the paper's benchmarks
// read their inputs from a file, and the FD table enforces the per-process
// descriptor limit whose exhaustion causes the false crashes persistent
// fuzzing is prone to (paper §4.2.2).
package vfs

import (
	"errors"
	"fmt"
	"slices"
	"sort"

	"closurex/internal/faultinject"
)

// InputPath is the well-known path under which each test case appears.
const InputPath = "/input"

// DefaultFDLimit mirrors a conservative RLIMIT_NOFILE. Persistent targets
// that leak handles will exhaust it within a few dozen iterations, which is
// precisely the pathology the FilePass exists to prevent.
const DefaultFDLimit = 64

// Whence values for Seek, matching C's SEEK_SET/SEEK_CUR/SEEK_END.
const (
	SeekSet = 0
	SeekCur = 1
	SeekEnd = 2
)

// VFS errors surfaced to the VM.
var (
	ErrNotFound    = errors.New("vfs: file not found")
	ErrFDExhausted = errors.New("vfs: file descriptor limit exhausted")
	ErrBadFD       = errors.New("vfs: bad file descriptor")
	ErrClosedFD    = errors.New("vfs: operation on closed descriptor")
)

// file is an in-memory file.
type file struct {
	data []byte
	// refs counts live descriptors referencing this file object, so the
	// per-execution SetInput can decide "reuse in place" in O(1) instead
	// of scanning the descriptor table.
	refs int
}

// OpenFile is one entry in the descriptor table.
type OpenFile struct {
	FD   int
	Path string
	pos  int
	f    *file
	// Init marks descriptors opened during target initialization; the
	// ClosureX harness rewinds these with Seek(0) instead of closing them
	// (the paper's initialization-handle optimization).
	Init   bool
	closed bool
	// Elided marks descriptors opened at a FileElide fopen site: the
	// interprocedural analysis proved the target closes them on every
	// path, so the harness expects none leaked at restore time (on
	// non-crashed iterations) and audits that instead of recording the
	// site in the fd table's leak bookkeeping.
	Elided bool
}

// FS is a process-private view of the filesystem plus its descriptor table.
type FS struct {
	files   map[string]*file
	fds     map[int]*OpenFile
	nextFD  int
	fdLimit int
	// opens counts every successful open over the lifetime of the FS, for
	// the correctness audit.
	opens int
	// inj, when armed, fails opens/closes on demand so tests can drive the
	// descriptor-exhaustion pathologies deterministically. Nil in
	// production.
	inj *faultinject.Injector
	// free recycles closed OpenFile entries so the steady-state
	// open/close-per-test-case cycle does not allocate. Entries are only
	// reachable through fds, so a closed entry has no outstanding aliases.
	free []*OpenFile
	// freeFiles recycles the file objects, buffers included, of a released
	// clone this FS was rebuilt from (see Release), for WriteFile and Open
	// to fill.
	freeFiles []*file
	// spare is shared by an FS and every clone of it: the last released
	// clone, for the next Clone to rebuild instead of allocating a new FS.
	// Nil until the first Clone. Like mem's free list it is not locked.
	spare *fsSpare
	// nLeaked / nElidedLeak are running counts of live non-init (and
	// additionally elided) descriptors, so the harness's per-iteration
	// leak audits are O(1) instead of descriptor-table scans.
	nLeaked     int
	nElidedLeak int
}

// fsSpare holds the storage a released clone hands on.
type fsSpare struct{ fs *FS }

// New returns an empty filesystem with the default descriptor limit.
func New() *FS {
	return &FS{
		files:   make(map[string]*file),
		fds:     make(map[int]*OpenFile),
		nextFD:  3, // 0,1,2 are reserved, as in POSIX
		fdLimit: DefaultFDLimit,
	}
}

// SetFDLimit overrides the descriptor limit (tests use tiny limits).
func (fs *FS) SetFDLimit(n int) { fs.fdLimit = n }

// SetInjector arms fault injection for this filesystem (nil disarms).
func (fs *FS) SetInjector(inj *faultinject.Injector) { fs.inj = inj }

// WriteFile creates or replaces a file.
func (fs *FS) WriteFile(path string, data []byte) {
	fs.files[path] = fs.newFile(data)
}

// newFile returns a file holding a copy of data, from freeFiles first.
func (fs *FS) newFile(data []byte) *file {
	n := len(fs.freeFiles)
	if n == 0 {
		return &file{data: append([]byte(nil), data...)}
	}
	f := fs.freeFiles[n-1]
	fs.freeFiles = fs.freeFiles[:n-1]
	*f = file{data: append(f.data[:0], data...)}
	return f
}

// SetInput installs the test case at InputPath. When no live descriptor
// still references the current input file — the steady state under a
// ClosureX harness, which closes leaked descriptors between iterations —
// the existing buffer is reused in place, making the per-execution install
// allocation-free. A leaked descriptor (persistent-naive pathology) keeps
// its stale view: the old file object is replaced, not overwritten.
func (fs *FS) SetInput(data []byte) {
	if f, ok := fs.files[InputPath]; ok && f.refs == 0 {
		f.data = append(f.data[:0], data...)
		return
	}
	fs.WriteFile(InputPath, data)
}

// ReadFile returns a copy of a file's contents.
func (fs *FS) ReadFile(path string) ([]byte, error) {
	f, ok := fs.files[path]
	if !ok {
		return nil, fmt.Errorf("%w: %s", ErrNotFound, path)
	}
	return append([]byte(nil), f.data...), nil
}

// Remove deletes a file; missing files are ignored.
func (fs *FS) Remove(path string) { delete(fs.files, path) }

// Open opens path for reading ("r") or writing ("w", truncates/creates).
// It returns the new descriptor number.
func (fs *FS) Open(path, mode string) (int, error) {
	if fs.inj.Should(faultinject.VFSOpen) {
		// Injected exhaustion: the same errno-shaped failure the target
		// would see when the real descriptor table fills up.
		return 0, fmt.Errorf("%w (%v)", ErrFDExhausted, faultinject.Err(faultinject.VFSOpen))
	}
	if len(fs.fds) >= fs.fdLimit {
		return 0, ErrFDExhausted
	}
	f, ok := fs.files[path]
	switch {
	case !ok && (mode == "w" || mode == "a"):
		f = fs.newFile(nil)
		fs.files[path] = f
	case !ok:
		return 0, fmt.Errorf("%w: %s", ErrNotFound, path)
	case mode == "w":
		f.data = f.data[:0]
	}
	fd := fs.nextFD
	fs.nextFD++
	of := fs.newOpenFile()
	*of = OpenFile{FD: fd, Path: path, f: f}
	if mode == "a" {
		of.pos = len(f.data)
	}
	fs.fds[fd] = of
	f.refs++
	fs.nLeaked++ // fresh descriptors are never init-persistent
	fs.opens++
	return fd, nil
}

// newOpenFile returns a descriptor entry for the caller to fill, from
// the free list first.
func (fs *FS) newOpenFile() *OpenFile {
	n := len(fs.free)
	if n == 0 {
		return new(OpenFile)
	}
	of := fs.free[n-1]
	fs.free = fs.free[:n-1]
	return of
}

func (fs *FS) lookup(fd int) (*OpenFile, error) {
	of, ok := fs.fds[fd]
	if !ok {
		return nil, fmt.Errorf("%w: %d", ErrBadFD, fd)
	}
	if of.closed {
		return nil, fmt.Errorf("%w: %d", ErrClosedFD, fd)
	}
	return of, nil
}

// Close releases a descriptor. Closing an unknown or already-closed
// descriptor is an error (it is a bug in the target).
func (fs *FS) Close(fd int) error {
	of, err := fs.lookup(fd)
	if err != nil {
		return err
	}
	if fs.inj.Should(faultinject.VFSClose) {
		// Injected close failure: the descriptor stays live, as EINTR/EIO
		// from close(2) can leave a process believing.
		return fmt.Errorf("vfs: close %d: %v", fd, faultinject.Err(faultinject.VFSClose))
	}
	of.closed = true
	delete(fs.fds, fd)
	of.f.refs--
	if !of.Init {
		fs.nLeaked--
		if of.Elided {
			fs.nElidedLeak--
		}
	}
	fs.free = append(fs.free, of)
	return nil
}

// Read copies up to len(dst) bytes from the descriptor's position.
func (fs *FS) Read(fd int, dst []byte) (int, error) {
	of, err := fs.lookup(fd)
	if err != nil {
		return 0, err
	}
	if of.pos >= len(of.f.data) {
		return 0, nil // EOF
	}
	n := copy(dst, of.f.data[of.pos:])
	of.pos += n
	return n, nil
}

// Getc returns the next byte, or -1 at EOF (fgetc semantics).
func (fs *FS) Getc(fd int) (int, error) {
	of, err := fs.lookup(fd)
	if err != nil {
		return 0, err
	}
	if of.pos >= len(of.f.data) {
		return -1, nil
	}
	b := of.f.data[of.pos]
	of.pos++
	return int(b), nil
}

// Write appends/overwrites at the descriptor's position. A write that
// starts past the end of the file leaves the gap reading zeros.
func (fs *FS) Write(fd int, src []byte) (int, error) {
	of, err := fs.lookup(fd)
	if err != nil {
		return 0, err
	}
	end := of.pos + len(src)
	if n := len(of.f.data); end > n {
		// Grow within the buffer's capacity when it has room; a recycled
		// buffer holds stale bytes there, so the gap is cleared.
		of.f.data = slices.Grow(of.f.data, end-n)[:end]
		if of.pos > n {
			clear(of.f.data[n:of.pos])
		}
	}
	copy(of.f.data[of.pos:], src)
	of.pos = end
	return len(src), nil
}

// Seek repositions the descriptor and returns the new offset.
func (fs *FS) Seek(fd int, offset int64, whence int) (int64, error) {
	of, err := fs.lookup(fd)
	if err != nil {
		return 0, err
	}
	var base int64
	switch whence {
	case SeekSet:
		base = 0
	case SeekCur:
		base = int64(of.pos)
	case SeekEnd:
		base = int64(len(of.f.data))
	default:
		return 0, fmt.Errorf("vfs: bad whence %d", whence)
	}
	np := base + offset
	if np < 0 {
		return 0, fmt.Errorf("vfs: seek to negative offset %d", np)
	}
	of.pos = int(np)
	return np, nil
}

// Tell returns the current offset.
func (fs *FS) Tell(fd int) (int64, error) {
	of, err := fs.lookup(fd)
	if err != nil {
		return 0, err
	}
	return int64(of.pos), nil
}

// Size returns the current size of the file behind fd.
func (fs *FS) Size(fd int) (int64, error) {
	of, err := fs.lookup(fd)
	if err != nil {
		return 0, err
	}
	return int64(len(of.f.data)), nil
}

// OpenCount reports the number of live descriptors.
func (fs *FS) OpenCount() int { return len(fs.fds) }

// TotalOpens reports lifetime successful opens (audit metric).
func (fs *FS) TotalOpens() int { return fs.opens }

// LeakedFDs returns the live descriptors that were NOT opened during
// initialization, in ascending order — the set the ClosureX harness closes
// between test cases.
func (fs *FS) LeakedFDs() []int { return fs.AppendLeakedFDs(nil) }

// AppendLeakedFDs appends the leaked descriptors to dst in ascending order
// and returns it — the allocation-free variant used by the restore loop.
func (fs *FS) AppendLeakedFDs(dst []int) []int {
	start := len(dst)
	for fd, of := range fs.fds {
		if !of.Init {
			dst = append(dst, fd)
		}
	}
	sort.Ints(dst[start:])
	return dst
}

// LeakedCount reports how many live descriptors are not init-persistent.
// O(1): maintained incrementally by Open/Close/MarkInit.
func (fs *FS) LeakedCount() int { return fs.nLeaked }

// MarkElided flags fd as opened at a FileElide fopen site. Called by the
// VM right after the open; unknown descriptors are ignored.
func (fs *FS) MarkElided(fd int) {
	if of, ok := fs.fds[fd]; ok && !of.Elided {
		of.Elided = true
		if !of.Init {
			fs.nElidedLeak++
		}
	}
}

// ElidedLeakCount reports how many leaked (non-init, live) descriptors
// came from FileElide sites — each one contradicts a must-close proof and
// is surfaced by the harness's elision audit. O(1), like LeakedCount.
func (fs *FS) ElidedLeakCount() int { return fs.nElidedLeak }

// InitFDs returns the live initialization-time descriptors in ascending
// order — the set the harness rewinds rather than closes.
func (fs *FS) InitFDs() []int { return fs.AppendInitFDs(nil) }

// AppendInitFDs appends the init-time descriptors to dst in ascending order
// and returns it.
func (fs *FS) AppendInitFDs(dst []int) []int {
	start := len(dst)
	for fd, of := range fs.fds {
		if of.Init {
			dst = append(dst, fd)
		}
	}
	sort.Ints(dst[start:])
	return dst
}

// MarkInit flags every live descriptor as initialization state.
func (fs *FS) MarkInit() {
	for _, of := range fs.fds {
		of.Init = true
	}
	fs.nLeaked = 0
	fs.nElidedLeak = 0
}

// Reset closes every descriptor and removes every file except those in
// keep. Used by the fresh-process mechanism between test cases.
func (fs *FS) Reset(keep map[string][]byte) {
	fs.fds = make(map[int]*OpenFile)
	fs.nextFD = 3
	fs.files = make(map[string]*file)
	fs.nLeaked = 0
	fs.nElidedLeak = 0
	for p, d := range keep {
		fs.WriteFile(p, d)
	}
}

// Clone duplicates the filesystem view and descriptor table (forkserver
// child): every file's contents are copied, and each descriptor is
// duplicated at its position, as fork() duplicates the fd table. The
// clone is rebuilt from the storage of the last released clone of fs (or
// of its clones) when there is one: its struct, maps, file objects and
// their buffers, and descriptor entries.
func (fs *FS) Clone() *FS {
	if fs.spare == nil {
		fs.spare = new(fsSpare)
	}
	nf := fs.spare.fs
	fs.spare.fs = nil
	if nf == nil {
		nf = &FS{files: make(map[string]*file, len(fs.files)), fds: make(map[int]*OpenFile, len(fs.fds))}
	}
	nf.nextFD, nf.fdLimit, nf.opens, nf.inj = fs.nextFD, fs.fdLimit, fs.opens, fs.inj
	nf.nLeaked, nf.nElidedLeak, nf.spare = fs.nLeaked, fs.nElidedLeak, fs.spare
	for p, f := range fs.files {
		nf.files[p] = nf.newFile(f.data)
	}
	for fd, of := range fs.fds {
		cp := nf.newOpenFile()
		*cp = *of
		cp.f = nf.files[of.Path]
		cp.f.refs++
		nf.fds[fd] = cp
	}
	return nf
}

// Release ends the life of a clone (process tear-down): its maps, file
// objects and descriptor entries go to the next Clone of the FS it was
// cloned from. The FS must not be used afterwards. Release does nothing
// to an FS that is no clone and was never cloned.
func (fs *FS) Release() {
	if fs.spare == nil {
		return
	}
	for _, f := range fs.files {
		fs.freeFiles = append(fs.freeFiles, f)
	}
	for _, of := range fs.fds {
		// A file WriteFile or Remove took off its path while a descriptor
		// held it is reached only through descriptors; zeroing refs lists
		// it once however many of them share it.
		if f := of.f; f.refs > 0 && fs.files[of.Path] != f {
			fs.freeFiles = append(fs.freeFiles, f)
			f.refs = 0
		}
		fs.free = append(fs.free, of)
	}
	clear(fs.files)
	clear(fs.fds)
	fs.spare.fs = fs
}

// Snapshot captures every file's contents (for dataflow-equivalence
// comparisons in the correctness study).
func (fs *FS) Snapshot() map[string][]byte {
	out := make(map[string][]byte, len(fs.files))
	for p, f := range fs.files {
		out[p] = append([]byte(nil), f.data...)
	}
	return out
}
