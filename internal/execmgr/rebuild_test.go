package execmgr_test

import (
	"bytes"
	"fmt"
	"reflect"
	"slices"
	"strings"
	"testing"

	"closurex/internal/core"
	"closurex/internal/execmgr"
	"closurex/internal/ir"
	"closurex/internal/targets"
	"closurex/internal/vfs"
	"closurex/internal/vm"
)

// imaged is a mechanism whose process image survives between test cases.
type imaged interface {
	execmgr.Mechanism
	Image() *vm.VM
}

// TestMechanismRebuildMatchesFreshTemplate checks the in-place rebuild the
// shard supervisor escalates to. For every target, a persistent mechanism
// that has run every seed and bug trigger has its surviving image
// scribbled over (every writable globals byte, a leaked chunk, an open
// descriptor) and is rebuilt; from then on it must give the same Result,
// coverage map, files and descriptor table, input for input, as a
// never-used mechanism over the same template, and the rebuild must count
// as exactly one spawn.
func TestMechanismRebuildMatchesFreshTemplate(t *testing.T) {
	for _, mech := range []string{"closurex", "persistent-naive", "snapshot-lkm"} {
		for _, tg := range targets.All() {
			t.Run(mech+"/"+tg.Name, func(t *testing.T) {
				inputs := tg.Seeds()
				for _, b := range tg.Bugs {
					inputs = append(inputs, b.Trigger)
				}
				mod, err := core.BuildWith(tg.Short+".c", tg.Source, core.BuildConfig{Variant: core.VariantFor(mech)})
				if err != nil {
					t.Fatal(err)
				}
				build := func(cov []byte) imaged {
					m, err := execmgr.New(mech, execmgr.Config{Module: mod, Options: vm.Options{CovMap: cov,
						ImagePages: tg.ImagePages, DeterministicRand: true, RandSeed: 5}})
					if err != nil {
						t.Fatal(err)
					}
					return m.(imaged)
				}
				cov := vm.NewCovMap()
				used := build(cov)
				defer used.Close()
				for _, in := range inputs {
					used.Execute(in)
				}
				dirty(t, used.Image())
				spawns := used.Spawns()
				used.Rebuild("test: dirtied image")
				if got := used.Spawns(); got != spawns+1 {
					t.Fatalf("Rebuild took spawns %d -> %d, want one more", spawns, got)
				}

				freshCov := vm.NewCovMap()
				fresh := build(freshCov)
				defer fresh.Close()
				if got, want := fsState(used.Image().FS), fsState(fresh.Image().FS); got != want {
					t.Fatalf("rebuilt image's files and descriptors:\n%s\nnever-used:\n%s", got, want)
				}
				for i, in := range inputs {
					clear(cov)
					clear(freshCov)
					got, want := used.Execute(in), fresh.Execute(in)
					if !reflect.DeepEqual(got, want) {
						t.Fatalf("input %d: rebuilt %+v, never-used %+v", i, got, want)
					}
					if !bytes.Equal(cov, freshCov) {
						t.Fatalf("input %d: coverage maps differ", i)
					}
					if got, want := fsState(used.Image().FS), fsState(fresh.Image().FS); got != want {
						t.Fatalf("input %d: rebuilt image's files and descriptors:\n%s\nnever-used:\n%s", i, got, want)
					}
				}
			})
		}
	}
}

// fsState describes a filesystem through its public surface: every
// file's bytes, then each live descriptor's number, kind, position and
// file size, then the open and leak counters.
func fsState(fs *vfs.FS) string {
	var b strings.Builder
	files := fs.Snapshot()
	paths := make([]string, 0, len(files))
	for p := range files {
		paths = append(paths, p)
	}
	slices.Sort(paths)
	for _, p := range paths {
		fmt.Fprintf(&b, "file %s %q\n", p, files[p])
	}
	for _, kind := range []string{"init", "leaked"} {
		fds := fs.InitFDs()
		if kind == "leaked" {
			fds = fs.LeakedFDs()
		}
		for _, fd := range fds {
			pos, perr := fs.Tell(fd)
			size, serr := fs.Size(fd)
			fmt.Fprintf(&b, "fd %d %s pos %d (%v) size %d (%v)\n", fd, kind, pos, perr, size, serr)
		}
	}
	fmt.Fprintf(&b, "opens %d leaked %d elided %d", fs.TotalOpens(), fs.LeakedCount(), fs.ElidedLeakCount())
	return b.String()
}

// dirty scribbles over v's writable globals, leaks a heap chunk and leaves
// a descriptor open: state no test case may see after a rebuild.
func dirty(t *testing.T, v *vm.VM) {
	t.Helper()
	for _, sec := range v.Layout.Sections {
		if sec.Name == ir.SectionRodata {
			continue
		}
		if err := v.Mem.Write(sec.Addr, bytes.Repeat([]byte{0xa5}, int(sec.Size))); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := v.Heap.Alloc(64); err != nil {
		t.Fatal(err)
	}
	v.SetInput([]byte("x"))
	if _, err := v.FS.Open("/input", "r"); err != nil {
		t.Fatal(err)
	}
}

// TestStatelessMechanismRebuildIsNoop checks that Rebuild changes nothing
// for the mechanisms whose images never outlive a test case: no spawn is
// counted and results and coverage stay input for input those of a
// mechanism that was never asked to rebuild.
func TestStatelessMechanismRebuildIsNoop(t *testing.T) {
	tg := targets.Get("giftext")
	inputs := tg.Seeds()
	for _, b := range tg.Bugs {
		inputs = append(inputs, b.Trigger)
	}
	for _, mech := range []string{"fresh", "forkserver"} {
		t.Run(mech, func(t *testing.T) {
			mod, err := core.BuildWith(tg.Short+".c", tg.Source, core.BuildConfig{Variant: core.VariantFor(mech)})
			if err != nil {
				t.Fatal(err)
			}
			build := func(cov []byte) execmgr.Mechanism {
				m, err := execmgr.New(mech, execmgr.Config{Module: mod, Options: vm.Options{CovMap: cov,
					DeterministicRand: true, RandSeed: 5}})
				if err != nil {
					t.Fatal(err)
				}
				return m
			}
			cov, refCov := vm.NewCovMap(), vm.NewCovMap()
			m, ref := build(cov), build(refCov)
			defer m.Close()
			defer ref.Close()
			for i, in := range inputs {
				spawns := m.Spawns()
				m.Rebuild("test")
				if m.Spawns() != spawns {
					t.Fatalf("Rebuild counted a spawn: %d -> %d", spawns, m.Spawns())
				}
				clear(cov)
				clear(refCov)
				got, want := m.Execute(in), ref.Execute(in)
				if !reflect.DeepEqual(got, want) {
					t.Fatalf("input %d: after Rebuild %+v, without %+v", i, got, want)
				}
				if !bytes.Equal(cov, refCov) {
					t.Fatalf("input %d: coverage maps differ", i)
				}
			}
			if m.Spawns() != ref.Spawns() || m.Execs() != ref.Execs() {
				t.Fatalf("counters moved: spawns %d/%d execs %d/%d", m.Spawns(), ref.Spawns(), m.Execs(), ref.Execs())
			}
		})
	}
}
