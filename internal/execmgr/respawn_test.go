package execmgr_test

import (
	"bytes"
	"fmt"
	"reflect"
	"testing"

	"closurex/internal/core"
	"closurex/internal/execmgr"
	"closurex/internal/faultinject"
	"closurex/internal/harness"
	"closurex/internal/ir"
	"closurex/internal/mem"
	"closurex/internal/targets"
	"closurex/internal/vm"
)

// deferInitSrc keeps a heap chunk, an open descriptor and global state
// from deferred init, so a respawn has init marks to reproduce. Input 'C'
// crashes; any other input leaks a chunk and a descriptor.
const deferInitSrc = `
int table[4];
char *keep;
int cfg;
void closurex_init(void) {
	for (int i = 0; i < 4; i++) table[i] = (i + 1) * 10;
	keep = (char*)malloc(48);
	keep[0] = 7;
	cfg = fopen("/config", "r");
	if (!cfg) abort();
}
int main(void) {
	closurex_init();
	int f = fopen("/input", "r");
	if (!f) abort();
	int c = fgetc(f);
	char *leak = (char*)malloc(32);
	leak[0] = (char)c;
	table[c & 3] += c;
	if (c == 'C') {
		int *p = 0;
		return *p;
	}
	return table[3] + keep[0] + fgetc(cfg);
}
`

// respawnCase is one module the respawn tests drive: a registered target
// or the deferred-init fixture.
type respawnCase struct {
	name     string
	source   string
	variant  core.Variant
	pages    int
	files    map[string][]byte
	inputs   [][]byte // run before the forced crash; may crash themselves
	postSeed []byte   // the first input after the respawn
}

func respawnCases() []respawnCase {
	var out []respawnCase
	for _, tg := range targets.All() {
		inputs := tg.Seeds()
		for _, b := range tg.Bugs {
			inputs = append(inputs, b.Trigger)
		}
		out = append(out, respawnCase{name: tg.Name, source: tg.Source, variant: core.ClosureX,
			pages: tg.ImagePages, inputs: inputs, postSeed: tg.Seeds()[0]})
	}
	return append(out, respawnCase{name: "deferinit", source: deferInitSrc,
		variant: core.ClosureXDeferInit, pages: 16,
		files:  map[string][]byte{"/config": []byte("cfg")},
		inputs: [][]byte{[]byte("a"), []byte("C"), []byte("b")}, postSeed: []byte("d")})
}

func (rc respawnCase) build(t *testing.T, sanitize bool) (*ir.Module, *harness.Options) {
	t.Helper()
	cfg := core.BuildConfig{Variant: rc.variant}
	hopts := harness.FullRestore()
	if sanitize {
		// The sanitize benchmark workload's build: checks plus scoped
		// restore, so the fork also shares elision ranges.
		cfg.Sanitize, cfg.Interproc = core.SanitizeElide, true
		hopts.ElideRestore = true
	}
	mod, err := core.BuildWith(rc.name+".c", rc.source, cfg)
	if err != nil {
		t.Fatalf("%s: %v", rc.name, err)
	}
	return mod, &hopts
}

// fdState is one open descriptor as the image sees it.
type fdState struct {
	fd, pos, size int64
	init          bool
}

// image is a deep copy of the state a respawned process image must
// reproduce: every mapped page, the heap's chunk map, bump pointer and
// quarantine, the shadow plane, and the filesystem with its descriptors.
type image struct {
	pages      map[uint64][]byte
	chunks     []mem.Chunk
	base, brk  uint64
	liveBytes  uint64
	quarantine []mem.Chunk
	shadow     *mem.Shadow
	files      map[string][]byte
	fds        []fdState
	opens      int
}

func imageOf(v *vm.VM) image {
	im := image{
		pages:      map[uint64][]byte{},
		chunks:     v.Heap.Chunks(),
		base:       v.Heap.Base(),
		brk:        v.Heap.Brk(),
		liveBytes:  v.Heap.LiveBytes(),
		quarantine: v.Heap.QuarantineSnapshot(),
		files:      v.FS.Snapshot(),
		opens:      v.FS.TotalOpens(),
	}
	for _, pn := range v.Mem.MappedPages() {
		im.pages[pn] = append([]byte(nil), v.Mem.PageView(pn)...)
	}
	if sh := v.Heap.Shadow(); sh != nil {
		im.shadow = sh.Clone()
	}
	addFDs := func(fds []int, init bool) {
		for _, fd := range fds {
			pos, _ := v.FS.Tell(fd)
			size, _ := v.FS.Size(fd)
			im.fds = append(im.fds, fdState{int64(fd), pos, size, init})
		}
	}
	addFDs(v.FS.InitFDs(), true)
	addFDs(v.FS.LeakedFDs(), false)
	return im
}

// diffImages reports the first difference between two images ("" when
// they are byte-identical).
func diffImages(got, want image) string {
	if len(got.pages) != len(want.pages) {
		return "mapped page count differs"
	}
	for pn, w := range want.pages {
		if g, ok := got.pages[pn]; !ok || !bytes.Equal(g, w) {
			return fmt.Sprintf("page %#x differs", pn)
		}
	}
	switch {
	case !reflect.DeepEqual(got.chunks, want.chunks):
		return "heap chunk map differs"
	case got.base != want.base || got.brk != want.brk || got.liveBytes != want.liveBytes:
		return "heap base/brk/live bytes differ"
	case !reflect.DeepEqual(got.quarantine, want.quarantine):
		return "free quarantine differs"
	case (got.shadow == nil) != (want.shadow == nil):
		return "shadow plane attached on one side only"
	case got.shadow != nil && !got.shadow.Equal(want.shadow.Snapshot()):
		return "shadow plane differs"
	case !reflect.DeepEqual(got.files, want.files):
		return "filesystem contents differ"
	case !reflect.DeepEqual(got.fds, want.fds):
		return "descriptor table differs"
	case got.opens != want.opens:
		return "open counter differs"
	}
	return ""
}

// TestForkedRespawnMatchesFreshImage drives every target through the
// ClosureX mechanism up to a crash and checks that the respawned image —
// a fork of the post-init template — is byte-identical to an image built
// from scratch with vm.New + harness.New, and that both produce the same
// first result and coverage map (freetype's rand() stream included), with
// the sanitizer off and on.
func TestForkedRespawnMatchesFreshImage(t *testing.T) {
	for _, rc := range respawnCases() {
		for _, sanitize := range []bool{false, true} {
			mod, hopts := rc.build(t, sanitize)
			// Subtests are named target/engine[/sanitize]; the interpreter
			// is the one execution engine.
			name := rc.name + "/interp"
			if sanitize {
				name += "/sanitize"
			}
			t.Run(name, func(t *testing.T) {
				checkForkedRespawn(t, rc, mod, hopts, vm.Options{
					ImagePages: rc.pages, Files: rc.files, DeterministicRand: true, RandSeed: 11,
					Sanitize: sanitize,
				})
			})
		}
	}
}

func checkForkedRespawn(t *testing.T, rc respawnCase, mod *ir.Module, hopts *harness.Options, opts vm.Options) {
	inj := faultinject.New(1)
	cov := vm.NewCovMap()
	mopts := opts
	mopts.CovMap, mopts.Injector = cov, inj
	cx, err := execmgr.NewClosureX(execmgr.Config{Options: mopts, Module: mod, HarnessOpts: hopts})
	if err != nil {
		t.Fatal(err)
	}
	defer cx.Close()
	for _, in := range rc.inputs {
		cx.Execute(in)
	}
	// Every target aborts when it cannot open its input, so one failed
	// fopen is a crash any target takes.
	inj.FailAfter(faultinject.VFSOpen, 0, 1)
	spawns := cx.Spawns()
	if res := cx.Execute(rc.postSeed); !res.Crashed() {
		t.Fatalf("forced crash did not crash: %+v", res)
	}
	if cx.Spawns() != spawns+1 {
		t.Fatalf("Spawns = %d after a crash, want %d", cx.Spawns(), spawns+1)
	}
	got := cx.Harness()

	fresh := opts
	fresh.CovMap = vm.NewCovMap()
	v, err := vm.New(mod, fresh)
	if err != nil {
		t.Fatal(err)
	}
	defer v.Release()
	want, err := harness.New(v, *hopts)
	if err != nil {
		t.Fatal(err)
	}
	if d := diffImages(imageOf(got.VM()), imageOf(want.VM())); d != "" {
		t.Fatalf("respawned image differs from a fresh one: %s", d)
	}
	if got.Incremental() != want.Incremental() || got.ElisionActive() != want.ElisionActive() ||
		got.GlobalSnapshotSize() != want.GlobalSnapshotSize() {
		t.Fatal("respawned harness restores differently from a fresh one")
	}
	if err := got.Verify(); err != nil {
		t.Fatalf("respawned image fails the watchdog: %v", err)
	}

	// Deferred init bumped the fresh map's counters; compare this run only.
	clear(cov)
	clear(fresh.CovMap)
	gres, wres := got.RunOne(rc.postSeed), want.RunOne(rc.postSeed)
	if !reflect.DeepEqual(gres, wres) {
		t.Fatalf("first post-respawn result differs:\nforked %+v\nfresh  %+v", gres, wres)
	}
	if !bytes.Equal(cov, fresh.CovMap) {
		t.Fatal("first post-respawn coverage map differs")
	}
	if d := diffImages(imageOf(got.VM()), imageOf(want.VM())); d != "" {
		t.Fatalf("images differ after the first post-respawn run: %s", d)
	}
}

// TestTemplateStaysPristine crashes a resilient ClosureX mechanism
// repeatedly, dirties the live image and rebuilds it: the template the
// respawns fork from must still hold its post-init state, and the rebuilt
// child must pass the watchdog and roll back its shadow pages.
func TestTemplateStaysPristine(t *testing.T) {
	tg := targets.Get("gpmf-parser")
	rc := respawnCase{name: tg.Name, source: tg.Source, variant: core.ClosureX}
	for _, sanitize := range []bool{false, true} {
		mod, hopts := rc.build(t, sanitize)
		inj := faultinject.New(2)
		r, err := execmgr.NewResilient(execmgr.Config{Module: mod, HarnessOpts: hopts,
			Options: vm.Options{CovMap: vm.NewCovMap(), ImagePages: tg.ImagePages,
				DeterministicRand: true, Sanitize: sanitize, Injector: inj}},
			execmgr.DefaultResilienceConfig())
		if err != nil {
			t.Fatal(err)
		}
		tmpl := r.Template()
		before := imageOf(tmpl.VM())

		spawns := r.Spawns()
		for _, b := range tg.Bugs {
			r.Execute(b.Trigger)
		}
		inj.FailAfter(faultinject.VFSOpen, 0, 1)
		r.Execute(tg.Seeds()[0])
		if r.Spawns() < spawns+2 {
			t.Fatalf("sanitize=%v: %d respawns, want crashes to drive at least 2", sanitize, r.Spawns()-spawns)
		}

		live := r.Harness().(*harness.Harness)
		lv := live.VM()
		sec, _ := lv.Layout.Section(ir.SectionClosure)
		if err := lv.Mem.Write(sec.Addr, bytes.Repeat([]byte{0xa5}, int(sec.Size))); err != nil {
			t.Fatal(err)
		}
		if _, err := lv.Heap.Alloc(64); err != nil {
			t.Fatal(err)
		}
		lv.SetInput([]byte("x"))
		if _, err := lv.FS.Open("/input", "r"); err != nil {
			t.Fatal(err)
		}
		if live.Verify() == nil {
			t.Fatal("watchdog missed the dirtied live image")
		}
		r.Rebuild("test: dirtied image")

		if d := diffImages(imageOf(tmpl.VM()), before); d != "" {
			t.Fatalf("sanitize=%v: template left its post-init state: %s", sanitize, d)
		}
		if err := tmpl.Verify(); err != nil {
			t.Fatalf("sanitize=%v: template: %v", sanitize, err)
		}
		child := r.Harness().(*harness.Harness)
		if child == live {
			t.Fatal("Rebuild kept the dirtied image")
		}
		if err := child.Verify(); err != nil {
			t.Fatalf("sanitize=%v: rebuilt child: %v", sanitize, err)
		}
		if res := r.Execute(tg.Seeds()[0]); res.Crashed() {
			t.Fatalf("seed crashed: %v", res.Fault)
		}
		if err := child.Verify(); err != nil {
			t.Fatalf("sanitize=%v: rebuilt child after a run: %v", sanitize, err)
		}
		if sanitize && child.Stats().ShadowPagesRestored == 0 {
			t.Fatal("rebuilt child rolled back no shadow pages")
		}
		r.Close()
	}
}
