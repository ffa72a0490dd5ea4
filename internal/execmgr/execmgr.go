// Package execmgr implements the paper's execution-mechanism spectrum
// behind one interface:
//
//	Fresh           one process image per test case (system()/fork+exec)
//	ForkServer      AFL++'s default: CoW fork of a paused template image
//	PersistentNaive AFL++ persistent mode without state restoration —
//	                fast but semantically inconsistent (the paper's foil)
//	ClosureX        persistent execution with fine-grain state restoration
//
// The costs are real work in the simulator: Fresh re-materializes the whole
// image, ForkServer copies the page table and faults dirty pages, ClosureX
// restores only the closure_global_section bytes, leaked chunks and FDs.
package execmgr

import (
	"fmt"

	"closurex/internal/harness"
	"closurex/internal/ir"
	"closurex/internal/passes"
	"closurex/internal/vm"
)

// Config describes how to run a target under any mechanism.
type Config struct {
	// Options configures every VM the mechanism builds: template, forks
	// and respawns. Options.Injector also arms the harness restore steps.
	vm.Options
	// Module must already be instrumented (at minimum RenameMainPass +
	// CoveragePass; the ClosureX mechanism additionally requires the full
	// pipeline so its hooks are in place).
	Module *ir.Module
	// HarnessOpts selects which state ClosureX restores (ablations).
	// Nil means harness.FullRestore().
	HarnessOpts *harness.Options
	// RestartEvery bounds iterations per persistent process, like
	// __AFL_LOOP(1000). Applies to PersistentNaive. Default 1000.
	RestartEvery int
}

// Mechanism runs test cases under one execution strategy.
type Mechanism interface {
	// Name identifies the mechanism ("fresh", "forkserver", ...).
	Name() string
	// Execute runs one test case to completion.
	Execute(input []byte) vm.Result
	// Execs returns how many test cases have been executed.
	Execs() int64
	// Spawns returns how many process images have been built or forked —
	// the process-management cost driver.
	Spawns() int64
	// Rebuild replaces whatever process image survives between test cases
	// with a pristine one: a fresh fork of the mechanism's post-init
	// template, counted as a spawn. Mechanisms whose images never outlive
	// an execution have nothing to rebuild. reason is for mechanisms that
	// log their recovery actions.
	Rebuild(reason string)
	// Close releases resources.
	Close()
}

// New constructs a mechanism by name.
func New(name string, cfg Config) (Mechanism, error) {
	switch name {
	case "fresh":
		return NewFresh(cfg)
	case "forkserver":
		return NewForkServer(cfg)
	case "snapshot-lkm":
		return NewSnapshotLKM(cfg)
	case "persistent-naive":
		return NewPersistentNaive(cfg)
	case "closurex":
		return NewClosureX(cfg)
	}
	return nil, fmt.Errorf("execmgr: unknown mechanism %q", name)
}

// Names lists the available mechanisms in spectrum order: heavier state
// restoration first.
func Names() []string {
	return []string{"fresh", "forkserver", "snapshot-lkm", "persistent-naive", "closurex"}
}

func checkModule(cfg *Config) error {
	if cfg.Module == nil {
		return fmt.Errorf("execmgr: nil module")
	}
	if cfg.Module.Func(passes.TargetMain) == nil {
		return fmt.Errorf("execmgr: module lacks %s; run the pass pipeline", passes.TargetMain)
	}
	// Stamp call pre-resolution before the first VM touches the module:
	// idempotent (no-op when already resolved at commit time), and every
	// call dispatches through the cached indices.
	vm.ResolveModule(cfg.Module)
	return nil
}

// ---- Fresh ----

// Fresh builds a complete process image for every test case — the
// system()/fork+exec end of the spectrum.
type Fresh struct {
	cfg    Config
	execs  int64
	spawns int64
}

// NewFresh returns the fresh-process mechanism.
func NewFresh(cfg Config) (*Fresh, error) {
	if err := checkModule(&cfg); err != nil {
		return nil, err
	}
	return &Fresh{cfg: cfg}, nil
}

// Name implements Mechanism.
func (f *Fresh) Name() string { return "fresh" }

// Execute implements Mechanism.
func (f *Fresh) Execute(input []byte) vm.Result {
	v, err := vm.New(f.cfg.Module, f.cfg.Options)
	if err != nil {
		return vm.Result{Fault: &vm.Fault{Kind: vm.FaultOOM, Fn: "loader", Msg: err.Error()}}
	}
	f.spawns++
	v.SetInput(input)
	res := v.Call(passes.TargetMain)
	v.Release()
	f.execs++
	return res
}

// Execs implements Mechanism.
func (f *Fresh) Execs() int64 { return f.execs }

// Spawns implements Mechanism.
func (f *Fresh) Spawns() int64 { return f.spawns }

// Rebuild implements Mechanism: a no-op, since every test case already
// runs in a brand-new image.
func (f *Fresh) Rebuild(string) {}

// Close implements Mechanism.
func (f *Fresh) Close() {}

// ---- ForkServer ----

// ForkServer keeps a template image paused "at main" and CoW-forks it per
// test case, as AFL++'s forkserver does.
type ForkServer struct {
	cfg      Config
	template *vm.VM
	execs    int64
	spawns   int64
}

// NewForkServer builds the template image once.
func NewForkServer(cfg Config) (*ForkServer, error) {
	if err := checkModule(&cfg); err != nil {
		return nil, err
	}
	tmpl, err := vm.New(cfg.Module, cfg.Options)
	if err != nil {
		return nil, err
	}
	return &ForkServer{cfg: cfg, template: tmpl, spawns: 1}, nil
}

// Name implements Mechanism.
func (f *ForkServer) Name() string { return "forkserver" }

// Execute implements Mechanism.
func (f *ForkServer) Execute(input []byte) vm.Result {
	child := f.template.Fork()
	f.spawns++
	child.SetInput(input)
	res := child.Call(passes.TargetMain)
	child.Release()
	f.execs++
	return res
}

// Execs implements Mechanism.
func (f *ForkServer) Execs() int64 { return f.execs }

// Spawns implements Mechanism.
func (f *ForkServer) Spawns() int64 { return f.spawns }

// Rebuild implements Mechanism: a no-op, since every test case runs in a
// fresh fork of the template, which never runs one itself.
func (f *ForkServer) Rebuild(string) {}

// Close implements Mechanism.
func (f *ForkServer) Close() { f.template.Release() }

// ---- PersistentNaive ----

// PersistentNaive reuses one forked child for up to RestartEvery test cases
// with NO state restoration — AFL++ persistent mode on a target that was
// never manually reset. It is fast and semantically inconsistent: stale
// globals, leaked chunks and leaked descriptors accumulate until the child
// is recycled (crash, exit() or the __AFL_LOOP bound).
type PersistentNaive struct {
	cfg      Config
	template *vm.VM
	child    *vm.VM
	iters    int
	execs    int64
	spawns   int64
}

// NewPersistentNaive builds the template and the first child.
func NewPersistentNaive(cfg Config) (*PersistentNaive, error) {
	if err := checkModule(&cfg); err != nil {
		return nil, err
	}
	if cfg.RestartEvery <= 0 {
		cfg.RestartEvery = 1000
	}
	tmpl, err := vm.New(cfg.Module, cfg.Options)
	if err != nil {
		return nil, err
	}
	p := &PersistentNaive{cfg: cfg, template: tmpl, spawns: 1}
	p.respawn()
	return p, nil
}

func (p *PersistentNaive) respawn() {
	if p.child != nil {
		p.child.Release()
	}
	p.child = p.template.Fork()
	p.spawns++
	p.iters = 0
}

// Name implements Mechanism.
func (p *PersistentNaive) Name() string { return "persistent-naive" }

// Execute implements Mechanism.
func (p *PersistentNaive) Execute(input []byte) vm.Result {
	p.child.SetInput(input)
	res := p.child.Call(passes.TargetMain)
	p.execs++
	p.iters++
	// A crash or exit() kills the persistent process; the __AFL_LOOP bound
	// recycles it. Either way the next test case gets a new child.
	if res.Crashed() || res.Exited || p.iters >= p.cfg.RestartEvery {
		p.respawn()
	}
	return res
}

// Execs implements Mechanism.
func (p *PersistentNaive) Execs() int64 { return p.execs }

// Spawns implements Mechanism.
func (p *PersistentNaive) Spawns() int64 { return p.spawns }

// Rebuild implements Mechanism: the persistent child is replaced by a
// fresh fork of the template, as after a crash.
func (p *PersistentNaive) Rebuild(string) { p.respawn() }

// Close implements Mechanism.
func (p *PersistentNaive) Close() {
	if p.child != nil {
		p.child.Release()
	}
	p.template.Release()
}

// ---- ClosureX ----

// ClosureX runs the whole campaign in one process image, restoring
// fine-grain state between test cases via the harness. Only a crash forces
// a process respawn (a sanitizer report aborts the process, as it would
// under AFL++). Like AFL++ running a persistent target under its
// forkserver, the mechanism builds one pristine post-init template image
// that never runs a test case; the running image, and every respawn after
// a crash, is a copy-on-write fork of it.
type ClosureX struct {
	tmpl   *harness.Harness
	h      *harness.Harness
	execs  int64
	spawns int64
}

// NewClosureX validates that the ClosureX hooks are present, builds the
// template image (vm.New + harness.New) and forks the first running image
// from it.
func NewClosureX(cfg Config) (*ClosureX, error) {
	if err := checkModule(&cfg); err != nil {
		return nil, err
	}
	if n := countCalls(cfg.Module, "exit"); n > 0 {
		return nil, fmt.Errorf("execmgr: module has %d unhooked exit() calls; run the ClosureX pipeline", n)
	}
	v, err := vm.New(cfg.Module, cfg.Options)
	if err != nil {
		return nil, err
	}
	opts := harness.FullRestore()
	if cfg.HarnessOpts != nil {
		opts = *cfg.HarnessOpts
	}
	tmpl, err := harness.New(v, opts)
	if err != nil {
		v.Release()
		return nil, err
	}
	c := &ClosureX{tmpl: tmpl}
	c.respawn()
	return c, nil
}

// respawn replaces the running image with a fresh fork of the template.
func (c *ClosureX) respawn() {
	if c.h != nil {
		c.h.Release()
	}
	c.h = c.tmpl.Fork()
	c.spawns++
}

// Name implements Mechanism.
func (c *ClosureX) Name() string { return "closurex" }

// Execute implements Mechanism.
func (c *ClosureX) Execute(input []byte) vm.Result {
	res := c.h.RunOne(input)
	c.execs++
	if res.Crashed() {
		c.respawn()
	}
	return res
}

// Harness exposes the runtime (stats, correctness probes).
func (c *ClosureX) Harness() *harness.Harness { return c.h }

// Execs implements Mechanism.
func (c *ClosureX) Execs() int64 { return c.execs }

// Spawns implements Mechanism: the running images, first and respawned.
// The template is built once and never runs, so it does not count.
func (c *ClosureX) Spawns() int64 { return c.spawns }

// Rebuild implements Mechanism: the running image is replaced by a fresh
// fork of the template, as after a crash.
func (c *ClosureX) Rebuild(string) { c.respawn() }

// Close implements Mechanism.
func (c *ClosureX) Close() {
	c.h.Release()
	c.tmpl.Release()
}

// countCalls counts direct calls of name in the module.
func countCalls(m *ir.Module, name string) int {
	n := 0
	for _, f := range m.Funcs {
		for _, b := range f.Blocks {
			for i := range b.Instrs {
				if b.Instrs[i].Op == ir.OpCall && b.Instrs[i].Callee == name {
					n++
				}
			}
		}
	}
	return n
}

// ensure interface compliance.
var (
	_ Mechanism = (*Fresh)(nil)
	_ Mechanism = (*ForkServer)(nil)
	_ Mechanism = (*PersistentNaive)(nil)
	_ Mechanism = (*ClosureX)(nil)
)
