package execmgr

import (
	"closurex/internal/harness"
	"closurex/internal/vm"
)

// Template exposes the pristine image a ClosureX mechanism forks from.
func (c *ClosureX) Template() *harness.Harness { return c.tmpl }

// Template exposes the primary mechanism's template.
func (r *Resilient) Template() *harness.Harness { return r.cx.tmpl }

// Image exposes the image a ClosureX mechanism runs test cases in.
func (c *ClosureX) Image() *vm.VM { return c.h.VM() }

// Image exposes the persistent child.
func (p *PersistentNaive) Image() *vm.VM { return p.child }

// Image exposes the snapshotted child.
func (s *SnapshotLKM) Image() *vm.VM { return s.child }
