package execmgr

import "closurex/internal/harness"

// Template exposes the pristine image a ClosureX mechanism forks from.
func (c *ClosureX) Template() *harness.Harness { return c.tmpl }

// Template exposes the primary mechanism's template.
func (r *Resilient) Template() *harness.Harness { return r.cx.tmpl }
