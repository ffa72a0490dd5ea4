package fuzz

import (
	"fmt"

	"closurex/internal/vm"
)

// Controller is the campaign's handle on the execution mechanism's
// quarantine/rebuild/fallback ladder (implemented by execmgr.Resilient).
// The sentinel routes divergences into it: each divergence triggers one
// rebuild of the persistent image; a streak longer than MaxFailures
// degrades the mechanism to its fallback.
type Controller interface {
	// Rebuild asks for one rebuild of the persistent process image.
	Rebuild(reason string)
	// Degrade asks for the permanent fallback transition.
	Degrade(reason string)
	// Degraded reports whether the fallback is already active.
	Degraded() bool
}

// SentinelConfig arms the divergence sentinel: the paper's offline §6.1.4
// correctness study turned into a runtime self-check. Every Every campaign
// executions, one queue entry is replayed under the campaign's persistent
// mechanism AND under a fresh-process reference executor; their coverage
// edge sets and fault verdicts must agree. A mismatch means the persistent
// image has drifted from fresh-process semantics.
type SentinelConfig struct {
	// Reference executes the replay in a fresh process image each time. It
	// must run the same instrumented module as the campaign's executor so
	// the two coverage maps share probe geometry.
	Reference Executor
	// RefCovMap is the reference executor's coverage map.
	RefCovMap []byte
	// Every is the probe period in campaign executions (0 disables).
	Every int64
	// MaxFailures bounds consecutive divergent probes before the sentinel
	// gives up on rebuilds and degrades the mechanism (default 3).
	MaxFailures int
	// Controller receives rebuild/degrade requests; nil means the sentinel
	// only records divergences (observation mode — how the PersistentNaive
	// pathology demonstration runs).
	Controller Controller
}

func (s *SentinelConfig) setDefaults() {
	if s.MaxFailures <= 0 {
		s.MaxFailures = 3
	}
}

// Divergence records one sentinel probe whose persistent-mechanism replay
// disagreed with the fresh-process reference.
type Divergence struct {
	// Exec is the campaign execution count when the probe ran.
	Exec int64
	// Input is the replayed queue entry.
	Input []byte
	// Reason describes the mismatch ("fault ..." or "edges ...").
	Reason string
}

// Divergences returns the sentinel's findings so far.
func (c *Campaign) Divergences() []Divergence { return c.divergences }

// EdgeSetProbes returns how many sentinel probes compared two non-empty
// edge sets. A sentinel that probes but never reaches this compares
// nothing: its edge-set check is vacuous.
func (c *Campaign) EdgeSetProbes() int64 { return c.sentEdgeProbes }

// Quarantined returns queue entries the sentinel pulled out of rotation.
func (c *Campaign) Quarantined() []*Entry { return c.quarantined }

// sentinelProbe replays one queue entry under both executors and compares.
// Probe replays do not count as campaign executions and do not feed the
// cumulative bitmap, so arming the sentinel never perturbs the mutation
// stream — a campaign with and without divergences stays deterministic in
// everything except the sentinel's own bookkeeping.
func (c *Campaign) sentinelProbe() {
	s := c.cfg.Sentinel
	if len(c.queue) == 0 {
		c.sentNext = c.execs + s.Every
		return
	}
	e := c.queue[c.sentCursor%len(c.queue)]
	c.sentCursor++

	ClearTrace(c.cfg.CovMap)
	resP := c.cfg.Executor.Execute(e.Input)
	pEdges := edgeSet(c.cfg.CovMap)
	ClearTrace(s.RefCovMap)
	resR := s.Reference.Execute(e.Input)
	rEdges := edgeSet(s.RefCovMap)
	if len(pEdges) > 0 && len(rEdges) > 0 {
		c.sentEdgeProbes++
	}

	reason := ""
	switch {
	case resultKey(resP) != resultKey(resR):
		reason = fmt.Sprintf("result %s vs fresh %s", resultKey(resP), resultKey(resR))
	case !sameEdgeSet(pEdges, rEdges):
		reason = fmt.Sprintf("edge set %d vs fresh %d (symmetric difference %d)",
			len(pEdges), len(rEdges), edgeSetDiff(pEdges, rEdges))
	}
	if reason == "" {
		c.sentFails = 0
		c.sentBackoff = 1
		c.sentNext = c.execs + s.Every
		return
	}

	c.divergences = append(c.divergences, Divergence{
		Exec:   c.execs,
		Input:  append([]byte(nil), e.Input...),
		Reason: reason,
	})
	c.quarantineEntry(e)
	c.sentFails++
	if ctrl := s.Controller; ctrl != nil && !ctrl.Degraded() {
		if c.sentFails > s.MaxFailures {
			ctrl.Degrade(fmt.Sprintf("sentinel: %d consecutive divergences; last: %s", c.sentFails, reason))
		} else {
			ctrl.Rebuild("sentinel: " + reason)
		}
	}
	// Back off: a diverging image is being rebuilt (or is beyond help), so
	// probing at full cadence would only burn executions re-confirming it.
	c.sentBackoff *= 2
	c.sentNext = c.execs + s.Every*c.sentBackoff
}

// quarantineEntry removes e from the queue (keeping at least one entry so
// mutation always has a basis) and parks it in the quarantine list.
func (c *Campaign) quarantineEntry(e *Entry) {
	if len(c.queue) <= 1 {
		c.quarantined = append(c.quarantined, e)
		return
	}
	for i, q := range c.queue {
		if q == e {
			c.queue = append(c.queue[:i], c.queue[i+1:]...)
			break
		}
	}
	c.quarantined = append(c.quarantined, e)
	if c.cur == e {
		// Don't keep mutating from a quarantined basis.
		c.burst = 0
	}
}

// edgeSet collects the indices of non-zero coverage cells and clears the
// map for the next execution.
func edgeSet(m []byte) map[int]struct{} {
	out := make(map[int]struct{})
	ConsumeTrace(m, func(i int, _ byte) { out[i] = struct{}{} })
	return out
}

func sameEdgeSet(a, b map[int]struct{}) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if _, ok := b[i]; !ok {
			return false
		}
	}
	return true
}

func edgeSetDiff(a, b map[int]struct{}) int {
	n := 0
	for i := range a {
		if _, ok := b[i]; !ok {
			n++
		}
	}
	for i := range b {
		if _, ok := a[i]; !ok {
			n++
		}
	}
	return n
}

// resultKey summarizes an execution outcome for equivalence comparison:
// the fault triage key (hang-bucketed for timeouts), the exit status, or a
// normal return.
func resultKey(r vm.Result) string {
	switch {
	case r.Fault != nil && r.Fault.Kind == vm.FaultTimeout:
		return HangKey(r.Fault)
	case r.Fault != nil:
		return r.Fault.Key()
	case r.Exited:
		return fmt.Sprintf("exit(%d)", r.ExitCode)
	default:
		return fmt.Sprintf("ret(%d)", r.Ret)
	}
}
