package execmgr

import (
	"fmt"

	"closurex/internal/vm"
)

// ResilienceConfig tunes the quarantine/rebuild/fallback ladder that keeps
// a long-running persistent campaign alive when its restore machinery
// degrades (the failure mode harness-degradation studies show dominates
// real-world long campaigns).
type ResilienceConfig struct {
	// WatchdogEvery runs harness.Verify after every N executions
	// (default 64). The restore-error poll is per-execution regardless.
	WatchdogEvery int
	// MaxRebuilds is how many consecutive rebuild attempts are made before
	// the mechanism degrades to a forkserver (default 3).
	MaxRebuilds int
	// BackoffBase is the watchdog cooldown, in executions, after the first
	// rebuild; it doubles per consecutive failure (default WatchdogEvery).
	BackoffBase int
}

// DefaultResilienceConfig returns the production ladder settings.
func DefaultResilienceConfig() ResilienceConfig {
	return ResilienceConfig{WatchdogEvery: 64, MaxRebuilds: 3}
}

// Event records one resilience action, for diagnostics and tests.
type Event struct {
	Exec   int64  // execution index when the event fired
	Kind   string // "restore-failure" | "watchdog" | "rebuild" | "degrade"
	Detail string
}

// Resilient wraps the ClosureX mechanism with the self-checking ladder:
//
//	restore error / watchdog violation
//	    → quarantine the input, rebuild the process image (backoff)
//	repeated failure (> MaxRebuilds consecutive)
//	    → degrade to ForkServer and keep the campaign running
//
// The fallback runs the same instrumented module against the same coverage
// map, so campaign coverage stays monotone across the transition — the
// campaign driver never notices beyond the throughput drop.
type Resilient struct {
	cfg  Config
	rcfg ResilienceConfig

	cx *ClosureX   // primary; released once degraded
	fb *ForkServer // fallback; built on degrade

	execs        int64
	sinceCheck   int
	cooldown     int // executions left before the watchdog re-arms
	consecFail   int
	rebuilds     int64
	restoreFails int64
	degraded     bool
	reason       string

	quarantined [][]byte
	events      []Event
}

// NewResilient builds the primary ClosureX mechanism under the ladder.
func NewResilient(cfg Config, rcfg ResilienceConfig) (*Resilient, error) {
	if rcfg.WatchdogEvery <= 0 {
		rcfg.WatchdogEvery = 64
	}
	if rcfg.MaxRebuilds <= 0 {
		rcfg.MaxRebuilds = 3
	}
	if rcfg.BackoffBase <= 0 {
		rcfg.BackoffBase = rcfg.WatchdogEvery
	}
	cx, err := NewClosureX(cfg)
	if err != nil {
		return nil, err
	}
	return &Resilient{cfg: cfg, rcfg: rcfg, cx: cx}, nil
}

// Name implements Mechanism.
func (r *Resilient) Name() string {
	if r.degraded {
		return "closurex-resilient(forkserver)"
	}
	return "closurex-resilient"
}

// Execute implements Mechanism: run the test case, then poll the restore
// path and (periodically) the watchdog, feeding violations into the ladder.
func (r *Resilient) Execute(input []byte) vm.Result {
	r.execs++
	if r.degraded {
		return r.fb.Execute(input)
	}
	res := r.cx.Execute(input)
	if err := r.cx.Harness().TakeRestoreError(); err != nil {
		// The iteration's own result stands; the image does not. Quarantine
		// the input that was executing when restoration failed — it is the
		// prime suspect for having driven the target into the bad state.
		r.quarantined = append(r.quarantined, append([]byte(nil), input...))
		r.restoreFails++
		r.event("restore-failure", err.Error())
		r.rebuild("restore failure: " + err.Error())
		return res
	}
	if r.cooldown > 0 {
		r.cooldown--
		return res
	}
	r.sinceCheck++
	if r.sinceCheck >= r.rcfg.WatchdogEvery {
		r.sinceCheck = 0
		if err := r.cx.Harness().Verify(); err != nil {
			r.event("watchdog", err.Error())
			r.rebuild("watchdog: " + err.Error())
		} else {
			// A clean bill of health closes out any failure streak.
			r.consecFail = 0
		}
	}
	return res
}

// Rebuild implements Mechanism and lets the campaign's divergence sentinel
// and the shard supervisor feed into the same ladder: one rebuild attempt,
// counting toward the degradation bound. Once degraded it does nothing.
func (r *Resilient) Rebuild(reason string) {
	if r.degraded {
		return
	}
	r.rebuild(reason)
}

// Degrade forces the fallback transition (sentinel exhausted its retries).
func (r *Resilient) Degrade(reason string) {
	if r.degraded {
		return
	}
	r.degrade(reason)
}

// Degraded reports whether the mechanism has fallen back to the forkserver.
func (r *Resilient) Degraded() bool { return r.degraded }

// rebuild replaces the persistent image with a fresh fork of the pristine
// template (the crash respawn path), with exponential backoff on the
// watchdog so a flapping image converges to degradation instead of
// thrashing.
func (r *Resilient) rebuild(reason string) {
	r.consecFail++
	if r.consecFail > r.rcfg.MaxRebuilds {
		r.degrade(fmt.Sprintf("%d consecutive rebuilds; last: %s", r.consecFail-1, reason))
		return
	}
	r.cx.respawn()
	r.rebuilds++
	r.cooldown = r.rcfg.BackoffBase << (r.consecFail - 1)
	r.sinceCheck = 0
	r.event("rebuild", reason)
}

// degrade swaps in a ForkServer over the same module and coverage map.
func (r *Resilient) degrade(reason string) {
	fb, err := NewForkServer(r.cfg)
	if err != nil {
		// Nothing to fall back onto; keep limping on the primary.
		r.event("degrade", "fallback construction failed: "+err.Error())
		r.consecFail = 0
		return
	}
	r.cx.Close()
	r.fb = fb
	r.degraded = true
	r.reason = reason
	r.event("degrade", reason)
}

func (r *Resilient) event(kind, detail string) {
	r.events = append(r.events, Event{Exec: r.execs, Kind: kind, Detail: detail})
}

// Harness exposes the primary's runtime while it is alive (nil once
// degraded).
func (r *Resilient) Harness() interface{ Verify() error } {
	if r.degraded {
		return nil
	}
	return r.cx.Harness()
}

// Rebuilds returns how many times the persistent image was rebuilt.
func (r *Resilient) Rebuilds() int64 { return r.rebuilds }

// RestoreFailures returns how many executions ended with a restore error —
// the shard-health telemetry a fleet supervisor watches for harness rot.
func (r *Resilient) RestoreFailures() int64 { return r.restoreFails }

// DegradedReason returns why the fallback engaged ("" while healthy).
func (r *Resilient) DegradedReason() string { return r.reason }

// Quarantined returns the inputs pulled aside by restore failures.
func (r *Resilient) Quarantined() [][]byte { return r.quarantined }

// Events returns the resilience action log.
func (r *Resilient) Events() []Event { return r.events }

// Execs implements Mechanism.
func (r *Resilient) Execs() int64 { return r.execs }

// Spawns implements Mechanism: images built by whichever side is active.
func (r *Resilient) Spawns() int64 {
	n := r.cx.Spawns()
	if r.fb != nil {
		n += r.fb.Spawns()
	}
	return n
}

// Close implements Mechanism.
func (r *Resilient) Close() {
	if r.degraded {
		r.fb.Close()
		return
	}
	r.cx.Close()
}

var _ Mechanism = (*Resilient)(nil)
