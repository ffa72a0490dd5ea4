package fuzz

// Shard supervision for ParallelCampaign. Each shard's exec loop runs under
// a per-shard supervisor that catches shard death (an injected kill, a
// restore corruption, or a real panic anywhere in the shard's exec stack)
// and climbs the PR-1 recovery ladder at fleet scope:
//
//	fault
//	    → restart the shard loop with exponential backoff (campaign state —
//	      queue, RNG, bitmap — survives; only the segment died)
//	repeated fault (> MaxRestarts consecutive)
//	    → rebuild the execution mechanism in place through its
//	      Rebuild(reason) method: a fresh fork of its post-init template
//	      (execmgr.Resilient climbs its own ladder instead); an executor
//	      without the method skips this step
//	fault again
//	    → permanent quarantine: the shard's coverage is merged, its last
//	      corpus entries published to the other shards, and the campaign
//	      continues on the remaining healthy shards
//
// A shard that reaches a sync boundary having executed since its last fault
// closes its fault streak, so intermittent faults restart forever without
// ever quarantining a shard that still makes progress.
//
// With no faults the supervisor is inert: the loop runs to completion on
// the first attempt, the deferred recover never fires, and the sync cadence
// is untouched — fault-free campaigns behave exactly as they did without
// supervision (the J=1 bit-identity proof still holds).

import (
	"fmt"
	"math"
	"sync"
	"sync/atomic"
	"time"

	"closurex/internal/faultinject"
)

// inboxCap bounds each shard's import inbox; when a shard stalls and stops
// draining, publishers drop its oldest pending imports instead of growing
// it without bound. Dropped imports are mutation fodder only — their
// coverage already lives in the global bitmap — so dropping is always
// sound.
const inboxCap = 4096

// SupervisorConfig tunes the per-shard supervision ladder.
type SupervisorConfig struct {
	// MaxRestarts is how many consecutive plain restarts a shard gets
	// before the supervisor escalates to a mechanism rebuild; one more
	// fault after the rebuild quarantines the shard permanently
	// (default 3).
	MaxRestarts int
	// Backoff is the cooldown before the first restart; it doubles per
	// consecutive fault (default 2ms — shards are in-process goroutines,
	// not OS processes, so the base is small).
	Backoff time.Duration
	// HangAfter is the no-progress threshold for the hang escalation
	// check: a monitor goroutine marks a shard stalled when its exec
	// counter has not moved for this long (default 10s; < 0 disables).
	// Escalation is observational — a wedged goroutine cannot be
	// preempted in-process — but the mark surfaces through Health and the
	// event log so operators and the stats emitter see it.
	HangAfter time.Duration
	// Injector arms chaos injection in the parallel layer: shard kills,
	// restore corruption, corpus-publish delay/drop. Nil injects nothing
	// and keeps the per-step probe to a single nil check.
	Injector *faultinject.Injector
}

func (s *SupervisorConfig) setDefaults() {
	if s.MaxRestarts <= 0 {
		s.MaxRestarts = 3
	}
	if s.Backoff <= 0 {
		s.Backoff = 2 * time.Millisecond
	}
	if s.HangAfter == 0 {
		s.HangAfter = 10 * time.Second
	}
}

// shardFault is the panic payload the chaos probes (and any future
// self-check) throw to kill the current shard segment with a typed verdict.
type shardFault struct {
	kind   string // "kill" | "restore-corrupt"
	detail string
}

// shardHealth is the per-shard health ledger. All fields are atomics so
// Health() can snapshot them from any goroutine while the fleet runs.
type shardHealth struct {
	restarts        atomic.Int64
	rebuilds        atomic.Int64
	restoreFailures atomic.Int64
	consecFaults    atomic.Int64
	hangEscalations atomic.Int64
	inboxDropped    atomic.Int64
	quarantined     atomic.Bool
	stalled         atomic.Bool
	lastProgress    atomic.Int64  // unix nanos of the last observed progress
	rateBits        atomic.Uint64 // EWMA execs/sec, as math.Float64bits

	mu        sync.Mutex
	lastFault string
}

func (h *shardHealth) touchProgress() { h.lastProgress.Store(time.Now().UnixNano()) }

func (h *shardHealth) setLastFault(s string) {
	h.mu.Lock()
	h.lastFault = s
	h.mu.Unlock()
}

func (h *shardHealth) getLastFault() string {
	h.mu.Lock()
	defer h.mu.Unlock()
	return h.lastFault
}

// ShardHealth is one shard's health snapshot — the state a fleet
// supervisor (CLI stats emitter, future closurex-serve daemon) watches.
type ShardHealth struct {
	Shard int
	// Execs/Crashes/Hangs are the counters sampled at the shard's last
	// sync boundary.
	Execs   int64
	Crashes int64
	Hangs   int64
	// ExecRate is an exponentially weighted execs/sec over sync windows.
	ExecRate float64
	// Restarts counts supervised segment restarts; Rebuilds counts
	// mechanism rebuilds; RestoreFailures counts faults triaged as restore
	// corruption (both injected and, for mechanisms that expose it,
	// organic restore errors).
	Restarts        int64
	Rebuilds        int64
	RestoreFailures int64
	// ConsecutiveFaults is the current fault streak (0 while healthy).
	ConsecutiveFaults int64
	// HangEscalations counts monitor no-progress escalations.
	HangEscalations int64
	// InboxDropped counts imports shed by the bounded inbox.
	InboxDropped int64
	// Quarantined means the supervisor permanently retired the shard;
	// Stalled means the hang monitor currently sees no progress.
	Quarantined bool
	Stalled     bool
	// LastProgress is when the shard last demonstrably advanced.
	LastProgress time.Time
	// LastFault describes the most recent fault ("" while clean).
	LastFault string
	// MechDegraded mirrors the mechanism's own ladder state when the
	// executor exposes it (execmgr.Resilient fallen back to forkserver).
	MechDegraded bool
}

// ShardEvent is one entry in the fleet's supervision log.
type ShardEvent struct {
	Shard  int
	Exec   int64 // the shard's exec count when the event fired
	Kind   string
	Detail string
	At     time.Duration // campaign time
}

// mechRebuilder is the optional executor interface behind the supervisor's
// rebuild step. Every execmgr mechanism satisfies it: persistent ones
// re-fork their template, execmgr.Resilient climbs its own ladder.
type mechRebuilder interface{ Rebuild(reason string) }

// mechDegraded is the optional executor interface exposing the mechanism
// ladder's fallback state (execmgr.Resilient).
type mechDegraded interface{ Degraded() bool }

// mechRestoreFails is the optional executor interface exposing organic
// restore-error counts (execmgr.Resilient), folded into ShardHealth next to
// the supervisor's own injected-fault count.
type mechRestoreFails interface{ RestoreFailures() int64 }

// Health snapshots every shard's supervision state. Safe to call from any
// goroutine while the fleet runs; counter fields lag live progress by at
// most one sync window.
func (p *ParallelCampaign) Health() []ShardHealth {
	out := make([]ShardHealth, len(p.shards))
	for j, sh := range p.shards {
		h := &p.health[j]
		out[j] = ShardHealth{
			Shard:             j,
			Execs:             atomic.LoadInt64(&p.counters[j].execs),
			Crashes:           atomic.LoadInt64(&p.counters[j].crashes),
			Hangs:             atomic.LoadInt64(&p.counters[j].hangs),
			ExecRate:          math.Float64frombits(h.rateBits.Load()),
			Restarts:          h.restarts.Load(),
			Rebuilds:          h.rebuilds.Load(),
			RestoreFailures:   h.restoreFailures.Load(),
			ConsecutiveFaults: h.consecFaults.Load(),
			HangEscalations:   h.hangEscalations.Load(),
			InboxDropped:      h.inboxDropped.Load(),
			Quarantined:       h.quarantined.Load(),
			Stalled:           h.stalled.Load(),
			LastFault:         h.getLastFault(),
		}
		if ns := h.lastProgress.Load(); ns > 0 {
			out[j].LastProgress = time.Unix(0, ns)
		}
		if d, ok := sh.c.cfg.Executor.(mechDegraded); ok {
			out[j].MechDegraded = d.Degraded()
		}
		if rf, ok := sh.c.cfg.Executor.(mechRestoreFails); ok {
			out[j].RestoreFailures += rf.RestoreFailures()
		}
	}
	return out
}

// HealthyShards counts shards not yet quarantined. A caller driving the
// campaign in slices (the CLI status loop) should stop once this reaches
// zero — RunFor/RunExecs return immediately with no shard left to fuzz.
func (p *ParallelCampaign) HealthyShards() int {
	n := 0
	for j := range p.health {
		if !p.health[j].quarantined.Load() {
			n++
		}
	}
	return n
}

// Events returns a copy of the supervision log (faults, restarts, rebuilds,
// quarantines, hang escalations) in arrival order.
func (p *ParallelCampaign) Events() []ShardEvent {
	p.eventMu.Lock()
	defer p.eventMu.Unlock()
	return append([]ShardEvent(nil), p.events...)
}

func (p *ParallelCampaign) eventf(shard int, exec int64, kind, format string, args ...interface{}) {
	ev := ShardEvent{Shard: shard, Exec: exec, Kind: kind, Detail: fmt.Sprintf(format, args...), At: p.Elapsed()}
	p.eventMu.Lock()
	p.events = append(p.events, ev)
	p.eventMu.Unlock()
}

// step advances sh's campaign by one execution, probing the chaos sites
// first. The production fast path is one nil check.
func (p *ParallelCampaign) step(sh *shard) {
	if inj := p.sup.Injector; inj != nil {
		if inj.Should(faultinject.ShardKill) || inj.Should(faultinject.ForShard(faultinject.ShardKill, sh.id)) {
			panic(shardFault{kind: "kill", detail: faultinject.Err(faultinject.ShardKill).Error()})
		}
		if inj.Should(faultinject.ShardRestore) || inj.Should(faultinject.ForShard(faultinject.ShardRestore, sh.id)) {
			panic(shardFault{kind: "restore-corrupt", detail: faultinject.Err(faultinject.ShardRestore).Error()})
		}
	}
	sh.c.Step()
}

// supervise is one shard's top-level goroutine: run the exec loop, and on
// shard death climb restart → rebuild → quarantine. A quarantined shard
// never restarts, including across subsequent RunFor/RunExecs calls.
func (p *ParallelCampaign) supervise(sh *shard, fn func(*shard)) {
	h := &p.health[sh.id]
	if h.quarantined.Load() {
		return
	}
	h.touchProgress()
	for {
		if p.runSegment(sh, fn) {
			// Normal completion (deadline, exec target, or stop request):
			// publish everything at a final boundary. The boundary closes
			// the fault streak only if the shard executed since its last
			// fault: a segment that found the budget already spent is no
			// recovery.
			p.syncShard(sh)
			return
		}
		sh.faultExecs = sh.c.execs
		faults := h.consecFaults.Add(1)
		h.restarts.Add(1)
		p.eventf(sh.id, sh.c.execs, "fault", "%s (streak %d)", h.getLastFault(), faults)
		switch {
		case faults <= int64(p.sup.MaxRestarts):
			p.eventf(sh.id, sh.c.execs, "restart", "backoff %v", p.backoffFor(faults))
			p.backoffWait(p.backoffFor(faults))
		case faults == int64(p.sup.MaxRestarts)+1 && p.rebuildShard(sh):
			p.backoffWait(p.backoffFor(faults))
		default:
			p.quarantineShard(sh)
			return
		}
	}
}

// runSegment runs one supervised stretch of the shard loop, converting any
// panic in the shard's exec stack into a recorded fault.
func (p *ParallelCampaign) runSegment(sh *shard, fn func(*shard)) (completed bool) {
	defer func() {
		if r := recover(); r != nil {
			h := &p.health[sh.id]
			switch f := r.(type) {
			case shardFault:
				if f.kind == "restore-corrupt" {
					h.restoreFailures.Add(1)
				}
				h.setLastFault(f.kind + ": " + f.detail)
			default:
				h.setLastFault(fmt.Sprintf("panic: %v", r))
			}
		}
	}()
	fn(sh)
	return true
}

// backoffFor returns the exponential cooldown for the nth consecutive fault.
func (p *ParallelCampaign) backoffFor(faults int64) time.Duration {
	shift := faults - 1
	if shift > 16 {
		shift = 16
	}
	return p.sup.Backoff << shift
}

// backoffWait sleeps d, returning early if the campaign's stop channel
// closes (a stopping fleet should not sit out a backoff; the next segment
// will observe the stop request and finish cleanly).
func (p *ParallelCampaign) backoffWait(d time.Duration) {
	if d <= 0 {
		return
	}
	t := time.NewTimer(d)
	defer t.Stop()
	select {
	case <-t.C:
	case <-p.cfg.Stop: // nil channel: never fires, timer wins
	}
}

// rebuildShard rebuilds the shard's execution mechanism in place while
// keeping its campaign state (queue, RNG, bitmap — all still sound; only
// the mechanism's image is suspect). Returns false when the executor has
// no Rebuild method — the caller quarantines.
func (p *ParallelCampaign) rebuildShard(sh *shard) bool {
	rb, ok := sh.c.cfg.Executor.(mechRebuilder)
	if !ok {
		return false
	}
	rb.Rebuild("shard supervisor: fault streak escalation")
	p.health[sh.id].rebuilds.Add(1)
	p.eventf(sh.id, sh.c.execs, "rebuild", "mechanism rebuilt in place")
	return true
}

// quarantineShard retires sh permanently: its coverage is merged and its
// last discoveries published so the healthy shards adopt them, then the
// shard leaves the fleet. The campaign continues on J−k healthy shards.
func (p *ParallelCampaign) quarantineShard(sh *shard) {
	h := &p.health[sh.id]
	p.syncShard(sh)
	h.quarantined.Store(true)
	p.eventf(sh.id, sh.c.execs, "quarantine", "retired after %d consecutive faults; last: %s",
		h.consecFaults.Load(), h.getLastFault())
}

// monitor is the hang escalation check: a periodic sweep comparing each
// active shard's sampled exec counter against its last observed value. A
// shard that has not moved for HangAfter is marked stalled (once per stall
// episode); progress clears the mark.
func (p *ParallelCampaign) monitor(stop <-chan struct{}) {
	period := p.sup.HangAfter / 4
	if period < time.Millisecond {
		period = time.Millisecond
	}
	tick := time.NewTicker(period)
	defer tick.Stop()
	lastExecs := make([]int64, len(p.shards))
	lastMove := make([]time.Time, len(p.shards))
	now := time.Now()
	for j := range p.shards {
		lastExecs[j] = atomic.LoadInt64(&p.counters[j].execs)
		lastMove[j] = now
	}
	for {
		select {
		case <-stop:
			return
		case <-tick.C:
		}
		now = time.Now()
		for j := range p.shards {
			h := &p.health[j]
			if h.quarantined.Load() {
				continue
			}
			execs := atomic.LoadInt64(&p.counters[j].execs)
			if execs != lastExecs[j] {
				lastExecs[j] = execs
				lastMove[j] = now
				if h.stalled.CompareAndSwap(true, false) {
					p.eventf(j, execs, "hang-recovered", "progress resumed")
				}
				continue
			}
			if now.Sub(lastMove[j]) >= p.sup.HangAfter && h.stalled.CompareAndSwap(false, true) {
				h.hangEscalations.Add(1)
				p.eventf(j, execs, "hang-escalation", "no progress for %v", now.Sub(lastMove[j]).Round(time.Millisecond))
			}
		}
	}
}
