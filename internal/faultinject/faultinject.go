// Package faultinject provides a deterministic, seeded fault-injection
// layer for the resilience machinery. Production fuzzing campaigns degrade
// in ways that are hard to reproduce on demand — allocator exhaustion, FD
// leaks hitting RLIMIT_NOFILE, a restore path that silently stops working —
// so the subsystems that must *tolerate* those failures (the harness restore
// watchdog, the execmgr rebuild/fallback ladder) register injection sites,
// and tests arm them with deterministic or seeded-probabilistic rules to
// prove each degradation edge actually fires.
//
// An Injector is safe to leave nil: every hook site calls
// inj.Should(site) on a possibly-nil receiver and gets false, so the
// production fast path is a single nil check.
package faultinject

import (
	"fmt"
	"sort"
	"sync"
)

// Site names one injection point. Sites are registered implicitly: arming a
// rule for a site and probing it are both keyed by these constants.
type Site string

// Injection sites wired into the runtime.
const (
	// HeapAlloc fails mem.Heap allocations with ErrHeapOOM.
	HeapAlloc Site = "mem.alloc"
	// VFSOpen fails vfs.FS.Open with ErrFDExhausted (the descriptor-limit
	// pathology of §4.2.2).
	VFSOpen Site = "vfs.open"
	// VFSClose fails vfs.FS.Close, leaving the descriptor in the table.
	VFSClose Site = "vfs.close"
	// RestoreGlobals skips the harness's closure_global_section copy-back.
	RestoreGlobals Site = "harness.restore-globals"
	// RestoreHeap skips the harness's leaked-chunk sweep.
	RestoreHeap Site = "harness.restore-heap"
	// RestoreFiles skips the harness's FD close/rewind step.
	RestoreFiles Site = "harness.restore-files"
	// ShardKill kills a parallel-campaign shard mid-exec (the shard's
	// supervisor catches the death and climbs the restart ladder).
	ShardKill Site = "fuzz.shard-kill"
	// ShardRestore corrupts a shard's restore path: the shard faults with a
	// restore-corruption verdict, which the supervisor answers with
	// restarts, then an in-place mechanism rebuild, then quarantine.
	ShardRestore Site = "fuzz.shard-restore"
	// CorpusDelay stalls a shard's corpus publish, modelling a slow
	// exchange path (the other shards must keep fuzzing).
	CorpusDelay Site = "fuzz.corpus-delay"
	// CorpusDrop loses one shard's corpus publish entirely (coverage is
	// unaffected — it merges through the bitmap, not the exchange).
	CorpusDrop Site = "fuzz.corpus-drop"
	// CheckpointWrite fails a checkpoint file write mid-stream, leaving a
	// truncated temp file behind — the torn-write crash the atomic
	// write-then-rename protocol must survive.
	CheckpointWrite Site = "fuzz.checkpoint-write"
)

// ForShard scopes a site to one parallel-campaign shard, so chaos tests can
// kill shard 2 while shards 0, 1 and 3 stay healthy. The parallel layer
// probes both the generic site and the shard-scoped one.
func ForShard(s Site, shard int) Site {
	return Site(fmt.Sprintf("%s.%d", s, shard))
}

// rule decides when a site fires.
type rule struct {
	after  int     // skip this many probes first
	count  int     // then fire on this many (< 0: forever)
	prob   float64 // or: fire with this probability per probe
	isProb bool
}

// Injector holds the armed rules and per-site counters. The zero value (or
// a nil pointer) injects nothing.
type Injector struct {
	mu    sync.Mutex
	state uint64 // xorshift state for probabilistic rules
	rules map[Site]*rule
	hits  map[Site]int64 // probes seen
	fired map[Site]int64 // probes that injected a failure
}

// New returns an injector whose probabilistic rules draw from a stream
// seeded by seed, so a failing test reproduces from its seed alone.
func New(seed uint64) *Injector {
	z := seed + 0x9e3779b97f4a7c15
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	z ^= z >> 31
	if z == 0 {
		z = 0x2545f4914f6cdd1d
	}
	return &Injector{
		state: z,
		rules: make(map[Site]*rule),
		hits:  make(map[Site]int64),
		fired: make(map[Site]int64),
	}
}

// FailAfter arms site to succeed for the next `after` probes, then fail the
// following `count` probes (count < 0 means fail forever). It replaces any
// existing rule and resets the site's counters.
func (in *Injector) FailAfter(site Site, after, count int) {
	in.mu.Lock()
	defer in.mu.Unlock()
	in.rules[site] = &rule{after: after, count: count}
	in.hits[site] = 0
	in.fired[site] = 0
}

// FailWithProb arms site to fail each probe independently with probability
// p, drawn from the injector's seeded stream.
func (in *Injector) FailWithProb(site Site, p float64) {
	in.mu.Lock()
	defer in.mu.Unlock()
	in.rules[site] = &rule{prob: p, isProb: true}
	in.hits[site] = 0
	in.fired[site] = 0
}

// Clear disarms one site (its counters survive for inspection).
func (in *Injector) Clear(site Site) {
	in.mu.Lock()
	defer in.mu.Unlock()
	delete(in.rules, site)
}

// Reset disarms every site and zeroes all counters.
func (in *Injector) Reset() {
	in.mu.Lock()
	defer in.mu.Unlock()
	in.rules = make(map[Site]*rule)
	in.hits = make(map[Site]int64)
	in.fired = make(map[Site]int64)
}

// Should reports whether the current probe of site must fail. Safe on a nil
// receiver (always false) so hook sites need no guard.
func (in *Injector) Should(site Site) bool {
	if in == nil {
		return false
	}
	in.mu.Lock()
	defer in.mu.Unlock()
	r, ok := in.rules[site]
	if !ok {
		return false
	}
	n := in.hits[site]
	in.hits[site] = n + 1
	fire := false
	if r.isProb {
		fire = in.randFloat() < r.prob
	} else if n >= int64(r.after) {
		fire = r.count < 0 || n < int64(r.after)+int64(r.count)
	}
	if fire {
		in.fired[site]++
	}
	return fire
}

// Hits returns how many times site has been probed since it was armed.
func (in *Injector) Hits(site Site) int64 {
	if in == nil {
		return 0
	}
	in.mu.Lock()
	defer in.mu.Unlock()
	return in.hits[site]
}

// Fired returns how many probes of site injected a failure.
func (in *Injector) Fired(site Site) int64 {
	if in == nil {
		return 0
	}
	in.mu.Lock()
	defer in.mu.Unlock()
	return in.fired[site]
}

// Armed lists the currently armed sites, sorted, for diagnostics.
func (in *Injector) Armed() []Site {
	if in == nil {
		return nil
	}
	in.mu.Lock()
	defer in.mu.Unlock()
	out := make([]Site, 0, len(in.rules))
	for s := range in.rules {
		out = append(out, s)
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

// Err builds the error reported for an injected failure at site, so callers
// can tell injected faults from organic ones in logs.
func Err(site Site) error {
	return fmt.Errorf("faultinject: injected failure at %s", site)
}

// randFloat returns a uniform float64 in [0, 1). Caller holds in.mu.
func (in *Injector) randFloat() float64 {
	x := in.state
	x ^= x << 13
	x ^= x >> 7
	x ^= x << 17
	in.state = x
	return float64(x>>11) / float64(1<<53)
}
