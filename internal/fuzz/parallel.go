package fuzz

// Parallel sharded campaigns. A ParallelCampaign runs J shards, each a
// full Campaign over its own execution mechanism (own VM, own harness, own
// coverage buffer) driven by an independent deterministic RNG stream split
// from the trial seed. Shards never share mutable fuzzing state on the hot
// path: coverage flows into a shared global bitmap through atomic OR-merge
// of each shard's local virgin map at coarse sync boundaries, and at the
// same boundaries each shard publishes its new corpus entries itself: one
// mutex-guarded content dedup, then every original is appended to the
// other shards' inboxes. Execs/crashes/hangs are aggregated from per-shard
// cache-line-padded counters that Stats-style readers sample without locks.
// Each shard is one goroutine; nothing else runs but the optional hang
// monitor.
//
// With J = 1 the executor degenerates to exactly the sequential Campaign:
// shard 0 uses the raw trial seed, nothing is ever imported (there is no
// other shard to import from), and the sync work touches neither the RNG
// nor the queue-selection state — so the exec trace, queue, bitmap and
// crash table are bit-for-bit those of a plain Campaign with the same
// Config.

import (
	"bytes"
	"encoding/binary"
	"encoding/gob"
	"fmt"
	"math"
	"sync"
	"sync/atomic"
	"time"

	"closurex/internal/faultinject"
)

// Driver is the campaign interface shared by the sequential Campaign and
// the ParallelCampaign, so instance plumbing and CLIs can hold either.
type Driver interface {
	RunFor(d time.Duration)
	RunExecs(n int64)
	Execs() int64
	Edges() int
	BitmapSnapshot() []byte
	Queue() []*Entry
	QueueLen() int
	Crashes() []*Crash
	Hangs() []*Crash
	Divergences() []Divergence
	Quarantined() []*Entry
	Elapsed() time.Duration
	Checkpoint() ([]byte, error)
}

var (
	_ Driver = (*Campaign)(nil)
	_ Driver = (*ParallelCampaign)(nil)
)

// splitGamma is the splitmix64 stream increment, the same constant NewRNG
// scrambles with; ShardSeed uses it to derive well-separated per-shard
// streams from one trial seed.
const splitGamma = 0x9e3779b97f4a7c15

// ShardSeed derives the RNG seed for shard j of a campaign seeded with
// seed. Shard 0 gets the raw seed so a one-shard parallel campaign
// reproduces the sequential campaign's exact mutation stream; later shards
// get splitmix64-scrambled splits, which are statistically independent of
// both the raw seed and each other.
func ShardSeed(seed uint64, shard int) uint64 {
	if shard == 0 {
		return seed
	}
	z := seed + uint64(shard)*splitGamma
	z ^= z >> 30
	z *= 0xbf58476d1ce4e5b9
	z ^= z >> 27
	z *= 0x94d049bb133111eb
	z ^= z >> 31
	return z
}

// GlobalBitmap is the campaign-wide virgin map shards merge into. It packs
// the MapSize virgin bytes into uint64 words mutated only through
// compare-and-swap OR loops, so concurrent merges from every shard are
// lock-free and lose no coverage.
type GlobalBitmap struct {
	words [MapSize / 8]uint64
	edges atomic.Int64 // bytes that have gone zero -> nonzero
}

// NewGlobalBitmap returns an empty global bitmap.
func NewGlobalBitmap() *GlobalBitmap { return &GlobalBitmap{} }

// Merge ORs a shard's local virgin map into the global one and returns how
// many globally-new edges (map bytes that were zero everywhere) this merge
// contributed. Safe for concurrent use from all shards.
func (g *GlobalBitmap) Merge(virgin []byte) int {
	newEdges := 0
	scanLines(virgin, false, func(off int, local uint64) {
		w := &g.words[off/8]
		for {
			old := atomic.LoadUint64(w)
			merged := old | local
			if merged == old {
				return
			}
			if atomic.CompareAndSwapUint64(w, old, merged) {
				for b := 0; b < 64; b += 8 {
					if (old>>b)&0xff == 0 && (merged>>b)&0xff != 0 {
						newEdges++
					}
				}
				return
			}
			// CAS lost to a concurrent merge: reload and retry; the OR is
			// idempotent so no coverage can be dropped.
		}
	})
	if newEdges > 0 {
		g.edges.Add(int64(newEdges))
	}
	return newEdges
}

// Edges returns the number of distinct map indices hit across all shards.
func (g *GlobalBitmap) Edges() int { return int(g.edges.Load()) }

// Snapshot copies the merged virgin map (checkpointing, audits).
func (g *GlobalBitmap) Snapshot() []byte {
	out := make([]byte, MapSize)
	for wi := range g.words {
		binary.LittleEndian.PutUint64(out[wi*8:], atomic.LoadUint64(&g.words[wi]))
	}
	return out
}

// ShardConfig is the per-shard execution plumbing: each shard needs its own
// mechanism (own VM and harness — VM memory uses non-atomic copy-on-write
// bookkeeping, so images must not be shared across goroutines) writing
// coverage into its own buffer. An Executor that also has a
// Rebuild(reason string) method (every execmgr mechanism) is rebuilt in
// place when the shard's supervisor escalates past plain restarts; any
// other is quarantined at that step.
type ShardConfig struct {
	Executor Executor
	CovMap   []byte
}

// ParallelConfig tunes a parallel campaign. The fuzzing knobs mirror
// Config and apply to every shard.
type ParallelConfig struct {
	// Shards supplies one executor+covmap per shard; len(Shards) is J.
	Shards []ShardConfig
	// Seed is the trial seed; shard j fuzzes with ShardSeed(Seed, j).
	Seed        uint64
	Fingerprint string
	Seeds       [][]byte
	MaxInputLen int
	Dict        [][]byte
	Stop        <-chan struct{}
	// SyncEvery is how many executions a shard runs between sync boundaries
	// (bitmap merge, corpus publish, inbox drain). Default 256. Lower means
	// faster cross-shard corpus propagation, higher means less merge
	// traffic.
	SyncEvery int
	// Sentinel arms the divergence sentinel on shard 0 only: one designated
	// shard continuously cross-checks the persistent mechanism against the
	// fresh-process reference while the rest fuzz at full speed.
	Sentinel *SentinelConfig
	// Supervisor tunes the per-shard fault-tolerance ladder (restart →
	// rebuild → quarantine), the hang escalation check, and the bounded
	// corpus exchange. The zero value selects production defaults.
	Supervisor SupervisorConfig
}

// shardCounters are the per-shard counters Stats-style readers sample with
// atomic loads. Padded to a cache line so shards never false-share.
type shardCounters struct {
	execs   int64
	crashes int64
	hangs   int64
	_       [40]byte
}

// shard is one worker: a sequential Campaign plus the sync-boundary state
// that connects it to the rest of the fleet.
type shard struct {
	id int
	c  *Campaign

	// lastSync is the exec count at the previous sync boundary;
	// lastSyncAt is its wall-clock time (exec-rate windows).
	lastSync   int64
	lastSyncAt time.Time
	// faultExecs is the exec count at the shard's last fault. Only
	// executions past it close the fault streak.
	faultExecs int64
	// published is the queue index up to which entries have been
	// published to the other shards.
	published int
	// have tracks the content of every entry in this shard's queue, so
	// rebroadcasts of inputs the shard already knows are dropped at adopt
	// time instead of polluting the queue.
	have map[string]struct{}

	// inbox receives unique entries discovered by other shards. Locked, but
	// only touched at sync boundaries (this shard's drain, other shards'
	// publishes) — never on the per-execution hot path.
	inbox struct {
		sync.Mutex
		entries []*Entry
	}
}

// ParallelCampaign fans one fuzzing trial out over J shards.
type ParallelCampaign struct {
	cfg      ParallelConfig
	sup      SupervisorConfig
	shards   []*shard
	counters []shardCounters
	health   []shardHealth
	global   *GlobalBitmap

	// seen is the fleet-wide content dedup set of published entries. Shards
	// take seenMu before any inbox lock.
	seenMu sync.Mutex
	seen   map[string]struct{}

	// events is the supervision log (see supervisor.go).
	eventMu sync.Mutex
	events  []ShardEvent

	start   time.Time
	elapsed time.Duration
	running bool
}

// shardConfig is shard j's sequential campaign configuration, with sent
// as its divergence sentinel.
func (cfg *ParallelConfig) shardConfig(j int, sent *SentinelConfig) Config {
	return Config{
		Executor:    cfg.Shards[j].Executor,
		CovMap:      cfg.Shards[j].CovMap,
		Seeds:       cfg.Seeds,
		Seed:        ShardSeed(cfg.Seed, j),
		Fingerprint: cfg.Fingerprint,
		MaxInputLen: cfg.MaxInputLen,
		Dict:        cfg.Dict,
		Stop:        cfg.Stop,
		Sentinel:    sent,
	}
}

// NewParallelCampaign prepares a parallel campaign over cfg.Shards.
func NewParallelCampaign(cfg ParallelConfig) (*ParallelCampaign, error) {
	if len(cfg.Shards) == 0 {
		return nil, fmt.Errorf("fuzz: parallel campaign needs at least one shard")
	}
	if cfg.SyncEvery <= 0 {
		cfg.SyncEvery = 256
	}
	cfg.Supervisor.setDefaults()
	p := &ParallelCampaign{
		cfg:      cfg,
		sup:      cfg.Supervisor,
		counters: make([]shardCounters, len(cfg.Shards)),
		health:   make([]shardHealth, len(cfg.Shards)),
		global:   NewGlobalBitmap(),
		seen:     make(map[string]struct{}),
	}
	for j := range cfg.Shards {
		var sent *SentinelConfig
		if j == 0 {
			sent = cfg.Sentinel
		}
		c := NewCampaign(cfg.shardConfig(j, sent))
		p.shards = append(p.shards, &shard{id: j, c: c, have: make(map[string]struct{})})
	}
	// Every shard bootstraps the same seed corpus itself; pre-seeding the
	// dedup set stops the first shard to sync from rebroadcasting the seeds
	// to shards that already have them.
	for _, s := range cfg.Seeds {
		p.seen[string(s)] = struct{}{}
	}
	p.seen[string([]byte{0})] = struct{}{} // the empty-corpus fallback entry
	return p, nil
}

// Jobs returns the number of shards.
func (p *ParallelCampaign) Jobs() int { return len(p.shards) }

// Shard exposes shard j's underlying sequential campaign (tests, sentinel
// inspection). Must only be used while the campaign is quiescent.
func (p *ParallelCampaign) Shard(j int) *Campaign { return p.shards[j].c }

// syncShard runs one sync boundary for sh: sample counters, merge local
// coverage into the global bitmap, publish fresh queue entries, adopt
// imports. Publishing happens before the drain so a shard never re-adopts
// content it has just published itself.
func (p *ParallelCampaign) syncShard(sh *shard) {
	c := sh.c
	h := &p.health[sh.id]
	atomic.StoreInt64(&p.counters[sh.id].execs, c.execs)
	atomic.StoreInt64(&p.counters[sh.id].crashes, int64(len(c.crashes)))
	atomic.StoreInt64(&p.counters[sh.id].hangs, int64(len(c.hangs)))
	p.global.Merge(c.bitmap.virgin[:])
	if n := len(c.queue); n > sh.published {
		fresh := c.queue[sh.published:n]
		for _, e := range fresh {
			sh.have[string(e.Input)] = struct{}{}
		}
		sh.published = n
		p.publish(sh.id, fresh)
	}
	sh.drainInbox()
	// Reaching a boundary with fresh executions is progress for the hang
	// monitor; executions since the last fault are recovery and close the
	// shard's fault streak.
	now := time.Now()
	if c.execs > sh.faultExecs {
		h.consecFaults.Store(0)
	}
	if c.execs > sh.lastSync {
		h.touchProgress()
		if !sh.lastSyncAt.IsZero() {
			if window := now.Sub(sh.lastSyncAt).Seconds(); window > 0 {
				inst := float64(c.execs-sh.lastSync) / window
				prev := math.Float64frombits(h.rateBits.Load())
				if prev == 0 {
					h.rateBits.Store(math.Float64bits(inst))
				} else {
					h.rateBits.Store(math.Float64bits(0.5*prev + 0.5*inst))
				}
			}
		}
	}
	sh.lastSyncAt = now
	sh.lastSync = c.execs
}

// drainInbox adopts imported entries into the local queue. Imports extend
// the mutation fodder only; they are not re-executed (their coverage is
// already in the global bitmap) and are skipped by this shard's own
// publish bookkeeping.
func (sh *shard) drainInbox() {
	sh.inbox.Lock()
	pending := sh.inbox.entries
	sh.inbox.entries = nil
	sh.inbox.Unlock()
	for _, e := range pending {
		k := string(e.Input)
		if _, dup := sh.have[k]; dup {
			continue
		}
		sh.have[k] = struct{}{}
		sh.c.queue = append(sh.c.queue, e)
		// Keep published in step: adopted entries must not be re-published
		// as this shard's own discoveries.
		if sh.published == len(sh.c.queue)-1 {
			sh.published = len(sh.c.queue)
		}
	}
}

// publish hands one shard's fresh queue entries to the rest of the fleet:
// each entry whose content no shard has published before is appended to
// every other live shard's inbox. Each inbox is bounded by inboxCap: when a
// stalled shard stops draining, its oldest pending imports are shed (and
// counted) instead of growing the inbox without bound. Shedding is sound —
// imports are mutation fodder only; their coverage already lives in the
// global bitmap. With one shard there is nobody to publish to, and the
// dedup set is left alone.
func (p *ParallelCampaign) publish(from int, entries []*Entry) {
	if len(p.shards) == 1 {
		return
	}
	if inj := p.sup.Injector; inj != nil {
		if inj.Should(faultinject.CorpusDelay) {
			time.Sleep(2 * time.Millisecond)
		}
		if inj.Should(faultinject.CorpusDrop) {
			return
		}
	}
	p.seenMu.Lock()
	defer p.seenMu.Unlock()
	for _, e := range entries {
		k := string(e.Input)
		if _, dup := p.seen[k]; dup {
			continue
		}
		p.seen[k] = struct{}{}
		for _, other := range p.shards {
			if other.id == from || p.health[other.id].quarantined.Load() {
				continue
			}
			other.inbox.Lock()
			other.inbox.entries = append(other.inbox.entries, e)
			if shed := len(other.inbox.entries) - inboxCap; shed > 0 {
				other.inbox.entries = other.inbox.entries[:copy(other.inbox.entries, other.inbox.entries[shed:])]
				p.health[other.id].inboxDropped.Add(int64(shed))
			}
			other.inbox.Unlock()
		}
	}
}

// run executes fn(shard) on every shard concurrently — each under its
// supervisor — with the hang monitor wired up, and waits for full
// quiescence (all shards done, leftover imports adopted).
func (p *ParallelCampaign) run(fn func(sh *shard)) {
	if !p.running {
		p.start = time.Now()
		p.running = true
	}
	var monStop chan struct{}
	var monWG sync.WaitGroup
	if p.sup.HangAfter > 0 {
		monStop = make(chan struct{})
		monWG.Add(1)
		go func() {
			defer monWG.Done()
			p.monitor(monStop)
		}()
	}
	var wg sync.WaitGroup
	for _, sh := range p.shards {
		wg.Add(1)
		go func(sh *shard) {
			defer wg.Done()
			p.supervise(sh, fn)
		}(sh)
	}
	wg.Wait()
	if monStop != nil {
		close(monStop)
		monWG.Wait()
	}
	// Imports published during the final boundaries may have landed after a
	// shard's last drain; fold them in now so the corpus view is complete
	// and the next run starts from it.
	for _, sh := range p.shards {
		sh.drainInbox()
	}
	p.elapsed += time.Since(p.start)
	p.running = false
}

// maybeSync runs a sync boundary when the shard has accumulated SyncEvery
// executions since the last one.
func (p *ParallelCampaign) maybeSync(sh *shard) {
	if sh.c.execs-sh.lastSync >= int64(p.cfg.SyncEvery) {
		p.syncShard(sh)
	}
}

// othersExecs sums the sampled exec counters of every shard except sh.
func (p *ParallelCampaign) othersExecs(sh *shard) int64 {
	var total int64
	for j := range p.counters {
		if j != sh.id {
			total += atomic.LoadInt64(&p.counters[j].execs)
		}
	}
	return total
}

// RunFor drives every shard until d has elapsed or the stop channel
// closes. Shards poll deadline/stop every checkEvery steps, exactly like
// the sequential RunFor.
func (p *ParallelCampaign) RunFor(d time.Duration) {
	deadline := time.Now().Add(d)
	p.run(func(sh *shard) {
		c := sh.c
		for {
			for i := 0; i < checkEvery; i++ {
				p.step(sh)
				p.maybeSync(sh)
			}
			if c.stopRequested() || time.Now().After(deadline) {
				return
			}
		}
	})
}

// RunExecs drives the fleet until at least n aggregate executions have
// happened or the stop channel closes. Each shard checks its own live
// count plus the other shards' sampled counters every step, so with one
// shard and n > 0 the loop condition is exactly the sequential RunExecs
// condition.
func (p *ParallelCampaign) RunExecs(n int64) {
	p.run(func(sh *shard) {
		c := sh.c
		steps := 0
		// A shard the scheduler starved until the budget was spent still
		// runs its seeds: a fleet checkpoint needs every shard bootstrapped.
		for !c.started || p.othersExecs(sh)+c.execs < n {
			p.step(sh)
			p.maybeSync(sh)
			if steps++; steps >= checkEvery {
				steps = 0
				if c.stopRequested() {
					return
				}
			}
		}
	})
}

// Execs returns aggregate executions across shards. Safe to call from any
// goroutine while the campaign runs (counters are sampled at shard sync
// boundaries, so the reading lags live progress by at most
// SyncEvery executions per shard).
func (p *ParallelCampaign) Execs() int64 {
	var total int64
	for j := range p.counters {
		total += atomic.LoadInt64(&p.counters[j].execs)
	}
	return total
}

// Edges returns the merged global edge count. Safe to call concurrently.
func (p *ParallelCampaign) Edges() int { return p.global.Edges() }

// BitmapSnapshot copies the merged global virgin map. Safe to call
// concurrently (the snapshot may straddle in-flight merges; each word is
// read atomically).
func (p *ParallelCampaign) BitmapSnapshot() []byte { return p.global.Snapshot() }

// CrashCount returns the aggregate number of distinct crash buckets across
// shards (an overcount when shards found the same bucket; Crashes dedups
// exactly but needs quiescence). Safe to call concurrently.
func (p *ParallelCampaign) CrashCount() int64 {
	var total int64
	for j := range p.counters {
		total += atomic.LoadInt64(&p.counters[j].crashes)
	}
	return total
}

// Queue returns the cross-shard corpus: every shard's queue concatenated
// in shard-major order, deduplicated by content (every shard bootstraps
// the same seed corpus, and imports are shared pointers into their
// originator's queue — either way the first occurrence wins). With one
// shard and distinct seeds this is exactly the sequential campaign's
// queue. Requires quiescence.
func (p *ParallelCampaign) Queue() []*Entry {
	seen := make(map[string]struct{})
	var out []*Entry
	for _, sh := range p.shards {
		for _, e := range sh.c.queue {
			k := string(e.Input)
			if _, dup := seen[k]; dup {
				continue
			}
			seen[k] = struct{}{}
			out = append(out, e)
		}
	}
	return out
}

// QueueLen returns the size of the deduplicated cross-shard corpus.
// Requires quiescence.
func (p *ParallelCampaign) QueueLen() int { return len(p.Queue()) }

// Crashes returns the cross-shard crash table, merged by dedup key: counts
// sum, first discovery is the earliest by campaign time. Requires
// quiescence.
func (p *ParallelCampaign) Crashes() []*Crash {
	return p.mergedTable(func(c *Campaign) map[string]*Crash { return c.crashes })
}

// Hangs returns the merged cross-shard hang table. Requires quiescence.
func (p *ParallelCampaign) Hangs() []*Crash {
	return p.mergedTable(func(c *Campaign) map[string]*Crash { return c.hangs })
}

func (p *ParallelCampaign) mergedTable(sel func(*Campaign) map[string]*Crash) []*Crash {
	merged := make(map[string]*Crash)
	for _, sh := range p.shards {
		for key, cr := range sel(sh.c) {
			m, ok := merged[key]
			if !ok {
				cp := *cr
				cp.Input = append([]byte(nil), cr.Input...)
				merged[key] = &cp
				continue
			}
			m.Count += cr.Count
			if cr.FirstAt < m.FirstAt {
				m.FirstAt = cr.FirstAt
				m.FirstExec = cr.FirstExec
				m.Input = append(m.Input[:0], cr.Input...)
			}
		}
	}
	return sortedTable(merged)
}

// Divergences returns the sentinel findings (shard 0 runs the sentinel).
func (p *ParallelCampaign) Divergences() []Divergence { return p.shards[0].c.Divergences() }

// Quarantined returns queue entries the sentinel pulled (shard 0).
func (p *ParallelCampaign) Quarantined() []*Entry { return p.shards[0].c.Quarantined() }

// Elapsed returns cumulative wall-clock fuzzing time across run calls.
func (p *ParallelCampaign) Elapsed() time.Duration {
	if p.running {
		return p.elapsed + time.Since(p.start)
	}
	return p.elapsed
}

// parallelCheckpointVersion guards the parallel checkpoint envelope format.
// v2 added the merged campaign view (corpus, bitmap, counters, crash
// tables) alongside the per-shard blobs, which is what makes resume
// elastic: the per-shard blobs serve the exact same-topology path, the
// merged view serves re-sharding onto any J.
const parallelCheckpointVersion = 2

// parallelState is the gob envelope. The Shards blobs carry each shard's
// full sequential checkpoint (bit-identical same-J resume); the merged
// fields carry the topology-independent campaign state (elastic resume).
type parallelState struct {
	Version     int
	Jobs        int
	Seed        uint64
	Fingerprint string
	Shards      [][]byte

	// Merged, topology-independent view. Corpus is the deduplicated
	// cross-shard queue in canonical shard-major order — the order is part
	// of the format, because elastic re-sharding derives shard assignment
	// from corpus position.
	Corpus      []entryState
	Virgin      []byte
	Edges       int
	Execs       int64
	Elapsed     time.Duration
	Crashes     []Crash
	Hangs       []Crash
	Divergences []Divergence
	Quarantined []entryState
}

// Checkpoint serializes the whole fleet. Requires quiescence.
func (p *ParallelCampaign) Checkpoint() ([]byte, error) {
	st := parallelState{
		Version:     parallelCheckpointVersion,
		Jobs:        len(p.shards),
		Seed:        p.cfg.Seed,
		Fingerprint: p.cfg.Fingerprint,
		Virgin:      p.global.Snapshot(),
		Edges:       p.global.Edges(),
		Execs:       p.Execs(),
		Elapsed:     p.Elapsed(),
		Divergences: p.Divergences(),
	}
	for _, sh := range p.shards {
		blob, err := sh.c.Checkpoint()
		if err != nil {
			return nil, fmt.Errorf("fuzz: checkpoint shard %d: %w", sh.id, err)
		}
		st.Shards = append(st.Shards, blob)
	}
	for _, e := range p.Queue() {
		st.Corpus = append(st.Corpus, entryState{Input: e.Input, FoundAt: e.FoundAt, Gain: e.Gain})
	}
	for _, e := range p.Quarantined() {
		st.Quarantined = append(st.Quarantined, entryState{Input: e.Input, FoundAt: e.FoundAt, Gain: e.Gain})
	}
	for _, cr := range p.Crashes() {
		st.Crashes = append(st.Crashes, *cr)
	}
	for _, h := range p.Hangs() {
		st.Hangs = append(st.Hangs, *h)
	}
	var buf bytes.Buffer
	if err := gob.NewEncoder(&buf).Encode(&st); err != nil {
		return nil, fmt.Errorf("fuzz: encode parallel checkpoint: %w", err)
	}
	return buf.Bytes(), nil
}

// ResumeParallel reconstructs a fleet from a Checkpoint blob. cfg must
// describe the same trial (seed, fingerprint) but not the same topology:
// with len(cfg.Shards) equal to the checkpoint's J the per-shard blobs
// resume each shard bit-identically, and with any other J the merged
// campaign state is re-sharded deterministically (corpus entry i lands on
// shard i mod J′, every shard's bitmap starts from the merged virgin map,
// the aggregate counters and crash tables land on shard 0). An elastic
// resume preserves corpus contents, coverage, and totals exactly; only the
// forward mutation streams differ from the uninterrupted run, which is
// inherent to changing J.
func ResumeParallel(cfg ParallelConfig, data []byte) (*ParallelCampaign, error) {
	var st parallelState
	if err := gob.NewDecoder(bytes.NewReader(data)).Decode(&st); err != nil {
		return nil, fmt.Errorf("%w: undecodable parallel envelope: %v", ErrBadCheckpoint, err)
	}
	if st.Version != parallelCheckpointVersion {
		return nil, fmt.Errorf("%w: parallel version %d, want %d", ErrBadCheckpoint, st.Version, parallelCheckpointVersion)
	}
	if st.Jobs != len(st.Shards) {
		return nil, fmt.Errorf("%w: envelope says %d shards but carries %d blobs", ErrBadCheckpoint, st.Jobs, len(st.Shards))
	}
	if st.Seed != cfg.Seed {
		return nil, fmt.Errorf("%w: taken with seed %d, config says %d", ErrBadCheckpoint, st.Seed, cfg.Seed)
	}
	if st.Fingerprint != cfg.Fingerprint {
		return nil, fmt.Errorf("%w: taken for %q, config says %q (resume needs the same target and mechanism)",
			ErrBadCheckpoint, st.Fingerprint, cfg.Fingerprint)
	}
	if st.Jobs == len(cfg.Shards) {
		return resumeParallelExact(cfg, &st)
	}
	return resumeParallelElastic(cfg, &st)
}

// resumeParallelExact is the same-topology path: every shard resumes from
// its own full checkpoint, so continuing the campaign replays the exact
// mutation streams the uninterrupted run would have produced.
func resumeParallelExact(cfg ParallelConfig, st *parallelState) (*ParallelCampaign, error) {
	p, err := NewParallelCampaign(cfg)
	if err != nil {
		return nil, err
	}
	for j, blob := range st.Shards {
		c, err := Resume(cfg.shardConfig(j, p.shards[j].c.cfg.Sentinel), blob)
		if err != nil {
			return nil, fmt.Errorf("shard %d: %w", j, err)
		}
		sh := p.shards[j]
		sh.c = c
		// Everything in a resumed queue is old news: mark it published so
		// it is not rebroadcast, and rebuild the content set and the
		// fleet's dedup set from it.
		sh.published = len(c.queue)
		sh.lastSync = c.execs
		for _, e := range c.queue {
			k := string(e.Input)
			sh.have[k] = struct{}{}
			p.seen[k] = struct{}{}
		}
		p.global.Merge(c.bitmap.virgin[:])
		atomic.StoreInt64(&p.counters[j].execs, c.execs)
		atomic.StoreInt64(&p.counters[j].crashes, int64(len(c.crashes)))
		atomic.StoreInt64(&p.counters[j].hangs, int64(len(c.hangs)))
		p.elapsed = maxDuration(p.elapsed, c.Elapsed())
	}
	return p, nil
}

// resumeParallelElastic re-shards the merged campaign state onto a new J.
// The assignment is deterministic (corpus position mod J′), so resuming the
// same checkpoint at the same new J always yields the same fleet.
func resumeParallelElastic(cfg ParallelConfig, st *parallelState) (*ParallelCampaign, error) {
	if len(st.Corpus) == 0 {
		return nil, fmt.Errorf("%w: elastic resume needs the merged corpus (empty envelope)", ErrBadCheckpoint)
	}
	p, err := NewParallelCampaign(cfg)
	if err != nil {
		return nil, err
	}
	corpus := make([]*Entry, len(st.Corpus))
	for i, e := range st.Corpus {
		corpus[i] = &Entry{Input: e.Input, FoundAt: e.FoundAt, Gain: e.Gain}
	}
	for j, sh := range p.shards {
		c := sh.c
		for i := j; i < len(corpus); i += len(p.shards) {
			c.queue = append(c.queue, corpus[i])
		}
		if len(c.queue) == 0 {
			// More shards than corpus entries: reuse an entry so the shard
			// has mutation fodder (Queue() dedups, so contents are
			// unaffected).
			c.queue = append(c.queue, corpus[j%len(corpus)])
		}
		if err := c.bitmap.SetSnapshot(st.Virgin); err != nil {
			return nil, fmt.Errorf("%w: %w", ErrBadCheckpoint, err)
		}
		// Seeds already ran in the original campaign; bootstrap must not
		// run again (it would re-execute them and distort the counters).
		c.started = true
		c.start = time.Now()
		sh.published = len(c.queue)
		for _, e := range c.queue {
			k := string(e.Input)
			sh.have[k] = struct{}{}
			p.seen[k] = struct{}{}
		}
		p.global.Merge(c.bitmap.virgin[:])
	}
	if got := p.global.Edges(); got != st.Edges {
		return nil, fmt.Errorf("%w: edge count %d does not match bitmap (%d)", ErrBadCheckpoint, st.Edges, got)
	}
	// The aggregate view lands on shard 0: totals and tables survive the
	// re-shard even though their per-shard attribution is gone.
	c0 := p.shards[0].c
	c0.execs = st.Execs
	c0.elapsed = st.Elapsed
	c0.divergences = st.Divergences
	for i := range st.Crashes {
		cr := st.Crashes[i]
		c0.crashes[cr.Key] = &cr
	}
	for i := range st.Hangs {
		h := st.Hangs[i]
		c0.hangs[h.Key] = &h
	}
	for _, e := range st.Quarantined {
		c0.quarantined = append(c0.quarantined, &Entry{Input: e.Input, FoundAt: e.FoundAt, Gain: e.Gain})
	}
	p.shards[0].lastSync = c0.execs
	atomic.StoreInt64(&p.counters[0].execs, c0.execs)
	atomic.StoreInt64(&p.counters[0].crashes, int64(len(c0.crashes)))
	atomic.StoreInt64(&p.counters[0].hangs, int64(len(c0.hangs)))
	p.elapsed = st.Elapsed
	return p, nil
}

func maxDuration(a, b time.Duration) time.Duration {
	if a > b {
		return a
	}
	return b
}
