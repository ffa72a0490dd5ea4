package fuzz

import (
	"fmt"
	"sort"
	"time"

	"closurex/internal/vm"
)

// Executor abstracts the execution mechanism under test (fresh, forkserver,
// persistent, ClosureX) — the campaign drives whichever it is given, so the
// fuzzing logic is identical across configurations.
type Executor interface {
	Execute(input []byte) vm.Result
}

// Entry is one seed in the queue.
type Entry struct {
	Input   []byte
	FoundAt time.Duration // campaign time when it was added
	Gain    int           // 2 = new edge, 1 = new bucket, 3 = initial seed
}

// Crash is a triaged, deduplicated fault.
type Crash struct {
	Key       string // fault kind @ function : line
	Kind      vm.FaultKind
	Fn        string
	Line      int32
	Input     []byte        // first input that triggered it
	FirstAt   time.Duration // campaign time of first trigger
	FirstExec int64         // execution index of first trigger
	Count     int64
}

const (
	// havocPerSeed is how many mutants are derived from a queue entry per
	// cycle.
	havocPerSeed = 24
	// spliceProb is the x/256 chance a mutant starts from a splice.
	spliceProb = 40
	// checkEvery is how many Steps run between deadline/stop polls — the
	// per-iteration time.Now() cost hoisted out of the hot loop.
	checkEvery = 64
)

// Config tunes a campaign.
type Config struct {
	// Executor runs test cases; CovMap must be the same buffer the
	// executor's VMs write coverage into.
	Executor Executor
	CovMap   []byte
	// Seeds is the initial corpus.
	Seeds [][]byte
	// Seed seeds the campaign RNG (one trial = one seed).
	Seed uint64
	// Fingerprint identifies the target+mechanism a checkpoint belongs to;
	// Resume rejects a checkpoint whose fingerprint differs (a bitmap or
	// crash table grafted onto the wrong target is silent corruption).
	Fingerprint string
	// MaxInputLen bounds mutated inputs (default 4096).
	MaxInputLen int
	// Dict supplies format keywords for the dictionary mutators (AFL -x).
	Dict [][]byte
	// Stop, when non-nil, requests clean shutdown: RunFor/RunExecs return
	// at the next coarse check once it is closed, leaving the campaign in a
	// checkpointable state. This is how a supervisor (signal handler,
	// fleet controller) stops a campaign without killing the process.
	Stop <-chan struct{}
	// Sentinel, when non-nil, arms the divergence sentinel: a periodic
	// replay of a queue entry under a fresh-process reference executor,
	// cross-checked against the persistent mechanism (§6.1.4 as a runtime
	// self-check).
	Sentinel *SentinelConfig
}

// Campaign is one fuzzing run: a queue, a cumulative bitmap, and a crash
// table, advancing one mutated input per Step.
type Campaign struct {
	cfg     Config
	rng     *RNG
	mut     *Mutator
	bitmap  *Bitmap
	queue   []*Entry
	crashes map[string]*Crash
	// hangs triages vm.FaultTimeout separately from crashes: a hang is a
	// budget exhaustion, not a sanitizer fault, and its dedup key drops the
	// line (wherever the budget happened to run out is arbitrary). Keeping
	// the tables distinct stops the sentinel and the Table 7 driver from
	// conflating the two.
	hangs map[string]*Crash

	execs   int64
	start   time.Time
	elapsed time.Duration // accumulated before the last (re)start — resume support
	started bool
	cursor  int // queue round-robin position
	burst   int // mutations left in the current entry's burst
	cur     *Entry

	// Divergence-sentinel state (see sentinel.go).
	sentNext       int64 // exec count of the next probe
	sentCursor     int   // round-robin position over the queue
	sentBackoff    int64 // probe-interval multiplier, doubled per divergence
	sentFails      int   // consecutive divergent probes
	sentEdgeProbes int64 // probes that compared two non-empty edge sets
	divergences    []Divergence
	quarantined    []*Entry
}

// NewCampaign prepares a campaign (seeds are executed on the first Step).
func NewCampaign(cfg Config) *Campaign {
	if cfg.MaxInputLen <= 0 {
		cfg.MaxInputLen = 4096
	}
	rng := NewRNG(cfg.Seed)
	mut := NewMutator(rng, cfg.MaxInputLen)
	mut.SetDict(cfg.Dict)
	c := &Campaign{
		cfg:         cfg,
		rng:         rng,
		mut:         mut,
		bitmap:      NewBitmap(),
		crashes:     make(map[string]*Crash),
		hangs:       make(map[string]*Crash),
		sentBackoff: 1,
	}
	if s := cfg.Sentinel; s != nil {
		c.sentNext = s.Every
	}
	return c
}

// runOne executes input and processes coverage and crashes.
func (c *Campaign) runOne(input []byte, gainOverride int) {
	res := c.cfg.Executor.Execute(input)
	c.execs++
	gain := c.bitmap.Update(c.cfg.CovMap)
	if res.Fault != nil {
		c.recordCrash(res.Fault, input)
		return
	}
	if gainOverride > 0 {
		gain = gainOverride
	}
	if gain > 0 {
		c.queue = append(c.queue, &Entry{
			Input:   append([]byte(nil), input...),
			FoundAt: c.Elapsed(),
			Gain:    gain,
		})
	}
}

// HangKey is the dedup bucket for a hang: unlike crashes, the line where
// the instruction budget ran out is arbitrary, so hangs dedup on the
// function alone.
func HangKey(f *vm.Fault) string { return fmt.Sprintf("hang@%s", f.Fn) }

func (c *Campaign) recordCrash(f *vm.Fault, input []byte) {
	table := c.crashes
	key := f.Key()
	if f.Kind == vm.FaultTimeout {
		table = c.hangs
		key = HangKey(f)
	}
	if cr, ok := table[key]; ok {
		cr.Count++
		return
	}
	table[key] = &Crash{
		Key:       key,
		Kind:      f.Kind,
		Fn:        f.Fn,
		Line:      f.Line,
		Input:     append([]byte(nil), input...),
		FirstAt:   c.Elapsed(),
		FirstExec: c.execs,
		Count:     1,
	}
}

// bootstrap runs the seed corpus.
func (c *Campaign) bootstrap() {
	c.start = time.Now()
	c.started = true
	for _, s := range c.cfg.Seeds {
		c.runOne(s, 3) // seeds always enter the queue
	}
	if len(c.queue) == 0 {
		// Even a corpus of crashing/empty seeds needs a starting point.
		c.queue = append(c.queue, &Entry{Input: []byte{0}, Gain: 3})
	}
}

// Step executes one mutated input (bootstrapping the seed corpus on first
// call). It returns the number of executions performed by this step.
func (c *Campaign) Step() int64 {
	if !c.started {
		before := c.execs
		c.bootstrap()
		return c.execs - before
	}
	if c.burst == 0 {
		c.cur = c.queue[c.cursor%len(c.queue)]
		c.cursor++
		c.burst = havocPerSeed
	}
	c.burst--
	var input []byte
	if len(c.queue) > 1 && c.rng.Intn(256) < spliceProb {
		other := c.queue[c.rng.Intn(len(c.queue))]
		input = c.mut.Splice(c.cur.Input, other.Input)
	} else {
		input = c.mut.Havoc(c.cur.Input)
	}
	c.runOne(input, 0)
	if c.cfg.Sentinel != nil && c.execs >= c.sentNext {
		c.sentinelProbe()
	}
	return 1
}

// stopRequested reports whether the supervisor closed the stop channel.
// Polled only at coarse-check boundaries, never per iteration.
func (c *Campaign) stopRequested() bool {
	if c.cfg.Stop == nil {
		return false
	}
	select {
	case <-c.cfg.Stop:
		return true
	default:
		return false
	}
}

// RunFor drives the campaign until d has elapsed or the stop channel
// closes. The deadline and stop checks run every checkEvery steps, keeping
// time.Now() and channel polling out of the per-iteration hot path.
func (c *Campaign) RunFor(d time.Duration) {
	deadline := time.Now().Add(d)
	for {
		for i := 0; i < checkEvery; i++ {
			c.Step()
		}
		if c.stopRequested() || time.Now().After(deadline) {
			return
		}
	}
}

// RunExecs drives the campaign until at least n executions have happened
// or the stop channel closes (checked every checkEvery steps).
func (c *Campaign) RunExecs(n int64) {
	steps := 0
	for c.execs < n {
		c.Step()
		if steps++; steps >= checkEvery {
			steps = 0
			if c.stopRequested() {
				return
			}
		}
	}
}

// Execs returns the number of test cases executed.
func (c *Campaign) Execs() int64 { return c.execs }

// Edges returns cumulative distinct coverage-map indices hit.
func (c *Campaign) Edges() int { return c.bitmap.Edges() }

// BitmapSnapshot copies the cumulative virgin coverage map. The interproc
// differential suite diffs two campaigns' maps byte for byte — a stronger
// claim than matching edge counts, which could agree by coincidence.
func (c *Campaign) BitmapSnapshot() []byte { return c.bitmap.Snapshot() }

// QueueLen returns the current queue size.
func (c *Campaign) QueueLen() int { return len(c.queue) }

// Queue returns the corpus accumulated so far (the comprehensive test-case
// queue the correctness study replays).
func (c *Campaign) Queue() []*Entry { return c.queue }

// Crashes returns triaged crashes ordered by first discovery. Hangs are
// kept out of this table; see Hangs.
func (c *Campaign) Crashes() []*Crash {
	return sortedTable(c.crashes)
}

// Hangs returns triaged hangs (vm.FaultTimeout buckets) ordered by first
// discovery.
func (c *Campaign) Hangs() []*Crash {
	return sortedTable(c.hangs)
}

func sortedTable(m map[string]*Crash) []*Crash {
	out := make([]*Crash, 0, len(m))
	for _, cr := range m {
		out = append(out, cr)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].FirstExec < out[j].FirstExec })
	return out
}

// CrashByKey looks up a triaged crash.
func (c *Campaign) CrashByKey(key string) *Crash { return c.crashes[key] }

// HangByKey looks up a triaged hang (keys are HangKey format).
func (c *Campaign) HangByKey(key string) *Crash { return c.hangs[key] }

// Elapsed returns cumulative fuzzing time, surviving checkpoint/resume.
func (c *Campaign) Elapsed() time.Duration {
	if !c.started {
		return c.elapsed
	}
	return c.elapsed + time.Since(c.start)
}
