package main

import (
	"fmt"
	"math"
	"math/rand"
	"runtime"
	"time"

	"closurex/internal/core"
	"closurex/internal/execmgr"
	"closurex/internal/fuzz"
	"closurex/internal/ir"
	"closurex/internal/targets"
)

// workload is one set of inputs the benchmark runs. Every campaign
// workload is a closed loop: a campaign (or each of its shards) runs the
// next input only after the previous one has finished.
type workload struct {
	name      string
	mechanism string               // execmgr mechanism; "" runs the toolchain instead of campaigns
	opts      core.InstanceOptions // opts.Jobs > 0 shards the campaign
	budget    int64                // timed execs per target and round (summed over shards), or timed passes per round
	targets   func() []*targets.Target
}

// workloads are listed in the order "-workload all" runs them. Their
// reasons are recorded in BENCHMARK.json and bench/README.md.
var workloads = []*workload{
	{name: "persistent", mechanism: "closurex", budget: 10000, targets: targets.Benchmarks},
	{name: "forkserver", mechanism: "forkserver", budget: 4000, targets: targets.Benchmarks},
	{name: "sanitize", mechanism: "closurex", budget: 10000, targets: targets.Benchmarks,
		opts: core.InstanceOptions{Sanitize: core.SanitizeElide, Interproc: true}},
	{name: "parallel", mechanism: "closurex", budget: 20000, targets: targets.Benchmarks,
		opts: core.InstanceOptions{Jobs: min(2, runtime.NumCPU())}},
	{name: "toolchain", budget: 60, targets: targets.All},
}

// smokeCampaign is the traced toolchain run's campaign over the modules
// the toolchain builds, so that the runtime layers have numbers there too.
var smokeCampaign = &workload{name: "toolchain-smoke", mechanism: "closurex", budget: 1000,
	opts: core.InstanceOptions{Sanitize: core.SanitizeElide, Interproc: true}}

// parallel reports whether w shards its campaigns. With one CPU the
// parallel workload still runs a one-shard fuzz.ParallelCampaign.
func (w *workload) parallel() bool { return w.opts.Jobs > 0 }

func workloadByName(name string) *workload {
	for _, w := range workloads {
		if w.name == name {
			return w
		}
	}
	return nil
}

const (
	// minRounds is the fewest rounds a run makes; a traced run rounds up to
	// an even count.
	minRounds = 3
	// maxRounds caps the rounds a run fills --seconds with.
	maxRounds = 40
	// warmupExecs is how many untimed execs each target runs before the
	// timed ones.
	warmupExecs = 500
)

// runConfig holds one run's settings. The command line sets seed, seconds
// and trace, and the rest come from the workload and the constants above;
// the smoke test shrinks them.
type runConfig struct {
	seed      uint64
	seconds   float64 // measured time to fill with rounds
	trace     bool
	budget    int64 // overrides every workload's budget when > 0
	minRounds int
	warmup    int64 // untimed execs per target before the timed ones
	replay    int   // layer-replay mutants per target and path (traced runs)
	golden    *goldenFile
}

func (c runConfig) budgetFor(w *workload) int64 {
	if c.budget > 0 {
		return c.budget
	}
	return w.budget
}

// targetRow is one target's line in a round.
type targetRow struct {
	Name    string  `json:"name"`
	SetupMs float64 `json:"setup_ms"`
	Ops     int64   `json:"ops"`
	Rate    float64 `json:"ops_per_s"`
	Edges   int     `json:"edges"`
	Queue   int     `json:"queue,omitempty"`
	Crashes int     `json:"crashes,omitempty"`
}

// roundResult is what one round measured.
type roundResult struct {
	traced   bool
	opsPerS  float64
	setup    time.Duration
	allocOp  float64
	heapLive uint64 // largest live heap a target's campaign held, bytes
	edges    int
	measured time.Duration
	lat      map[string][]float64 // op latencies per target, µs
	rows     []targetRow
}

// roundLine summarizes one round in a report.
type roundLine struct {
	Traced   bool    `json:"traced"`
	OpsPerS  float64 `json:"ops_per_s"`
	SetupS   float64 `json:"setup_s"`
	Measured float64 `json:"measured_s"`
}

// report is the outcome of one workload run.
type report struct {
	Workload  string             `json:"workload"`
	Envelope  envelope           `json:"envelope"`
	Correct   bool               `json:"correct"`
	Attempted int64              `json:"attempted"`
	Failed    int64              `json:"failed"`
	Failures  []string           `json:"failures,omitempty"`
	Metrics   map[string]float64 `json:"metrics"`
	// Samples is the fewest latency samples any target gave; TailP is the
	// highest percentile with at least ten of them beyond it, and TailUs
	// its geometric mean over targets. It is printed, not bounded: on
	// crash-prone targets p99 falls where steps turn into respawns.
	Samples int     `json:"latency_samples_min"`
	TailP   float64 `json:"tail_percentile"`
	TailUs  float64 `json:"tail_us"`
	// AllocPerOp is the bytes allocated per op in the timed phases and
	// PeakRSSMiB the process's peak resident set. Both are printed but not
	// declared metrics: allocation follows the seed's crash count (every
	// respawn allocates a whole image) and peak RSS follows GC timing.
	AllocPerOp float64 `json:"alloc_b_per_op"`
	PeakRSSMiB float64 `json:"rss_peak_mb"`
	// TraceOverhead is 1 - traced/untraced ops_per_s, and E2E the
	// untraced rounds' end-to-end metrics (traced runs only).
	TraceOverhead *float64           `json:"trace_overhead,omitempty"`
	E2E           map[string]float64 `json:"e2e,omitempty"`
	Rows          []targetRow        `json:"targets,omitempty"`
	Rounds        []roundLine        `json:"rounds"`

	spans    *spanLog
	outcomes map[string]*outcome // campaign outcome per target
	digests  map[string]string   // toolchain output digest per target
}

func (r *report) fail(format string, args ...any) {
	r.Failures = append(r.Failures, fmt.Sprintf(format, args...))
}

// runner carries one workload run's state across rounds.
type runner struct {
	w     *workload
	cfg   runConfig
	ts    []*targets.Target
	rep   *report
	acc   layerAcc
	spans *spanLog
	first map[string]string // digest of each target's first-round result
}

// runWorkload runs rounds of w until about cfg.seconds of measured time
// have passed (at least cfg.minRounds), then derives the metrics.
func runWorkload(w *workload, cfg runConfig) (*report, error) {
	rn := &runner{
		w: w, cfg: cfg, ts: w.targets(),
		rep:   &report{Workload: w.name, outcomes: map[string]*outcome{}},
		first: map[string]string{},
	}
	if cfg.trace {
		rn.spans = newSpanLog()
		rn.rep.spans = rn.spans
	}
	var rounds []*roundResult
	want := cfg.minRounds
	if cfg.trace && want%2 == 1 {
		want++ // as many traced rounds as untraced ones
	}
	for r := 0; r < want; r++ {
		// Traced runs alternate untraced and traced rounds, so the tracing
		// overhead is measured within one process.
		traced := cfg.trace && r%2 == 1
		last := r == want-1
		var rr *roundResult
		var err error
		if w.mechanism == "" {
			rr, err = rn.toolchainRound(r, traced)
		} else {
			rr, err = rn.campaignRound(r, traced, traced && last && r > 0)
		}
		if err != nil {
			return nil, err
		}
		rounds = append(rounds, rr)
		if r == 0 && cfg.seconds > 0 && rr.measured > 0 {
			fill := int(math.Round(cfg.seconds / rr.measured.Seconds()))
			want = max(cfg.minRounds, min(fill, maxRounds))
			if cfg.trace && want%2 == 1 {
				want++ // as many traced rounds as untraced ones
			}
		}
	}
	if cfg.trace {
		if err := rn.traceExtras(); err != nil {
			return nil, err
		}
	}
	rn.rep.digests = rn.first
	return rn.finish(rounds)
}

// shuffled returns 0..n-1 in an order fixed by the seed and salt.
func shuffled(seed uint64, salt, n int) []int {
	return rand.New(rand.NewSource(int64(seed*1_000_003) + int64(salt))).Perm(n)
}

// trialSeed derives target i's campaign seed from the run's seed.
func trialSeed(seed uint64, i int) uint64 {
	z := seed*0x9e3779b97f4a7c15 + uint64(i+1)*0xbf58476d1ce4e5b9
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

// campaignRound runs every target's campaign once, in an order shuffled
// by the seed and the round. With replay set (the last traced round) each
// target's final queue is also driven through the layer replay.
func (rn *runner) campaignRound(round int, traced, replay bool) (*roundResult, error) {
	rr := &roundResult{traced: traced, lat: map[string][]float64{}}
	var rates []float64
	var alloc uint64
	var ops int64
	for _, i := range shuffled(rn.cfg.seed, round, len(rn.ts)) {
		t := rn.ts[i]
		cr := &campaignRun{w: rn.w, t: t, trial: trialSeed(rn.cfg.seed, i), budget: rn.cfg.budgetFor(rn.w),
			warmup: rn.cfg.warmup, round: round, traced: traced, spans: rn.spans}
		if replay {
			cr.replay = rn.cfg.replay
		}
		if traced {
			cr.acc = &rn.acc
		}
		res, err := cr.run()
		if err != nil {
			return nil, err
		}
		failures := res.failures
		if res.reproducible {
			if d, ok := rn.first[t.Name]; !ok {
				rn.first[t.Name] = res.digest
			} else if d != res.digest {
				failures = append(failures, "determinism digest differs from round 1")
			}
			if g := rn.cfg.golden.campaignGolden(rn.w, rn.cfg, t.Name); g != nil && !g.equal(res.outcome) {
				failures = append(failures, fmt.Sprintf("outcome %v, golden %v", res.outcome, *g))
			}
		}
		rn.count(fmt.Sprintf("%s/%s round %d", rn.w.name, t.Name, round+1), failures)
		if res.reproducible {
			rn.rep.outcomes[t.Name] = &res.outcome
		}
		rr.setup += res.setup
		rr.measured += res.wall
		rr.edges += res.outcome.Edges
		rr.lat[t.Name] = res.lat
		rr.rows = append(rr.rows, res.row)
		rates = append(rates, res.row.Rate)
		alloc += res.alloc
		ops += res.row.Ops
		rr.heapLive = max(rr.heapLive, res.heapLive)
	}
	var err error
	if rr.opsPerS, err = geomean(rates); err != nil {
		return nil, fmt.Errorf("%s round %d: %w", rn.w.name, round+1, err)
	}
	rr.allocOp = float64(alloc) / float64(ops)
	return rr, nil
}

// count records one checked operation and its gate failures, if any.
func (rn *runner) count(what string, failures []string) {
	rn.rep.Attempted++
	if len(failures) == 0 {
		return
	}
	rn.rep.Failed++
	for _, f := range failures {
		rn.rep.fail("%s: %s", what, f)
	}
}

// campaignRun is one target's campaign in one round.
type campaignRun struct {
	w      *workload
	t      *targets.Target
	trial  uint64
	budget int64
	warmup int64
	round  int
	traced bool
	spans  *spanLog
	acc    *layerAcc // non-nil: add the traced campaign's layer figures
	replay int       // > 0: drive this many mutants of the final queue through replayLayers
}

type campaignResult struct {
	// reproducible is set when two runs of the campaign are bit-identical,
	// so its digest and golden outcome are checked.
	reproducible bool
	row          targetRow
	setup        time.Duration
	wall         time.Duration
	lat          []float64
	alloc        uint64
	heapLive     uint64
	outcome      outcome
	digest       string
	failures     []string
}

// run builds the target with core.NewInstance (timed as set-up, together
// with the seed bootstrap), warms up, runs the timed budget, and checks
// the result.
func (cr *campaignRun) run() (*campaignResult, error) {
	opts := cr.w.opts
	opts.TrialSeed = cr.trial
	opts.DeterministicRand = true
	runtime.GC()
	start := time.Now()
	in, err := core.NewInstance(cr.t, cr.w.mechanism, opts)
	if err != nil {
		return nil, fmt.Errorf("%s/%s: %w", cr.w.name, cr.t.Name, err)
	}
	defer in.Close()
	drv, clocks, par, err := cr.newCampaign(in)
	if err != nil {
		return nil, err
	}
	drv.RunExecs(1)
	setup := time.Since(start)
	drv.RunExecs(drv.Execs() + cr.warmup)
	for _, c := range clocks {
		c.reset()
	}
	base := drv.Execs()
	spawns0, crashes0, queue0 := spawnCount(in), crashEvents(drv), drv.QueueLen()
	runtime.GC()
	var ms0, ms1 runtime.MemStats
	runtime.ReadMemStats(&ms0)
	t0 := time.Now()
	drv.RunExecs(base + cr.budget)
	wall := time.Since(t0)
	runtime.ReadMemStats(&ms1)
	execs := drv.Execs() - base

	res := &campaignResult{wall: wall, alloc: ms1.TotalAlloc - ms0.TotalAlloc, heapLive: liveHeap()}
	for _, c := range clocks {
		res.lat = append(res.lat, c.steps...)
	}
	res.failures = append(res.failures, verifyHarnesses(in)...)
	randSeeds := []uint64{cr.trial}
	if cr.w.parallel() {
		randSeeds = randSeeds[:0]
		for j := range in.Mechs {
			randSeeds = append(randSeeds, fuzz.ShardSeed(cr.trial, j))
		}
	}
	crashes := drv.Crashes()
	bad, err := replayCrashes(in, cr.w.opts.Sanitize.Enabled(), randSeeds, crashes)
	if err != nil {
		return nil, fmt.Errorf("%s/%s: %w", cr.w.name, cr.t.Name, err)
	}
	res.failures = append(res.failures, bad...)
	if par != nil {
		for _, ev := range par.Events() {
			res.failures = append(res.failures, fmt.Sprintf("shard %d %s: %s", ev.Shard, ev.Kind, ev.Detail))
		}
	}
	res.outcome, res.digest = summarize(drv)
	res.reproducible = reproducible(cr.w, in.Module)
	res.setup = setup
	res.row = targetRow{
		Name: cr.t.Name, SetupMs: float64(setup) / 1e6, Ops: execs,
		Rate: float64(execs) / wall.Seconds(), Edges: res.outcome.Edges,
		Queue: res.outcome.Queue, Crashes: len(crashes),
	}
	if cr.acc != nil {
		for _, c := range clocks {
			cr.acc.addClock(c)
		}
		cr.acc.timedExecs += execs
		cr.acc.newEntries += int64(drv.QueueLen() - queue0)
		cr.acc.crashEvents += crashEvents(drv) - crashes0
		cr.acc.spawns += spawnCount(in) - spawns0
		if cr.replay > 0 {
			var queue [][]byte
			for _, e := range drv.Queue() {
				queue = append(queue, e.Input)
			}
			rp := replayInput{t: cr.t, mod: in.Module, queue: queue, trial: cr.trial,
				sanitize: cr.w.opts.Sanitize.Enabled(), interproc: cr.w.opts.Interproc,
				forkOwn: cr.w.mechanism == "forkserver", round: cr.round, execs: cr.replay}
			if err := replayLayers(rp, cr.acc, cr.spans); err != nil {
				res.failures = append(res.failures, err.Error())
			}
		}
	}
	return res, nil
}

// newCampaign builds the campaign core.NewInstance would, over the
// instance's own mechanisms, with each shard's executor wrapped in a clock.
// Its shards have no Rebuild callback, which core sets for the supervisor's
// last restart step: the supervisor only gets there after a shard faults
// repeatedly, and any supervisor event already fails the run.
func (cr *campaignRun) newCampaign(in *core.Instance) (fuzz.Driver, []*clock, *fuzz.ParallelCampaign, error) {
	mk := func(ex fuzz.Executor) *clock {
		return &clock{ex: ex, trace: cr.traced, spans: cr.spans, target: cr.t.Name, round: cr.round}
	}
	fingerprint := cr.t.Name + "@" + cr.w.mechanism
	dict := dictBytes(cr.t)
	if !cr.w.parallel() {
		c := mk(in.Mech)
		camp := fuzz.NewCampaign(fuzz.Config{
			Executor: c, CovMap: in.CovMap, Seeds: cr.t.Seeds(), Seed: cr.trial,
			Fingerprint: fingerprint, MaxInputLen: cr.t.MaxInputLen, Dict: dict,
		})
		return camp, []*clock{c}, nil, nil
	}
	var clocks []*clock
	var shards []fuzz.ShardConfig
	for j, m := range in.Mechs {
		cx, ok := m.(*execmgr.ClosureX)
		if !ok {
			return nil, nil, nil, fmt.Errorf("%s/%s: shard %d runs %s, want closurex", cr.w.name, cr.t.Name, j, m.Name())
		}
		c := mk(m)
		clocks = append(clocks, c)
		shards = append(shards, fuzz.ShardConfig{Executor: c, CovMap: cx.Harness().VM().EngineCov()})
	}
	par, err := fuzz.NewParallelCampaign(fuzz.ParallelConfig{
		Shards: shards, Seed: cr.trial, Fingerprint: fingerprint,
		Seeds: cr.t.Seeds(), MaxInputLen: cr.t.MaxInputLen, Dict: dict,
	})
	if err != nil {
		return nil, nil, nil, fmt.Errorf("%s/%s: %w", cr.w.name, cr.t.Name, err)
	}
	return par, clocks, par, nil
}

// reproducible reports whether two runs of w's campaign over mod are
// bit-identical. Shards of a parallel campaign exchange inputs at
// scheduling-dependent points. vm.Fork seeds each child's rand() from a
// process-wide counter even under DeterministicRand, so a forkserver
// campaign over a target that calls rand() (freetype) differs run to run.
func reproducible(w *workload, mod *ir.Module) bool {
	if w.parallel() {
		return false
	}
	if w.mechanism != "forkserver" {
		return true
	}
	for _, f := range mod.Funcs {
		for _, b := range f.Blocks {
			for i := range b.Instrs {
				if in := &b.Instrs[i]; in.Op == ir.OpCall && in.Callee == "rand" {
					return false
				}
			}
		}
	}
	return true
}

// liveHeap collects garbage and returns the bytes still reachable.
func liveHeap() uint64 {
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return ms.HeapAlloc
}

func spawnCount(in *core.Instance) int64 {
	var n int64
	for _, m := range in.Mechs {
		n += m.Spawns()
	}
	return n
}

func crashEvents(d fuzz.Driver) int64 {
	var n int64
	for _, c := range d.Crashes() {
		n += c.Count
	}
	return n
}

// toolchainRound runs one untimed pass over every target as the round's
// set-up, then the timed passes. Each pass visits the targets in an order
// shuffled by the seed, the round and the pass.
func (rn *runner) toolchainRound(round int, traced bool) (*roundResult, error) {
	rr := &roundResult{traced: traced, lat: map[string][]float64{}}
	n := len(rn.ts)
	check := func(t *targets.Target, r pipelineResult, pass int) {
		var failures []string
		switch {
		case r.err != nil:
			failures = append(failures, r.err.Error())
		case rn.cfg.golden != nil && rn.cfg.golden.Toolchain[t.Name] != r.digest:
			failures = append(failures, fmt.Sprintf("output digest %.12s, golden %.12s", r.digest, rn.cfg.golden.Toolchain[t.Name]))
		}
		if d, ok := rn.first[t.Name]; !ok {
			rn.first[t.Name] = r.digest
		} else if r.err == nil && d != r.digest {
			failures = append(failures, "output digest differs from the first pass")
		}
		rn.count(fmt.Sprintf("toolchain/%s round %d pass %d", t.Name, round+1, pass), failures)
	}

	start := time.Now()
	for _, i := range shuffled(rn.cfg.seed, round<<16, n) {
		check(rn.ts[i], runPipeline(rn.ts[i]), 0)
	}
	rr.setup = time.Since(start)

	passes := rn.cfg.budgetFor(rn.w)
	perTarget := make([]time.Duration, n)
	edges := make([]int, n)
	held := make([]*ir.Module, n) // the last pass's output, held for heap_live_mb
	runtime.GC()
	var ms0, ms1 runtime.MemStats
	runtime.ReadMemStats(&ms0)
	t0 := time.Now()
	for p := 1; p <= int(passes); p++ {
		var stages [nStages]time.Duration
		for k, i := range shuffled(rn.cfg.seed, round<<16+p, n) {
			t := rn.ts[i]
			r := runPipeline(t)
			check(t, r, p)
			perTarget[i] += r.total
			held[i] = r.mod
			rr.lat[t.Name] = append(rr.lat[t.Name], float64(r.total)/1e3)
			if p == 1 {
				edges[i] = r.edges
				rr.edges += r.edges
				if traced {
					rn.acc.moduleFacts(r, k == 0)
				}
			}
			if traced {
				for s := range stages {
					stages[s] += r.stages[s]
				}
				if k == 0 {
					rn.pipelineSpans(t, r, round, p)
				}
			}
		}
		if traced {
			rn.acc.passes = append(rn.acc.passes, stages)
		}
	}
	rr.measured = time.Since(t0)
	runtime.ReadMemStats(&ms1)
	rr.heapLive = liveHeap()
	runtime.KeepAlive(held)

	var rates []float64
	for i, t := range rn.ts {
		rate := float64(passes) / perTarget[i].Seconds()
		rates = append(rates, rate)
		rr.rows = append(rr.rows, targetRow{Name: t.Name, Ops: passes, Rate: rate, Edges: edges[i]})
	}
	var err error
	if rr.opsPerS, err = geomean(rates); err != nil {
		return nil, fmt.Errorf("toolchain round %d: %w", round+1, err)
	}
	rr.allocOp = float64(ms1.TotalAlloc-ms0.TotalAlloc) / float64(passes*int64(n))
	return rr, nil
}

// pipelineSpans records one target's pipeline as a root span with a child
// per stage.
func (rn *runner) pipelineSpans(t *targets.Target, r pipelineResult, round, pass int) {
	root := rn.spans.add(0, "toolchain.target", r.start, r.start.Add(r.total), int64(pass), t.Name, round)
	at := r.start
	for s, d := range r.stages {
		rn.spans.add(root, stageNames[s], at, at.Add(d), int64(pass), t.Name, round)
		at = at.Add(d)
	}
}

// profilePasses is how many toolchain passes a traced campaign run times
// for the toolchain layer metrics.
const profilePasses = 3

// traceExtras measures the layers a traced run's own rounds do not reach.
// A campaign run times the toolchain over its targets; the toolchain run
// fuzzes the modules it builds, with the layer replay, so that every layer
// metric exists on every workload.
func (rn *runner) traceExtras() error {
	if rn.w.mechanism != "" {
		for p := 0; p < profilePasses; p++ {
			var stages [nStages]time.Duration
			for i, t := range rn.ts {
				r := runPipeline(t)
				var failures []string
				if r.err != nil {
					failures = []string{r.err.Error()}
				}
				rn.count(fmt.Sprintf("%s/%s toolchain profile", rn.w.name, t.Name), failures)
				for s := range stages {
					stages[s] += r.stages[s]
				}
				if p == 0 {
					rn.acc.moduleFacts(r, i == 0)
				}
			}
			rn.acc.passes = append(rn.acc.passes, stages)
		}
		return nil
	}
	budget := min(smokeCampaign.budget, rn.cfg.budgetFor(smokeCampaign))
	for i, t := range rn.ts {
		cr := &campaignRun{w: smokeCampaign, t: t, trial: trialSeed(rn.cfg.seed, i), budget: budget,
			warmup: min(rn.cfg.warmup, 200), round: -1, traced: true, spans: rn.spans, acc: &rn.acc, replay: rn.cfg.replay}
		res, err := cr.run()
		if err != nil {
			return err
		}
		rn.count(fmt.Sprintf("%s/%s", smokeCampaign.name, t.Name), res.failures)
	}
	return nil
}

// moduleFacts adds one instrumented module's size and sanitizer counts;
// reset starts a new pass's sums.
func (a *layerAcc) moduleFacts(r pipelineResult, reset bool) {
	if reset {
		a.irInstrs, a.checks, a.elided = 0, 0, 0
	}
	a.irInstrs += r.instrs
	a.checks += r.checks
	a.elided += r.elided
}

// finish derives the metrics from the rounds. End-to-end metrics come
// from untraced rounds only; a traced run prints the layer metrics.
func (rn *runner) finish(rounds []*roundResult) (*report, error) {
	rep := rn.rep
	var ops, setups, allocs, heaps, edges, tracedOps []float64
	lat := map[string][]float64{}
	for _, rr := range rounds {
		rep.Rounds = append(rep.Rounds, roundLine{rr.traced, rr.opsPerS, rr.setup.Seconds(), rr.measured.Seconds()})
		if rr.traced {
			tracedOps = append(tracedOps, rr.opsPerS)
			continue
		}
		ops = append(ops, rr.opsPerS)
		setups = append(setups, rr.setup.Seconds())
		allocs = append(allocs, rr.allocOp)
		heaps = append(heaps, float64(rr.heapLive)/(1<<20))
		edges = append(edges, float64(rr.edges))
		for name, xs := range rr.lat {
			lat[name] = append(lat[name], xs...)
		}
		rep.Rows = rr.rows
	}
	// Latency percentiles are taken per target, whose step costs differ by
	// an order of magnitude, and averaged across targets geometrically.
	for _, t := range rn.ts {
		if n := len(lat[t.Name]); rep.Samples == 0 || n < rep.Samples {
			rep.Samples = n
		}
	}
	rep.TailP = tailPercentile(rep.Samples)
	pct := func(p float64) (float64, error) {
		var xs []float64
		for _, t := range rn.ts {
			xs = append(xs, percentile(lat[t.Name], p))
		}
		g, err := geomean(xs)
		if err != nil {
			return 0, fmt.Errorf("%s: latency p%g: %w", rn.w.name, p, err)
		}
		return g, nil
	}
	p50, err := pct(50)
	if err != nil {
		return nil, err
	}
	p90, err := pct(90)
	if err != nil {
		return nil, err
	}
	if rep.TailP > 0 {
		if rep.TailUs, err = pct(rep.TailP); err != nil {
			return nil, err
		}
	}
	e2e := map[string]float64{
		"ops_per_s":      median(ops),
		"latency_us_p50": p50,
		"latency_us_p90": p90,
		"setup_s":        median(setups),
		"heap_live_mb":   median(heaps),
		"edges":          median(edges),
	}
	rep.AllocPerOp = median(allocs)
	rep.PeakRSSMiB = peakRSSMiB()
	rep.Correct = rep.Failed == 0
	if !rn.cfg.trace {
		rep.Metrics = e2e
		return rep, nil
	}
	overhead := 1 - median(tracedOps)/median(ops)
	rep.TraceOverhead = &overhead
	rep.E2E = e2e
	rep.Metrics = rn.acc.metrics()
	return rep, nil
}

// metrics derives the per-layer metrics from the sums.
func (a *layerAcc) metrics() map[string]float64 {
	per := func(x, n int64) float64 { return float64(x) / float64(n) }
	ns := func(d time.Duration, n int64) float64 { return per(int64(d), n) }
	m := map[string]float64{
		"fuzz.step_self_ns":              ns(a.selfSum, a.steps),
		"fuzz.mutate_ns":                 ns(a.mutate, a.mutateN),
		"fuzz.bitmap_ns":                 ns(a.bitmap, a.bitmapN),
		"fuzz.bitmap_cells_per_exec":     per(a.cells, a.bitmapN),
		"fuzz.new_cov_ratio":             per(a.newEntries, a.timedExecs),
		"fuzz.crash_per_kexec":           1000 * per(a.crashEvents, a.timedExecs),
		"execmgr.execute_ns":             ns(a.execSum, a.execs),
		"execmgr.spawns_per_kexec":       1000 * per(a.spawns, a.timedExecs),
		"execmgr.respawn_us":             ns(a.respawn, a.respawnN) / 1e3,
		"mem.fork_ns":                    ns(a.fork, a.forkN),
		"mem.release_ns":                 ns(a.release, a.releaseN),
		"vm.call_ns":                     ns(a.call, a.callN),
		"vm.instrs_per_exec":             per(a.instrs, a.callN),
		"vm.ns_per_instr":                per(int64(a.call), a.instrs),
		"harness.restore_ns":             ns(a.restore, a.restoreN),
		"harness.restore_bytes_per_exec": per(a.restoreBytes, a.restoreN),
		"harness.shadow_pages_per_exec":  per(a.shadowPages, a.restoreN),
		"harness.chunks_freed_per_exec":  per(a.chunksFreed, a.restoreN),
		"harness.fds_closed_per_exec":    per(a.fdsClosed, a.restoreN),
		"harness.restore_errors":         float64(a.restoreErr),
		"ir.instrs_after_passes":         float64(a.irInstrs),
		"analysis.sancheck_elided_ratio": per(int64(a.elided), int64(a.checks+a.elided)),
	}
	for s, name := range stageNames {
		var ms []float64
		for _, p := range a.passes {
			ms = append(ms, float64(p[s])/1e6)
		}
		m[name+"_ms"] = median(ms)
	}
	return m
}
