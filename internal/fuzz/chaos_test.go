package fuzz

// Chaos suite for the shard supervision layer: every injected fault class
// must end in a completed campaign whose global coverage is a superset of
// each shard's local coverage, with no goroutine leak and no deadlock.

import (
	"bytes"
	"encoding/gob"
	"errors"
	"runtime"
	"sync"
	"testing"
	"time"

	"closurex/internal/faultinject"
	"closurex/internal/vm"
)

// checkGoroutineLeak snapshots the goroutine count and returns a func to
// defer: it polls (campaign goroutines unwind asynchronously after run
// returns) and fails the test if the count never comes back down.
func checkGoroutineLeak(t *testing.T) func() {
	t.Helper()
	before := runtime.NumGoroutine()
	return func() {
		t.Helper()
		deadline := time.Now().Add(5 * time.Second)
		for runtime.NumGoroutine() > before && time.Now().Before(deadline) {
			time.Sleep(10 * time.Millisecond)
		}
		if now := runtime.NumGoroutine(); now > before {
			t.Errorf("goroutine leak: %d before, %d after", before, now)
		}
	}
}

// rebuildableLadder is a ladder executor with the in-place Rebuild the
// supervisor's escalation step calls. The ladder keeps no state between
// executions, so a rebuild only counts.
type rebuildableLadder struct {
	*coverageLadder
	rebuilds int
}

func (r *rebuildableLadder) Rebuild(string) { r.rebuilds++ }

// chaosFleet builds a J-shard ladder fleet with a fast supervisor and the
// given injector armed. With rebuild, every shard's executor can be
// rebuilt; without, the supervisor's rebuild step quarantines.
func chaosFleet(t *testing.T, jobs int, inj *faultinject.Injector, rebuild bool) *ParallelCampaign {
	t.Helper()
	var shards []ShardConfig
	for j := 0; j < jobs; j++ {
		ex, cov := newLadder("MAGIC")
		sc := ShardConfig{Executor: ex, CovMap: cov}
		if rebuild {
			sc.Executor = &rebuildableLadder{coverageLadder: ex}
		}
		shards = append(shards, sc)
	}
	p, err := NewParallelCampaign(ParallelConfig{
		Shards: shards, Seed: 11, Seeds: [][]byte{[]byte("xxxxxxxx")},
		SyncEvery: 64,
		Supervisor: SupervisorConfig{
			Backoff:  50 * time.Microsecond,
			Injector: inj,
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	return p
}

// assertCoverageSuperset checks the fleet invariant the chaos gate is
// about: no fault may lose coverage — the global bitmap must contain every
// shard's local bitmap, including a quarantined shard's pre-fault edges.
func assertCoverageSuperset(t *testing.T, p *ParallelCampaign) {
	t.Helper()
	global := p.BitmapSnapshot()
	for j := 0; j < p.Jobs(); j++ {
		local := p.Shard(j).BitmapSnapshot()
		for i := range local {
			if local[i]&^global[i] != 0 {
				t.Fatalf("shard %d byte %d: local coverage %#x not in global %#x", j, i, local[i], global[i])
			}
		}
	}
}

func TestChaosShardKillRestarts(t *testing.T) {
	defer checkGoroutineLeak(t)()
	inj := faultinject.New(1)
	// Two transient kills on shard 1: plain restarts absorb them.
	inj.FailAfter(faultinject.ForShard(faultinject.ShardKill, 1), 500, 1)
	p := chaosFleet(t, 2, inj, false)
	p.RunExecs(20000)
	if p.Execs() < 20000 {
		t.Fatalf("campaign did not complete: %d execs", p.Execs())
	}
	h := p.Health()
	if h[1].Restarts < 1 {
		t.Fatalf("shard 1 was killed but never restarted: %+v", h[1])
	}
	if h[1].Quarantined {
		t.Fatalf("one transient kill must not quarantine: %+v", h[1])
	}
	if h[1].ConsecutiveFaults != 0 {
		t.Fatalf("fault streak must reset after recovery: %+v", h[1])
	}
	if h[0].Restarts != 0 {
		t.Fatalf("healthy shard restarted: %+v", h[0])
	}
	assertCoverageSuperset(t, p)
	if len(p.Events()) == 0 {
		t.Fatal("supervision events not recorded")
	}
}

func TestChaosShardKillForeverQuarantines(t *testing.T) {
	defer checkGoroutineLeak(t)()
	inj := faultinject.New(2)
	// Shard 1 dies on every step past 2000: restarts exhaust, rebuild (none
	// available) is skipped, the shard is quarantined, and the campaign
	// completes on the remaining shards.
	inj.FailAfter(faultinject.ForShard(faultinject.ShardKill, 1), 2000, -1)
	p := chaosFleet(t, 3, inj, false)
	p.RunExecs(30000)
	if p.Execs() < 30000 {
		t.Fatalf("campaign did not complete on healthy shards: %d execs", p.Execs())
	}
	// The budget is fleet-wide and the scheduler owes shard 1 no share of
	// it: with more shards than CPUs the healthy shards can spend it before
	// shard 1 reaches its 2000th step or the end of its restart ladder.
	// RunFor steps every shard at least checkEvery times per call, and a
	// faulting segment never reaches its deadline check, so each slice
	// either moves shard 1 toward its 2000th step or climbs the whole
	// ladder.
	for i := 0; i < 100 && !p.Health()[1].Quarantined; i++ {
		p.RunFor(time.Millisecond)
	}
	h := p.Health()
	if !h[1].Quarantined {
		t.Fatalf("fail-forever shard not quarantined: %+v", h[1])
	}
	if p.HealthyShards() != 2 {
		t.Fatalf("HealthyShards = %d, want 2", p.HealthyShards())
	}
	// The quarantined shard's coverage must survive in the global bitmap.
	assertCoverageSuperset(t, p)
	// Its discoveries must have been redistributed: anything shard 1
	// published is in the cross-shard corpus view.
	corpus := map[string]struct{}{}
	for _, e := range p.Queue() {
		corpus[string(e.Input)] = struct{}{}
	}
	for _, e := range p.Shard(1).Queue() {
		if _, ok := corpus[string(e.Input)]; !ok {
			t.Fatalf("quarantined shard's entry %q lost from the merged corpus", e.Input)
		}
	}
	// A later run slice must not resurrect the quarantined shard.
	before := h[1].Execs
	p.RunExecs(p.Execs() + 5000)
	if after := p.Health()[1].Execs; after != before {
		t.Fatalf("quarantined shard ran again: %d -> %d execs", before, after)
	}
}

func TestChaosRestoreCorruptRebuildLadder(t *testing.T) {
	defer checkGoroutineLeak(t)()
	inj := faultinject.New(3)
	// MaxRestarts(3)+1 consecutive restore corruptions on shard 1: three
	// plain restarts, then the supervisor escalates to a mechanism rebuild;
	// the fault clears and the shard recovers without quarantine.
	inj.FailAfter(faultinject.ForShard(faultinject.ShardRestore, 1), 1000, 4)
	p := chaosFleet(t, 2, inj, true)
	p.RunExecs(20000)
	if p.Execs() < 20000 {
		t.Fatalf("campaign did not complete: %d execs", p.Execs())
	}
	// The healthy shard may spend the budget while shard 1 sits in a
	// restart backoff, so drive RunFor slices until shard 1 has climbed to
	// the rebuild and executed past it (see
	// TestChaosShardKillForeverQuarantines).
	for i := 0; i < 100; i++ {
		if h := p.Health()[1]; h.Rebuilds > 0 && h.ConsecutiveFaults == 0 {
			break
		}
		p.RunFor(time.Millisecond)
	}
	h := p.Health()
	if h[1].ConsecutiveFaults != 0 {
		t.Fatalf("fault streak must close after the rebuild: %+v", h[1])
	}
	if h[1].Rebuilds != 1 {
		t.Fatalf("rebuild ladder did not fire exactly once: %+v", h[1])
	}
	if n := p.Shard(1).cfg.Executor.(*rebuildableLadder).rebuilds; n != 1 {
		t.Fatalf("executor rebuilt %d times, want once", n)
	}
	if h[1].RestoreFailures < 4 {
		t.Fatalf("restore failures not recorded: %+v", h[1])
	}
	if h[1].Quarantined {
		t.Fatalf("recovered shard must not be quarantined: %+v", h[1])
	}
	assertCoverageSuperset(t, p)
}

func TestChaosRestoreCorruptForeverQuarantines(t *testing.T) {
	defer checkGoroutineLeak(t)()
	inj := faultinject.New(4)
	inj.FailAfter(faultinject.ForShard(faultinject.ShardRestore, 1), 1000, -1)
	p := chaosFleet(t, 2, inj, true)
	p.RunExecs(15000)
	if p.Execs() < 15000 {
		t.Fatalf("campaign did not complete: %d execs", p.Execs())
	}
	// As in TestChaosShardKillForeverQuarantines: slices until shard 1 has
	// climbed the whole ladder.
	for i := 0; i < 100 && !p.Health()[1].Quarantined; i++ {
		p.RunFor(time.Millisecond)
	}
	h := p.Health()
	if !h[1].Quarantined {
		t.Fatalf("fail-forever restore corruption must quarantine: %+v", h[1])
	}
	// The full ladder was climbed: restarts, then a rebuild, then the end.
	if h[1].Rebuilds != 1 {
		t.Fatalf("quarantine must come after a rebuild attempt: %+v", h[1])
	}
	if h[1].LastFault == "" {
		t.Fatal("last fault not recorded")
	}
	assertCoverageSuperset(t, p)
}

func TestChaosCorpusDelayAndDrop(t *testing.T) {
	defer checkGoroutineLeak(t)()
	inj := faultinject.New(5)
	inj.FailWithProb(faultinject.CorpusDelay, 0.3)
	inj.FailWithProb(faultinject.CorpusDrop, 0.3)
	p := chaosFleet(t, 3, inj, false)
	p.RunExecs(30000)
	if p.Execs() < 30000 {
		t.Fatalf("campaign wedged behind a slow/lossy corpus exchange: %d execs", p.Execs())
	}
	// Dropped publishes may cost propagation, never coverage: the global
	// bitmap merges at sync boundaries, not through the exchange.
	assertCoverageSuperset(t, p)
	if inj.Fired(faultinject.CorpusDrop) == 0 && inj.Fired(faultinject.CorpusDelay) == 0 {
		t.Fatal("chaos sites never fired; test exercised nothing")
	}
}

func TestChaosHangEscalation(t *testing.T) {
	defer checkGoroutineLeak(t)()
	gate := make(chan struct{})
	var once sync.Once
	ex0, cov0 := newLadder("MAGIC")
	ex1, cov1 := newLadder("MAGIC")
	stall := &stallingExecutor{inner: ex1, after: 3000, gate: gate}
	p, err := NewParallelCampaign(ParallelConfig{
		Shards: []ShardConfig{{Executor: ex0, CovMap: cov0}, {Executor: stall, CovMap: cov1}},
		Seed:   13, Seeds: [][]byte{[]byte("xxxxxxxx")},
		SyncEvery: 64,
		Supervisor: SupervisorConfig{
			HangAfter: 30 * time.Millisecond,
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	done := make(chan struct{})
	go func() {
		p.RunExecs(50000)
		close(done)
	}()
	// Wait for the monitor to mark shard 1 stalled, then release the gate.
	deadline := time.Now().Add(10 * time.Second)
	for {
		if time.Now().After(deadline) {
			t.Fatal("hang escalation never fired")
		}
		hs := p.Health()
		if hs[1].Stalled || hs[1].HangEscalations > 0 {
			break
		}
		time.Sleep(5 * time.Millisecond)
	}
	once.Do(func() { close(gate) })
	select {
	case <-done:
	case <-time.After(60 * time.Second):
		t.Fatal("campaign did not finish after the stall cleared")
	}
	h := p.Health()
	if h[1].HangEscalations == 0 {
		t.Fatalf("stall not escalated: %+v", h[1])
	}
	if h[1].Quarantined {
		t.Fatalf("hang escalation is observational; must not quarantine: %+v", h[1])
	}
}

// stallingExecutor blocks on gate after `after` executions — an in-process
// stand-in for a wedged target the hang monitor must notice.
type stallingExecutor struct {
	inner *coverageLadder
	after int64
	execs int64
	gate  <-chan struct{}
}

func (s *stallingExecutor) Execute(input []byte) vm.Result {
	s.execs++
	if s.execs == s.after {
		<-s.gate
	}
	return s.inner.Execute(input)
}

// TestChaosInertInjectorBitIdentical extends the J=1 identity proof through
// the supervised path: an armed-but-never-firing injector (the chaos
// plumbing fully wired) must not perturb a single byte of the campaign.
func TestChaosInertInjectorBitIdentical(t *testing.T) {
	defer checkGoroutineLeak(t)()
	n := int64(30000)
	if raceEnabled {
		n = 6000
	}
	seeds := [][]byte{[]byte("xxxxxxxx")}

	seqEx, seqCov := newLadder("MAGIC")
	seq := NewCampaign(Config{Executor: seqEx, CovMap: seqCov, Seeds: seeds, Seed: 99})
	seq.RunExecs(n)

	inj := faultinject.New(9)
	inj.FailAfter(faultinject.ShardKill, 1<<40, 1) // armed, unreachable
	parEx, parCov := newLadder("MAGIC")
	par, err := NewParallelCampaign(ParallelConfig{
		Shards: []ShardConfig{{Executor: parEx, CovMap: parCov}},
		Seed:   99, Seeds: seeds,
		Supervisor: SupervisorConfig{Injector: inj},
	})
	if err != nil {
		t.Fatal(err)
	}
	par.RunExecs(n)

	if seq.Execs() != par.Execs() || seq.Edges() != par.Edges() {
		t.Fatalf("supervised run diverged: execs %d/%d edges %d/%d",
			seq.Execs(), par.Execs(), seq.Edges(), par.Edges())
	}
	if !bytes.Equal(seq.BitmapSnapshot(), par.BitmapSnapshot()) {
		t.Fatal("coverage bitmaps diverged under an inert injector")
	}
	sq, pq := seq.Queue(), par.Queue()
	if len(sq) != len(pq) {
		t.Fatalf("queues diverged: %d vs %d", len(sq), len(pq))
	}
	for i := range sq {
		if !bytes.Equal(sq[i].Input, pq[i].Input) {
			t.Fatalf("queue entry %d diverged", i)
		}
	}
}

func TestChaosStopDrainsAndCheckpoints(t *testing.T) {
	defer checkGoroutineLeak(t)()
	stop := make(chan struct{})
	var shards []ShardConfig
	for j := 0; j < 3; j++ {
		ex, cov := newLadder("MAGIC")
		shards = append(shards, ShardConfig{Executor: ex, CovMap: cov})
	}
	mk := func() ParallelConfig {
		return ParallelConfig{
			Shards: shards, Seed: 21, Fingerprint: "ladder@test",
			Seeds: [][]byte{[]byte("xxxxxxxx")}, SyncEvery: 64, Stop: stop,
		}
	}
	p, err := NewParallelCampaign(mk())
	if err != nil {
		t.Fatal(err)
	}
	done := make(chan struct{})
	go func() {
		p.RunExecs(1 << 40) // effectively unbounded; only stop ends it
		close(done)
	}()
	for p.Execs() < 2000 {
		time.Sleep(time.Millisecond)
	}
	close(stop)
	select {
	case <-done:
	case <-time.After(30 * time.Second):
		t.Fatal("stop did not drain the fleet")
	}
	// Every shard stopped at a checkpointable boundary: the whole fleet
	// serializes and resumes.
	blob, err := p.Checkpoint()
	if err != nil {
		t.Fatalf("checkpoint after stop: %v", err)
	}
	cfg := mk()
	cfg.Stop = nil
	var resumed []ShardConfig
	for j := 0; j < 3; j++ {
		ex, cov := newLadder("MAGIC")
		resumed = append(resumed, ShardConfig{Executor: ex, CovMap: cov})
	}
	cfg.Shards = resumed
	res, err := ResumeParallel(cfg, blob)
	if err != nil {
		t.Fatalf("resume after stop: %v", err)
	}
	if res.Execs() != p.Execs() || res.Edges() != p.Edges() {
		t.Fatalf("stop checkpoint lost progress: execs %d/%d edges %d/%d",
			p.Execs(), res.Execs(), p.Edges(), res.Edges())
	}
}

func TestParallelElasticResume(t *testing.T) {
	defer checkGoroutineLeak(t)()
	mk := func(jobs int) ParallelConfig {
		var shards []ShardConfig
		for j := 0; j < jobs; j++ {
			ex, cov := newLadder("MAGIC")
			shards = append(shards, ShardConfig{Executor: ex, CovMap: cov})
		}
		return ParallelConfig{
			Shards: shards, Seed: 77, Fingerprint: "ladder@test",
			Seeds: [][]byte{[]byte("xxxxxxxx")}, SyncEvery: 64,
		}
	}
	n := int64(40000)
	if raceEnabled {
		n = 8000
	}
	p, err := NewParallelCampaign(mk(4))
	if err != nil {
		t.Fatal(err)
	}
	p.RunExecs(n)
	blob, err := p.Checkpoint()
	if err != nil {
		t.Fatal(err)
	}
	wantCorpus := map[string]struct{}{}
	for _, e := range p.Queue() {
		wantCorpus[string(e.Input)] = struct{}{}
	}

	for _, jobs := range []int{2, 8} {
		res, err := ResumeParallel(mk(jobs), blob)
		if err != nil {
			t.Fatalf("elastic resume J=4 -> J=%d: %v", jobs, err)
		}
		if res.Jobs() != jobs {
			t.Fatalf("resumed at %d shards, want %d", res.Jobs(), jobs)
		}
		if res.Execs() != p.Execs() {
			t.Fatalf("J=%d: execs %d, want %d", jobs, res.Execs(), p.Execs())
		}
		if res.Edges() != p.Edges() {
			t.Fatalf("J=%d: edges %d, want %d", jobs, res.Edges(), p.Edges())
		}
		if !bytes.Equal(res.BitmapSnapshot(), p.BitmapSnapshot()) {
			t.Fatalf("J=%d: merged bitmap diverged", jobs)
		}
		got := map[string]struct{}{}
		for _, e := range res.Queue() {
			got[string(e.Input)] = struct{}{}
		}
		if len(got) != len(wantCorpus) {
			t.Fatalf("J=%d: corpus %d entries, want %d", jobs, len(got), len(wantCorpus))
		}
		for k := range wantCorpus {
			if _, ok := got[k]; !ok {
				t.Fatalf("J=%d: corpus entry %q lost in re-sharding", jobs, k)
			}
		}
		if len(res.Crashes()) != len(p.Crashes()) {
			t.Fatalf("J=%d: crashes %d, want %d", jobs, len(res.Crashes()), len(p.Crashes()))
		}
		// Determinism: resuming the same blob at the same J twice yields the
		// same per-shard queues.
		res2, err := ResumeParallel(mk(jobs), blob)
		if err != nil {
			t.Fatal(err)
		}
		for j := 0; j < jobs; j++ {
			q1, q2 := res.Shard(j).Queue(), res2.Shard(j).Queue()
			if len(q1) != len(q2) {
				t.Fatalf("re-shard not deterministic: shard %d queue %d vs %d", j, len(q1), len(q2))
			}
			for i := range q1 {
				if !bytes.Equal(q1[i].Input, q2[i].Input) {
					t.Fatalf("re-shard not deterministic: shard %d entry %d", j, i)
				}
			}
		}
		// The elastic fleet keeps fuzzing.
		res.RunExecs(res.Execs() + n/4)
		if res.Execs() < p.Execs()+n/4 {
			t.Fatalf("J=%d: elastic fleet did not continue: %d execs", jobs, res.Execs())
		}
	}
}

func TestParallelResumeErrorPaths(t *testing.T) {
	defer checkGoroutineLeak(t)()
	mk := func() ParallelConfig {
		var shards []ShardConfig
		for j := 0; j < 2; j++ {
			ex, cov := newLadder("MAGIC")
			shards = append(shards, ShardConfig{Executor: ex, CovMap: cov})
		}
		return ParallelConfig{
			Shards: shards, Seed: 42, Fingerprint: "ladder@test",
			Seeds: [][]byte{[]byte("xxxxxxxx")},
		}
	}
	p, err := NewParallelCampaign(mk())
	if err != nil {
		t.Fatal(err)
	}
	p.RunExecs(3000)
	blob, err := p.Checkpoint()
	if err != nil {
		t.Fatal(err)
	}

	// Version mismatch: a v1-era envelope is rejected, not misparsed.
	old := encodeParallelState(t, &parallelState{Version: 1, Jobs: 2, Shards: [][]byte{{1}, {2}}})
	if _, err := ResumeParallel(mk(), old); !errors.Is(err, ErrBadCheckpoint) {
		t.Fatalf("stale version accepted: %v", err)
	}
	// Internal topology inconsistency: Jobs disagrees with the blob count.
	torn := encodeParallelState(t, &parallelState{Version: parallelCheckpointVersion, Jobs: 3, Shards: [][]byte{{1}, {2}}})
	if _, err := ResumeParallel(mk(), torn); !errors.Is(err, ErrBadCheckpoint) {
		t.Fatalf("inconsistent topology accepted: %v", err)
	}
	// Wrong trial seed.
	wrongSeed := mk()
	wrongSeed.Seed = 43
	if _, err := ResumeParallel(wrongSeed, blob); !errors.Is(err, ErrBadCheckpoint) {
		t.Fatalf("wrong seed accepted: %v", err)
	}
	// Wrong fingerprint.
	wrongFP := mk()
	wrongFP.Fingerprint = "other@test"
	if _, err := ResumeParallel(wrongFP, blob); !errors.Is(err, ErrBadCheckpoint) {
		t.Fatalf("wrong fingerprint accepted: %v", err)
	}
	// Elastic resume of an envelope with no merged corpus (hand-built, as a
	// corrupted or pre-elastic writer would produce) must fail loudly.
	empty := encodeParallelState(t, &parallelState{
		Version: parallelCheckpointVersion, Jobs: 3, Seed: 42, Fingerprint: "ladder@test",
		Shards: [][]byte{{1}, {2}, {3}},
	})
	if _, err := ResumeParallel(mk(), empty); !errors.Is(err, ErrBadCheckpoint) {
		t.Fatalf("corpus-less elastic envelope accepted: %v", err)
	}
}

func encodeParallelState(t *testing.T, st *parallelState) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := gob.NewEncoder(&buf).Encode(st); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}
