package fuzz

import (
	"bytes"
	"encoding/gob"
	"strings"
	"testing"
	"time"

	"closurex/internal/vm"
)

// resilienceExecutor is a deterministic scripted target: coverage follows
// the first byte, 'H' hangs (budget exhaustion at an arbitrary line), 0xee
// crashes.
type resilienceExecutor struct {
	cov []byte
}

func (r *resilienceExecutor) Execute(input []byte) vm.Result {
	var b byte
	if len(input) > 0 {
		b = input[0]
	}
	r.cov[int(b)]++
	switch b {
	case 'H':
		// The line the budget runs out on depends on the input — exactly
		// why hangs must not dedup on line.
		return vm.Result{Fault: &vm.Fault{Kind: vm.FaultTimeout, Fn: "mainloop", Line: int32(len(input))}}
	case 0xee:
		return vm.Result{Fault: &vm.Fault{Kind: vm.FaultNullDeref, Fn: "parse", Line: 42}}
	}
	return vm.Result{Ret: int64(b)}
}

func newResilienceCampaign(seeds [][]byte, seed uint64) (*Campaign, *resilienceExecutor) {
	cov := make([]byte, MapSize)
	ex := &resilienceExecutor{cov: cov}
	return NewCampaign(Config{Executor: ex, CovMap: cov, Seeds: seeds, Seed: seed}), ex
}

func TestHangsTriagedSeparatelyFromCrashes(t *testing.T) {
	c, _ := newResilienceCampaign([][]byte{
		{'H', 1}, {'H', 2, 3}, {0xee}, {'a'},
	}, 3)
	c.Step() // bootstrap executes the seeds

	hangs := c.Hangs()
	if len(hangs) != 1 {
		t.Fatalf("hangs = %d, want 1 (two hang inputs, one function)", len(hangs))
	}
	h := hangs[0]
	if h.Key != "hang@mainloop" {
		t.Fatalf("hang key = %q (the budget-exhaustion line must not appear)", h.Key)
	}
	if h.Count != 2 {
		t.Fatalf("hang count = %d, want 2", h.Count)
	}
	if c.HangByKey("hang@mainloop") != h {
		t.Fatal("HangByKey lookup failed")
	}

	crashes := c.Crashes()
	if len(crashes) != 1 || crashes[0].Kind != vm.FaultNullDeref {
		t.Fatalf("crashes = %+v, want exactly the null deref", crashes)
	}
	for _, cr := range crashes {
		if cr.Kind == vm.FaultTimeout {
			t.Fatal("a timeout leaked into the crash table")
		}
	}
}

func TestStopChannelHaltsRuns(t *testing.T) {
	stop := make(chan struct{})
	close(stop)
	cov := make([]byte, MapSize)
	ex := &resilienceExecutor{cov: cov}
	c := NewCampaign(Config{Executor: ex, CovMap: cov, Seeds: [][]byte{{'a'}}, Seed: 1, Stop: stop})

	start := time.Now()
	c.RunFor(time.Hour)
	if time.Since(start) > 10*time.Second {
		t.Fatal("RunFor ignored the stop channel")
	}
	execsAfterRunFor := c.Execs()
	if execsAfterRunFor == 0 {
		t.Fatal("RunFor did no work before honoring stop")
	}

	c.RunExecs(1 << 40)
	if c.Execs() >= 1<<40 {
		t.Fatal("unreachable")
	}
	// Both loops stop at the next coarse-check boundary, not instantly:
	// the stop poll runs every checkEvery steps.
	if got := c.Execs() - execsAfterRunFor; got > int64(2*checkEvery) {
		t.Fatalf("RunExecs overran the stop by %d execs", got)
	}
}

// The deterministic-resume acceptance test: a campaign checkpointed midway
// and resumed into a fresh Campaign must land on exactly the state of an
// uninterrupted run — queue, bitmap, crash and hang tables, RNG.
func TestCheckpointResumeBitIdentical(t *testing.T) {
	seeds := [][]byte{{'a', 'b'}, {'H'}, {0xee}}
	const mid, final = 4000, 11000

	a, _ := newResilienceCampaign(seeds, 77)
	a.RunExecs(final)

	b, _ := newResilienceCampaign(seeds, 77)
	b.RunExecs(mid)
	ckpt, err := b.Checkpoint()
	if err != nil {
		t.Fatal(err)
	}
	// The original process dies here; a new one resumes from the bytes.
	cov2 := make([]byte, MapSize)
	resumed, err := Resume(Config{
		Executor: &resilienceExecutor{cov: cov2},
		CovMap:   cov2,
		Seeds:    seeds,
		Seed:     77,
	}, ckpt)
	if err != nil {
		t.Fatal(err)
	}
	if resumed.Execs() != mid {
		t.Fatalf("resumed at %d execs, want %d", resumed.Execs(), mid)
	}
	resumed.RunExecs(final)

	if a.Execs() != resumed.Execs() {
		t.Fatalf("execs: %d vs %d", a.Execs(), resumed.Execs())
	}
	if a.Edges() != resumed.Edges() {
		t.Fatalf("edges: %d vs %d", a.Edges(), resumed.Edges())
	}
	if a.QueueLen() != resumed.QueueLen() {
		t.Fatalf("queue: %d vs %d", a.QueueLen(), resumed.QueueLen())
	}
	qa, qb := a.Queue(), resumed.Queue()
	for i := range qa {
		if !bytes.Equal(qa[i].Input, qb[i].Input) || qa[i].Gain != qb[i].Gain {
			t.Fatalf("queue entry %d differs: %q/%d vs %q/%d",
				i, qa[i].Input, qa[i].Gain, qb[i].Input, qb[i].Gain)
		}
	}
	ca, cb := a.Crashes(), resumed.Crashes()
	if len(ca) != len(cb) {
		t.Fatalf("crash tables: %d vs %d", len(ca), len(cb))
	}
	for i := range ca {
		if ca[i].Key != cb[i].Key || ca[i].Count != cb[i].Count || ca[i].FirstExec != cb[i].FirstExec {
			t.Fatalf("crash %d: %+v vs %+v", i, ca[i], cb[i])
		}
	}
	ha, hb := a.Hangs(), resumed.Hangs()
	if len(ha) != len(hb) {
		t.Fatalf("hang tables: %d vs %d", len(ha), len(hb))
	}
	for i := range ha {
		if ha[i].Key != hb[i].Key || ha[i].Count != hb[i].Count {
			t.Fatalf("hang %d: %+v vs %+v", i, ha[i], hb[i])
		}
	}
	if a.rng.State() != resumed.rng.State() {
		t.Fatal("RNG streams diverged")
	}
}

func TestCheckpointBeforeBootstrapFails(t *testing.T) {
	c, _ := newResilienceCampaign([][]byte{{'a'}}, 1)
	if _, err := c.Checkpoint(); err == nil {
		t.Fatal("checkpoint of an unstarted campaign accepted")
	}
}

func TestResumeRejectsBadCheckpoints(t *testing.T) {
	c, ex := newResilienceCampaign([][]byte{{'a'}}, 5)
	c.RunExecs(100)
	good, err := c.Checkpoint()
	if err != nil {
		t.Fatal(err)
	}
	cfg := Config{Executor: ex, CovMap: ex.cov, Seed: 5}

	if _, err := Resume(cfg, []byte("not a checkpoint")); err == nil {
		t.Fatal("garbage accepted")
	}
	wrongSeed := cfg
	wrongSeed.Seed = 6
	if _, err := Resume(wrongSeed, good); err == nil {
		t.Fatal("seed mismatch accepted")
	}
	wrongTarget := cfg
	wrongTarget.Fingerprint = "other-target@closurex"
	if _, err := Resume(wrongTarget, good); err == nil {
		t.Fatal("fingerprint mismatch accepted (bitmap grafted onto the wrong target)")
	}
	var stale bytes.Buffer
	if err := gob.NewEncoder(&stale).Encode(&checkpointState{Version: checkpointVersion + 1, Seed: 5}); err != nil {
		t.Fatal(err)
	}
	if _, err := Resume(cfg, stale.Bytes()); err == nil {
		t.Fatal("future version accepted")
	}
}

// divergentRef always disagrees with the primary on the return value, so
// every sentinel probe is a divergence.
type divergentRef struct{ cov []byte }

func (d *divergentRef) Execute(input []byte) vm.Result {
	var b byte
	if len(input) > 0 {
		b = input[0]
	}
	d.cov[int(b)]++
	return vm.Result{Ret: int64(b) + 1000}
}

// agreeingRef mirrors resilienceExecutor exactly.
type agreeingRef struct{ resilienceExecutor }

type fakeController struct {
	rebuilds, degrades int
	degraded           bool
	lastReason         string
}

func (f *fakeController) Rebuild(reason string) { f.rebuilds++; f.lastReason = reason }
func (f *fakeController) Degrade(reason string) {
	f.degrades++
	f.degraded = true
	f.lastReason = reason
}
func (f *fakeController) Degraded() bool { return f.degraded }

func TestSentinelRoutesDivergencesIntoLadder(t *testing.T) {
	cov := make([]byte, MapSize)
	refCov := make([]byte, MapSize)
	ctrl := &fakeController{}
	c := NewCampaign(Config{
		Executor: &resilienceExecutor{cov: cov},
		CovMap:   cov,
		Seeds:    [][]byte{{'a'}, {'b'}},
		Seed:     9,
		Sentinel: &SentinelConfig{
			Reference:  &divergentRef{cov: refCov},
			RefCovMap:  refCov,
			Every:      10,
			Controller: ctrl,
		},
	})
	c.RunExecs(600)

	divs := c.Divergences()
	if len(divs) < maxSentinelFailures+1 {
		t.Fatalf("divergences = %d, want the full ladder (>=%d)", len(divs), maxSentinelFailures+1)
	}
	for _, d := range divs {
		if !strings.Contains(d.Reason, "result") {
			t.Fatalf("divergence reason %q, want a result mismatch", d.Reason)
		}
	}
	// Ladder: failures 1 to 3 ask for rebuilds, failure 4 exceeds
	// maxSentinelFailures=3 and degrades; once degraded, no further
	// requests.
	if ctrl.rebuilds != maxSentinelFailures || ctrl.degrades != 1 {
		t.Fatalf("controller saw %d rebuilds, %d degrades; want %d, 1", ctrl.rebuilds, ctrl.degrades, maxSentinelFailures)
	}
	if len(c.Quarantined()) == 0 {
		t.Fatal("divergent entries were not quarantined")
	}
	if c.QueueLen() == 0 {
		t.Fatal("quarantine emptied the queue; mutation has no basis left")
	}
}

// Arming the sentinel must not perturb the campaign itself as long as the
// probes pass: probe replays bypass the bitmap and do not count as
// executions, so a clean campaign with the sentinel armed matches a twin
// without one. (Divergent probes DO perturb the queue — quarantine is the
// point — so this twin check uses an agreeing reference.)
func TestSentinelDoesNotPerturbCampaign(t *testing.T) {
	run := func(withSentinel bool) (*Campaign, int) {
		cov := make([]byte, MapSize)
		cfg := Config{
			Executor: &resilienceExecutor{cov: cov},
			CovMap:   cov,
			Seeds:    [][]byte{{'a', 'b', 'c'}},
			Seed:     123,
		}
		if withSentinel {
			refCov := make([]byte, MapSize)
			cfg.Sentinel = &SentinelConfig{
				Reference: &agreeingRef{resilienceExecutor{cov: refCov}},
				RefCovMap: refCov,
				Every:     7,
			}
		}
		c := NewCampaign(cfg)
		c.RunExecs(3000)
		return c, c.Edges()
	}
	plain, edgesPlain := run(false)
	armed, edgesArmed := run(true)
	if armed.sentCursor == 0 {
		t.Fatal("test premise broken: no sentinel probes ran")
	}
	if edgesPlain != edgesArmed || plain.Execs() != armed.Execs() {
		t.Fatalf("sentinel perturbed the campaign: edges %d vs %d, execs %d vs %d",
			edgesPlain, edgesArmed, plain.Execs(), armed.Execs())
	}
	if plain.rng.State() != armed.rng.State() {
		t.Fatal("sentinel perturbed the mutation stream")
	}
}

func TestSentinelQuietWhenExecutorsAgree(t *testing.T) {
	cov := make([]byte, MapSize)
	refCov := make([]byte, MapSize)
	c := NewCampaign(Config{
		Executor: &resilienceExecutor{cov: cov},
		CovMap:   cov,
		Seeds:    [][]byte{{'a'}},
		Seed:     4,
		Sentinel: &SentinelConfig{
			Reference: &agreeingRef{resilienceExecutor{cov: refCov}},
			RefCovMap: refCov,
			Every:     10,
		},
	})
	c.RunExecs(1000)
	if n := len(c.Divergences()); n != 0 {
		t.Fatalf("%d false-positive divergences: %+v", n, c.Divergences())
	}
	if len(c.Quarantined()) != 0 {
		t.Fatal("entries quarantined without divergence")
	}
}

func TestRNGStateRoundtrip(t *testing.T) {
	a := NewRNG(99)
	for i := 0; i < 37; i++ {
		a.Uint64()
	}
	b := NewRNG(1)
	b.SetState(a.State())
	for i := 0; i < 100; i++ {
		if a.Uint64() != b.Uint64() {
			t.Fatal("restored RNG diverged")
		}
	}
	// Zero state must not wedge the xorshift generator.
	z := NewRNG(1)
	z.SetState(0)
	if z.Uint64() == 0 && z.Uint64() == 0 {
		t.Fatal("zero state produced a dead generator")
	}
}

func TestBitmapSnapshotRoundtrip(t *testing.T) {
	b := NewBitmap()
	trace := make([]byte, MapSize)
	trace[7], trace[4096], trace[65535] = 1, 9, 200
	b.Update(trace)

	restored := NewBitmap()
	if err := restored.SetSnapshot(b.Snapshot()); err != nil {
		t.Fatal(err)
	}
	if restored.Edges() != b.Edges() {
		t.Fatalf("edges %d vs %d", restored.Edges(), b.Edges())
	}
	// The restored bitmap considers already-seen coverage old news.
	trace[7], trace[4096], trace[65535] = 1, 9, 200
	if gain := restored.Update(trace); gain != 0 {
		t.Fatalf("restored bitmap re-reported known coverage (gain %d)", gain)
	}
	trace[11] = 1
	if gain := restored.Update(trace); gain != 2 {
		t.Fatalf("restored bitmap missed a new edge (gain %d)", gain)
	}

	if err := NewBitmap().SetSnapshot([]byte{1, 2, 3}); err == nil {
		t.Fatal("short snapshot accepted")
	}
}
