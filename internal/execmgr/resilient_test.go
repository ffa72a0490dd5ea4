package execmgr

import (
	"strings"
	"testing"

	"closurex/internal/faultinject"
	"closurex/internal/fuzz"
	"closurex/internal/vm"
)

func newResilient(t *testing.T, inj *faultinject.Injector, rcfg ResilienceConfig, cov []byte) *Resilient {
	t.Helper()
	m := buildModule(t, statefulSrc, true)
	r, err := NewResilient(Config{Module: m, Options: vm.Options{CovMap: cov, Injector: inj}}, rcfg)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(r.Close)
	return r
}

func TestRestoreFailureQuarantinesAndRebuilds(t *testing.T) {
	inj := faultinject.New(7)
	r := newResilient(t, inj, ResilienceConfig{WatchdogEvery: 4, MaxRebuilds: 3}, nil)

	if res := r.Execute([]byte("a")); res.Fault != nil || res.Ret != 100+'a' {
		t.Fatalf("clean exec: %+v", res)
	}
	if len(r.Events()) != 0 {
		t.Fatalf("events on a healthy run: %v", r.Events())
	}

	// One injected restore failure: the iteration's result stands, the
	// input is quarantined, the image is rebuilt.
	inj.FailAfter(faultinject.RestoreGlobals, 0, 1)
	if res := r.Execute([]byte("b")); res.Fault != nil || res.Ret != 100+'b' {
		t.Fatalf("failing exec's own result corrupted: %+v", res)
	}
	if r.Rebuilds() != 1 {
		t.Fatalf("Rebuilds = %d, want 1", r.Rebuilds())
	}
	q := r.Quarantined()
	if len(q) != 1 || string(q[0]) != "b" {
		t.Fatalf("Quarantined = %q, want [b]", q)
	}
	if r.Degraded() {
		t.Fatalf("degraded after a single failure: %s", r.DegradedReason())
	}

	// The rebuilt image serves clean, isolated executions again.
	for i := 0; i < 5; i++ {
		if res := r.Execute([]byte("a")); res.Fault != nil || res.Ret != 100+'a' {
			t.Fatalf("post-rebuild exec %d: %+v", i, res)
		}
	}
	kinds := []string{}
	for _, e := range r.Events() {
		kinds = append(kinds, e.Kind)
	}
	if strings.Join(kinds, ",") != "restore-failure,rebuild" {
		t.Fatalf("event log = %v", kinds)
	}
}

func TestWatchdogPassResetsFailureStreak(t *testing.T) {
	inj := faultinject.New(8)
	r := newResilient(t, inj, ResilienceConfig{WatchdogEvery: 1, MaxRebuilds: 2, BackoffBase: 1}, nil)

	// Three isolated failures separated by clean watchdog passes. Were the
	// streak not reset by a passing Verify, the third failure would push
	// consecFail past MaxRebuilds=2 and degrade the mechanism.
	for cycle := 0; cycle < 3; cycle++ {
		inj.FailAfter(faultinject.RestoreGlobals, 0, 1)
		r.Execute([]byte("b"))
		for i := 0; i < 4; i++ { // drain cooldown, let the watchdog pass
			if res := r.Execute([]byte("a")); res.Fault != nil || res.Ret != 100+'a' {
				t.Fatalf("cycle %d clean exec %d: %+v", cycle, i, res)
			}
		}
	}
	if r.Rebuilds() != 3 {
		t.Fatalf("Rebuilds = %d, want 3", r.Rebuilds())
	}
	if r.Degraded() {
		t.Fatalf("isolated failures degraded the mechanism: %s", r.DegradedReason())
	}
}

func TestPersistentFailureDegradesToForkServer(t *testing.T) {
	inj := faultinject.New(9)
	cov := make([]byte, 1<<16)
	r := newResilient(t, inj, ResilienceConfig{WatchdogEvery: 4, MaxRebuilds: 2, BackoffBase: 1}, cov)

	// Every restore fails from here on: rebuild, rebuild, then fall back.
	inj.FailAfter(faultinject.RestoreGlobals, 0, -1)
	for i := 0; i < 3; i++ {
		r.Execute([]byte{byte('a' + i)})
	}
	if !r.Degraded() {
		t.Fatalf("not degraded after MaxRebuilds+1 consecutive failures; events: %v", r.Events())
	}
	if r.Name() != "closurex-resilient(forkserver)" {
		t.Fatalf("Name = %q", r.Name())
	}
	if r.Rebuilds() != 2 {
		t.Fatalf("Rebuilds = %d, want MaxRebuilds=2", r.Rebuilds())
	}
	if !strings.Contains(r.DegradedReason(), "consecutive") {
		t.Fatalf("DegradedReason = %q", r.DegradedReason())
	}
	if len(r.Quarantined()) != 3 {
		t.Fatalf("Quarantined %d inputs, want 3", len(r.Quarantined()))
	}

	// The campaign continues on the fallback: correct isolation (runs==1
	// each time), coverage still flowing into the same map.
	for i := range cov {
		cov[i] = 0
	}
	for i := 0; i < 10; i++ {
		if res := r.Execute([]byte("a")); res.Fault != nil || res.Ret != 100+'a' {
			t.Fatalf("degraded exec %d: %+v", i, res)
		}
	}
	covered := 0
	for _, b := range cov {
		if b != 0 {
			covered++
		}
	}
	if covered == 0 {
		t.Fatal("fallback executions produce no coverage")
	}
	if r.Execs() != 13 {
		t.Fatalf("Execs = %d, want 13", r.Execs())
	}
}

func TestResilientAvailableByName(t *testing.T) {
	m := buildModule(t, statefulSrc, true)
	mech, err := New("closurex-resilient", Config{Module: m})
	if err != nil {
		t.Fatal(err)
	}
	defer mech.Close()
	if res := mech.Execute([]byte("a")); res.Fault != nil || res.Ret != 100+'a' {
		t.Fatalf("exec: %+v", res)
	}
}

func TestCrashDoesNotTripTheLadder(t *testing.T) {
	r := newResilient(t, nil, ResilienceConfig{WatchdogEvery: 1, MaxRebuilds: 1}, nil)
	for i := 0; i < 5; i++ {
		res := r.Execute([]byte("C")) // planted null deref
		if res.Fault == nil {
			t.Fatalf("exec %d: crash input did not crash", i)
		}
	}
	// Crashes are normal fuzzing outcomes: ClosureX respawns internally but
	// the resilience ladder must not count them as restore failures.
	if r.Rebuilds() != 0 || r.Degraded() || len(r.Quarantined()) != 0 {
		t.Fatalf("ladder engaged on crashes: rebuilds=%d degraded=%v quarantined=%d",
			r.Rebuilds(), r.Degraded(), len(r.Quarantined()))
	}
	if res := r.Execute([]byte("a")); res.Fault != nil || res.Ret != 100+'a' {
		t.Fatalf("post-crash exec: %+v", res)
	}
}

// Campaign-level degradation: with restores permanently failing, the
// campaign crosses the fallback transition mid-run and keeps fuzzing —
// coverage stays monotone because both sides share one coverage map.
func TestCampaignSurvivesDegradation(t *testing.T) {
	inj := faultinject.New(10)
	cov := make([]byte, fuzz.MapSize)
	r := newResilient(t, inj, ResilienceConfig{WatchdogEvery: 4, MaxRebuilds: 2, BackoffBase: 1}, cov)
	inj.FailAfter(faultinject.RestoreGlobals, 0, -1)

	camp := fuzz.NewCampaign(fuzz.Config{
		Executor: r,
		CovMap:   cov,
		Seeds:    [][]byte{[]byte("a"), []byte("zz")},
		Seed:     42,
	})
	prevEdges := 0
	for batch := 0; batch < 6; batch++ {
		camp.RunExecs(int64((batch + 1) * 50))
		if e := camp.Edges(); e < prevEdges {
			t.Fatalf("batch %d: coverage regressed %d -> %d", batch, prevEdges, e)
		} else {
			prevEdges = e
		}
	}
	if !r.Degraded() {
		t.Fatal("permanent restore failure never degraded the mechanism")
	}
	if camp.Execs() < 300 {
		t.Fatalf("campaign stalled at %d execs", camp.Execs())
	}
	if camp.Edges() == 0 {
		t.Fatal("no coverage accumulated")
	}
	if camp.QueueLen() == 0 {
		t.Fatal("queue empty")
	}
}
