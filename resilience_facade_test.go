package closurex

import (
	"testing"
	"time"

	"closurex/internal/core"
	"closurex/internal/faultinject"
	"closurex/internal/fuzz"
	"closurex/internal/targets"
)

// Facade-level resilience coverage: checkpoint/resume round-trips through
// the public API, the resilience ladder and sentinel are reachable through
// Options, and a resumed campaign matches an uninterrupted one.

func TestFuzzerCheckpointResumeMatchesUninterrupted(t *testing.T) {
	seeds := [][]byte{[]byte("B?"), []byte("B!")} // second seed crashes at bootstrap
	opts := Options{Seed: 11, MaxInputLen: 8, DeterministicRand: true}

	uninterrupted, err := NewFuzzer(demoSource, seeds, opts)
	if err != nil {
		t.Fatal(err)
	}
	defer uninterrupted.Close()
	uninterrupted.RunExecs(8000)

	killed, err := NewFuzzer(demoSource, seeds, opts)
	if err != nil {
		t.Fatal(err)
	}
	killed.RunExecs(3000)
	ckpt, err := killed.Checkpoint()
	if err != nil {
		t.Fatal(err)
	}
	killed.Close() // the "killed" process is gone; only the bytes survive

	ropts := opts
	ropts.ResumeFrom = ckpt
	resumed, err := NewFuzzer(demoSource, seeds, ropts)
	if err != nil {
		t.Fatal(err)
	}
	defer resumed.Close()
	if got := resumed.Stats().Execs; got != 3000 {
		t.Fatalf("resumed at %d execs, want 3000", got)
	}
	resumed.RunExecs(8000)

	a, b := uninterrupted.Stats(), resumed.Stats()
	if a.Execs != b.Execs || a.Edges != b.Edges || a.QueueLen != b.QueueLen {
		t.Fatalf("resumed run diverged: execs %d/%d edges %d/%d queue %d/%d",
			a.Execs, b.Execs, a.Edges, b.Edges, a.QueueLen, b.QueueLen)
	}
	if len(a.Crashes) == 0 {
		t.Fatal("test premise broken: the crashing seed produced no crash")
	}
	if len(a.Crashes) != len(b.Crashes) {
		t.Fatalf("crash tables: %d vs %d", len(a.Crashes), len(b.Crashes))
	}
	for i := range a.Crashes {
		if a.Crashes[i].Key != b.Crashes[i].Key || a.Crashes[i].Count != b.Crashes[i].Count {
			t.Fatalf("crash %d: %+v vs %+v", i, a.Crashes[i], b.Crashes[i])
		}
	}
}

func TestResumeRejectsMismatchedSeed(t *testing.T) {
	f, err := NewFuzzer(demoSource, [][]byte{[]byte("ab")}, Options{Seed: 1, DeterministicRand: true})
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	f.RunExecs(200)
	ckpt, err := f.Checkpoint()
	if err != nil {
		t.Fatal(err)
	}
	if _, err := NewFuzzer(demoSource, [][]byte{[]byte("ab")}, Options{Seed: 2, ResumeFrom: ckpt}); err == nil {
		t.Fatal("resume with a different seed accepted")
	}
}

func TestResilientOptionWrapsClosureX(t *testing.T) {
	f, err := NewFuzzer(demoSource, [][]byte{[]byte("ab")}, Options{Seed: 5, Resilient: true})
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	if f.Mechanism() != "closurex-resilient" {
		t.Fatalf("Mechanism = %q", f.Mechanism())
	}
	f.RunExecs(2000)
	st := f.Stats()
	if st.Degraded {
		t.Fatal("healthy target degraded the mechanism")
	}
	if st.Execs < 2000 || st.Edges == 0 {
		t.Fatalf("stats: %+v", st)
	}
}

// driftSource makes the stale global observable: without restoration the
// return value climbs with every iteration of the persistent child.
const driftSource = `
int runs;
int main(void) {
	runs++;
	int f = fopen("/input", "r");
	if (!f) abort();
	int a = fgetc(f);
	fclose(f);
	return 100 * runs + a;
}
`

func TestSentinelOptionFlagsNaivePersistence(t *testing.T) {
	f, err := NewFuzzer(driftSource, [][]byte{[]byte("ab")}, Options{
		Mechanism:     "persistent-naive",
		Seed:          6,
		SentinelEvery: 25,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	f.RunExecs(600)
	if st := f.Stats(); st.Divergences == 0 {
		t.Fatalf("sentinel missed persistent-naive's state pollution: %+v", st)
	}
}

func TestSentinelOptionQuietOnClosureX(t *testing.T) {
	f, err := NewFuzzer(demoSource, [][]byte{[]byte("ab")}, Options{
		Seed:          6,
		SentinelEvery: 25,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	f.RunExecs(600)
	if st := f.Stats(); st.Divergences != 0 {
		t.Fatalf("false-positive divergences on closurex: %+v", st)
	}
}

// TestShardRebuildKeepsFuzzerLive drives shard 0 of a J=2 campaign up the
// supervisor's ladder to its rebuild step. The rebuild happens inside the
// shard's own mechanism, so the instance's shard-0 mechanism and coverage
// map stay the live ones: single-input replays (Fuzzer.TryOne, the
// minimizers) keep working, and Stats().Spawns counts the rebuild's
// respawn next to the initial images and every crash respawn.
func TestShardRebuildKeepsFuzzerLive(t *testing.T) {
	tg := *targets.Get("giftext")
	tg.ImagePages = 0
	inj := faultinject.New(1)
	inj.FailAfter(faultinject.ForShard(faultinject.ShardRestore, 0), 500, 4)
	in, err := core.NewInstance(&tg, "closurex", core.InstanceOptions{
		TrialSeed: 1, Jobs: 2, Injector: inj, MaxShardRestarts: 3, ShardBackoff: time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	f := &Fuzzer{inst: in}
	defer f.Close()
	in.Parallel.RunExecs(4000)
	// Shard 1 may spend the budget while shard 0 sits in a restart
	// backoff: run slices until shard 0 has reached its rebuild.
	for i := 0; i < 100 && in.Parallel.Health()[0].Rebuilds == 0; i++ {
		in.Parallel.RunFor(time.Millisecond)
	}
	if h := in.Parallel.Health()[0]; h.Rebuilds != 1 || h.Quarantined {
		t.Fatalf("shard 0 was not rebuilt exactly once: %+v", h)
	}
	if in.Mech != in.Mechs[0] {
		t.Fatal("the instance's mechanism is no longer shard 0's")
	}

	st := f.Stats()
	var faults int64
	for _, c := range st.Crashes {
		faults += c.Count
	}
	for _, h := range st.Hangs {
		faults += h.Count
	}
	if want := int64(in.Jobs()) + faults + 1; st.Spawns != want {
		t.Fatalf("spawns = %d, want %d (%d first images + %d crash respawns + 1 rebuild)",
			st.Spawns, want, in.Jobs(), faults)
	}

	seed := tg.Seeds()[0]
	if res := in.Mech.Execute(seed); res.Crashed() {
		t.Fatalf("seed crashed after the rebuild: %v", res.Fault)
	}
	fuzz.ClearTrace(in.CovMap)
	if crashed, key := f.TryOne(seed); crashed {
		t.Fatalf("TryOne(seed) crashed after the rebuild: %s", key)
	}
}
