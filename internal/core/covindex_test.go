package core

import (
	"sync/atomic"
	"testing"
	"time"

	"closurex/internal/execmgr"
	"closurex/internal/faultinject"
	"closurex/internal/fuzz"
	"closurex/internal/targets"
	"closurex/internal/vm"
)

// covIndexChecked wraps a mechanism and checks the coverage map's
// touched-cell index after every Execute: unless the index overflowed,
// each non-zero cell of cov must be listed. It reports through t.Errorf,
// which is safe from shard goroutines, and counts the executions it
// checked; an execution whose index overflowed is not counted.
type covIndexChecked struct {
	execmgr.Mechanism
	t       *testing.T
	cov     []byte
	checked *atomic.Int64
}

func (c *covIndexChecked) Execute(input []byte) vm.Result {
	res := c.Mechanism.Execute(input)
	idx := vm.CovIndexOf(c.cov)
	if idx == nil {
		c.t.Errorf("%s: coverage map has no touched-cell index", c.Name())
		return res
	}
	if idx.Overflowed() {
		return res
	}
	listed := make(map[int]bool, idx.Len())
	for k := 0; k < idx.Len(); k++ {
		listed[idx.Cell(k)] = true
	}
	for i, v := range c.cov {
		if v != 0 && !listed[i] {
			c.t.Errorf("%s: cell %d is non-zero but unlisted", c.Name(), i)
			break
		}
	}
	c.checked.Add(1)
	return res
}

// TestCovIndexInvariantMechanisms runs a campaign over each mechanism's
// instance map with the index checked after every execution. The resilient
// run restores nothing after its first executions, so it climbs its whole
// ladder: image rebuilds, then the forkserver fallback.
func TestCovIndexInvariantMechanisms(t *testing.T) {
	tg := targets.Get("giftext")
	for _, mech := range []string{"closurex", "forkserver", "fresh", "resilient"} {
		t.Run(mech, func(t *testing.T) {
			opts := InstanceOptions{TrialSeed: 1}
			name := mech
			if mech == "resilient" {
				name = "closurex"
				rc := execmgr.ResilienceConfig{WatchdogEvery: 16, MaxRebuilds: 2}
				opts.Resilience = &rc
				opts.Injector = faultinject.New(1)
				opts.Injector.FailAfter(faultinject.RestoreGlobals, 50, -1)
			}
			in, err := NewInstance(noImage(tg), name, opts)
			if err != nil {
				t.Fatal(err)
			}
			defer in.Close()
			var checked atomic.Int64
			camp := fuzz.NewCampaign(fuzz.Config{
				Executor: &covIndexChecked{Mechanism: in.Mech, t: t, cov: in.CovMap, checked: &checked},
				CovMap:   in.CovMap, Seeds: tg.Seeds(), Seed: 1,
			})
			camp.RunExecs(500)
			if checked.Load() < 500 || camp.Edges() == 0 {
				t.Fatalf("checked %d executions, %d edges", checked.Load(), camp.Edges())
			}
			if r, ok := in.Mech.(*execmgr.Resilient); ok && (r.Rebuilds() == 0 || !r.Degraded()) {
				t.Fatalf("resilient ladder not climbed: %d rebuilds, degraded %v", r.Rebuilds(), r.Degraded())
			}
		})
	}
}

// TestCovIndexInvariantShardRebuild runs a J=2 instance whose shard 1
// faults until the supervisor rebuilds its mechanism in place, checking
// the index after every execution on the same two maps before and after
// the rebuild.
func TestCovIndexInvariantShardRebuild(t *testing.T) {
	tg := targets.Get("giftext")
	mod, err := BuildWith(tg.Short+".c", tg.Source, BuildConfig{Variant: ClosureX})
	if err != nil {
		t.Fatal(err)
	}
	var checked, built atomic.Int64
	newMech := func(cov []byte, randSeed uint64) (execmgr.Mechanism, error) {
		m, err := execmgr.New("closurex", execmgr.Config{Module: mod, Options: vm.Options{CovMap: cov, RandSeed: randSeed}})
		if err != nil {
			return nil, err
		}
		built.Add(1)
		return &covIndexChecked{Mechanism: m, t: t, cov: cov, checked: &checked}, nil
	}
	inj := faultinject.New(1)
	inj.FailAfter(faultinject.ForShard(faultinject.ShardRestore, 1), 500, 4)
	opts := InstanceOptions{TrialSeed: 1, Jobs: 2, Injector: inj, MaxShardRestarts: 3, ShardBackoff: time.Millisecond}
	in, err := newParallelInstance(tg, mod, opts, newMech, nil, nil, "giftext@closurex")
	if err != nil {
		t.Fatal(err)
	}
	defer in.Close()
	in.Parallel.RunExecs(4000)
	// Shard 0 may spend the budget while shard 1 sits in a restart
	// backoff: run slices until shard 1 has executed past its rebuild
	// (a sync boundary with progress closes its fault streak).
	for i := 0; i < 100; i++ {
		if h := in.Parallel.Health()[1]; h.Rebuilds > 0 && h.ConsecutiveFaults == 0 {
			break
		}
		in.Parallel.RunFor(time.Millisecond)
	}
	if h := in.Parallel.Health(); h[1].Rebuilds != 1 || h[1].ConsecutiveFaults != 0 {
		t.Fatalf("shard 1 was not rebuilt exactly once and run past it: %+v", h[1])
	}
	if built.Load() != 2 || checked.Load() < 4000 {
		t.Fatalf("built %d mechanisms, checked %d executions", built.Load(), checked.Load())
	}
}
