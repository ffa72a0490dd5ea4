package fuzz

import (
	"strings"
	"testing"

	"closurex/internal/execmgr"
	"closurex/internal/ir"
	"closurex/internal/lower"
	"closurex/internal/passes"
	"closurex/internal/vm"
)

// Mechanism-level sentinel integration: the §6.1.4 correctness study as a
// runtime self-check. A deliberately polluted persistent mechanism
// (AFL++-style persistent mode with no state restoration) must be flagged;
// correct ClosureX restoration must not be.

// driftSrc accumulates global state across iterations, so a replay in a
// polluted persistent process returns a different value than in a fresh one.
const driftSrc = `
int runs;
int main(void) {
	runs++;
	int f = fopen("/input", "r");
	if (!f) abort();
	int c = fgetc(f);
	if (c < 0) c = 0;
	fclose(f);
	if (c > 'm') return 1000 * runs + 1;
	return 1000 * runs + c;
}
`

func buildDriftModule(t *testing.T, closureX bool) *ir.Module {
	t.Helper()
	m, err := lower.Compile("drift.c", driftSrc, vm.Builtins())
	if err != nil {
		t.Fatal(err)
	}
	pm := passes.NewManager(vm.Builtins())
	if closureX {
		pm.Add(passes.ClosureXPipeline(false)...)
		pm.Add(passes.NewCoveragePass(1))
	} else {
		pm.Add(passes.RenameMainPass{}, passes.NewCoveragePass(1))
	}
	if err := pm.Run(m); err != nil {
		t.Fatal(err)
	}
	return m
}

func runSentinelCampaign(t *testing.T, mechName string) *Campaign {
	t.Helper()
	m := buildDriftModule(t, mechName == "closurex")
	cov := make([]byte, MapSize)
	mech, err := execmgr.New(mechName, execmgr.Config{Module: m, Options: vm.Options{CovMap: cov}})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(mech.Close)
	refCov := make([]byte, MapSize)
	ref, err := execmgr.NewFresh(execmgr.Config{Module: m, Options: vm.Options{CovMap: refCov}})
	if err != nil {
		t.Fatal(err)
	}
	c := NewCampaign(Config{
		Executor: mech,
		CovMap:   cov,
		Seeds:    [][]byte{[]byte("a")},
		Seed:     7,
		Sentinel: &SentinelConfig{Reference: ref, RefCovMap: refCov, Every: 25},
	})
	c.RunExecs(500)
	return c
}

func TestSentinelFlagsPollutedPersistentNaive(t *testing.T) {
	c := runSentinelCampaign(t, "persistent-naive")
	divs := c.Divergences()
	if len(divs) == 0 {
		t.Fatal("sentinel missed the stale-global pollution of persistent-naive")
	}
	// The drift manifests as a result mismatch: runs accumulates in the
	// persistent child, stays 1 in every fresh reference process.
	if !strings.Contains(divs[0].Reason, "result") {
		t.Fatalf("divergence reason = %q, want a result mismatch", divs[0].Reason)
	}
}

func TestSentinelCleanOnClosureX(t *testing.T) {
	c := runSentinelCampaign(t, "closurex")
	if n := len(c.Divergences()); n != 0 {
		t.Fatalf("%d false-positive divergences on correct restoration: %+v", n, c.Divergences())
	}
	if len(c.Quarantined()) != 0 {
		t.Fatal("clean run quarantined entries")
	}
	if c.Edges() == 0 || c.QueueLen() == 0 {
		t.Fatalf("campaign made no progress: edges=%d queue=%d", c.Edges(), c.QueueLen())
	}
}
