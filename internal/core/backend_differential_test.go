package core

import (
	"bytes"
	"testing"

	"closurex/internal/targets"
)

// The persistent-versus-fresh contract, at campaign scale: every execution
// a ClosureX campaign makes on its persistent image must agree with the same
// execution in a brand-new process image. Each case of the matrix runs a
// fixed-seed campaign with the divergence sentinel replaying a queue entry
// every sentinelDiffEvery executions on both the persistent image and a
// fresh reference image, and requires that no probe diverged — same fault
// verdict, same edge set. The campaign then runs again and must be
// bit-identical: same coverage map bytes, same corpus inputs in the same
// order, same crash and hang buckets. (It is not compared with a campaign
// run without the sentinel: a probe replay on the persistent image draws
// from its rand() stream, which ClosureX does not restore, so ttflite's
// later executions legitimately differ.) The golden suite pins what the
// interpreter computes; this suite proves the persistent image agrees with
// a fresh one while it does, in every instrumentation mode the fuzzer ships.

const sentinelDiffEvery = 10

func diffCampaignObs(t *testing.T, tgt *targets.Target, mode string, a, b *campaignObs) {
	t.Helper()
	if a.edges != b.edges {
		t.Errorf("%s/%s: edges first=%d second=%d", tgt.Short, mode, a.edges, b.edges)
	}
	if !bytes.Equal(a.bitmap, b.bitmap) {
		n := 0
		for i := range a.bitmap {
			if a.bitmap[i] != b.bitmap[i] {
				n++
			}
		}
		t.Errorf("%s/%s: coverage bitmap diverges in %d cells", tgt.Short, mode, n)
	}
	if len(a.queue) != len(b.queue) {
		t.Errorf("%s/%s: corpus size first=%d second=%d", tgt.Short, mode, len(a.queue), len(b.queue))
	} else {
		for i := range a.queue {
			if !bytes.Equal(a.queue[i], b.queue[i]) {
				t.Errorf("%s/%s: corpus entry %d differs", tgt.Short, mode, i)
				break
			}
		}
	}
	if !equalKeys(a.crashes, b.crashes) {
		t.Errorf("%s/%s: crash buckets first=%v second=%v", tgt.Short, mode, a.crashes, b.crashes)
	}
	if !equalKeys(a.hangs, b.hangs) {
		t.Errorf("%s/%s: hang buckets first=%v second=%v", tgt.Short, mode, a.hangs, b.hangs)
	}
}

// observeProbedCampaign runs the fixed-seed campaign of mode on tgt with
// the sentinel armed, fails the test on any divergence or when no probe
// compared a non-empty edge set (a vacuous check), and returns the
// campaign's observables.
func observeProbedCampaign(t *testing.T, tgt *targets.Target, mode campaignMode) *campaignObs {
	t.Helper()
	opts := mode.opts()
	opts.TrialSeed = goldenSeed
	opts.DeterministicRand = true
	opts.SentinelEvery = sentinelDiffEvery
	inst, err := NewInstance(tgt, "closurex", opts)
	if err != nil {
		t.Fatalf("%s: %v", tgt.Name, err)
	}
	defer inst.Close()
	inst.Campaign.RunExecs(goldenExecs)
	d := inst.Campaign.Divergences()
	if len(d) != 0 {
		t.Fatalf("%s/%s: sentinel reported %d divergences; first: %+v", tgt.Short, mode.name, len(d), d[0])
	}
	if inst.Campaign.EdgeSetProbes() == 0 {
		t.Fatalf("%s/%s: no sentinel probe compared a non-empty edge set", tgt.Short, mode.name)
	}
	return observeInstance(inst)
}

// TestBackendDifferentialMatrix runs the full mode matrix over every
// registered target: a fixed-budget campaign per mode, checked against a
// fresh image by the sentinel and run twice, with every deterministic
// observable compared.
func TestBackendDifferentialMatrix(t *testing.T) {
	all := targets.All()
	if len(all) == 0 {
		t.Fatal("no registered targets")
	}
	for _, mode := range campaignModes() {
		t.Run(mode.name, func(t *testing.T) {
			for _, tgt := range all {
				t.Run(tgt.Short, func(t *testing.T) {
					first := observeProbedCampaign(t, tgt, mode)
					second := observeProbedCampaign(t, tgt, mode)
					diffCampaignObs(t, tgt, mode.name, first, second)
				})
			}
		})
	}
}
