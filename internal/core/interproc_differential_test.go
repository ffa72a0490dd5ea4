package core

import (
	"bytes"
	"testing"

	"closurex/internal/execmgr"
	"closurex/internal/targets"
)

// The restore-elision contract (§ DESIGN.md 10): scoping the harness'
// snapshot/restore/watchdog work to the analysis-proven may-write ranges
// must be invisible to the fuzzer. Same target, same trial seed, same exec
// count — the campaign with Interproc on must be bit-identical to the one
// with it off: same coverage map bytes, same corpus, same crash and hang
// buckets. Any divergence means the analysis let a state leak through, and
// this suite names the target it happened on.

const (
	interprocDiffSeed  = 0xD1FF
	interprocDiffExecs = 1000
	// interprocAuditExecs covers several audit cycles at AuditEveryDefault.
	interprocAuditExecs = 280
)

// campaignObs is everything observable about a finished campaign that does
// not depend on wall-clock time (Entry.FoundAt does, so whole-checkpoint
// byte comparison would be flaky; the coverage map, corpus inputs and
// fault buckets are the deterministic core).
type campaignObs struct {
	edges   int
	bitmap  []byte
	queue   [][]byte
	crashes []string
	hangs   []string
}

func observeCampaign(t *testing.T, tgt *targets.Target, interproc bool) *campaignObs {
	t.Helper()
	// DeterministicRand masks the modeled process-level nondeterminism
	// (each VM normally draws a fresh rand()/heap-ASLR seed, §6.1.4 —
	// freetype's hint jitter makes it visible). The paper's correctness
	// study masks it the same way; without this the off/on instances
	// would differ for reasons unrelated to elision.
	return observeCampaignWith(t, tgt, InstanceOptions{
		TrialSeed:         interprocDiffSeed,
		Interproc:         interproc,
		DeterministicRand: true,
	}, interprocDiffExecs)
}

// observeCampaignWith runs a ClosureX campaign of execs executions under
// opts and collects its deterministic observables.
func observeCampaignWith(t *testing.T, tgt *targets.Target, opts InstanceOptions, execs int64) *campaignObs {
	t.Helper()
	inst, err := NewInstance(tgt, "closurex", opts)
	if err != nil {
		t.Fatalf("%s: %v", tgt.Name, err)
	}
	defer inst.Close()
	inst.Campaign.RunExecs(execs)
	return observeInstance(inst)
}

// observeInstance collects the deterministic observables of inst's
// finished campaign.
func observeInstance(inst *Instance) *campaignObs {
	obs := &campaignObs{
		edges:  inst.Campaign.Edges(),
		bitmap: inst.Campaign.BitmapSnapshot(),
	}
	for _, e := range inst.Campaign.Queue() {
		obs.queue = append(obs.queue, append([]byte(nil), e.Input...))
	}
	for _, c := range inst.Campaign.Crashes() {
		obs.crashes = append(obs.crashes, c.Key)
	}
	for _, h := range inst.Campaign.Hangs() {
		obs.hangs = append(obs.hangs, h.Key)
	}
	return obs
}

func TestInterprocDifferentialBitIdentical(t *testing.T) {
	all := targets.All()
	if len(all) == 0 {
		t.Fatal("no registered targets")
	}
	for _, tgt := range all {
		tgt := tgt
		t.Run(tgt.Short, func(t *testing.T) {
			off := observeCampaign(t, tgt, false)
			on := observeCampaign(t, tgt, true)
			if off.edges != on.edges {
				t.Errorf("edge counts diverge: off=%d on=%d", off.edges, on.edges)
			}
			if !bytes.Equal(off.bitmap, on.bitmap) {
				n := 0
				for i := range off.bitmap {
					if off.bitmap[i] != on.bitmap[i] {
						n++
					}
				}
				t.Errorf("coverage maps diverge in %d byte(s)", n)
			}
			if len(off.queue) != len(on.queue) {
				t.Fatalf("queue sizes diverge: off=%d on=%d", len(off.queue), len(on.queue))
			}
			for i := range off.queue {
				if !bytes.Equal(off.queue[i], on.queue[i]) {
					t.Fatalf("queue entry %d diverges", i)
				}
			}
			if !equalKeys(off.crashes, on.crashes) {
				t.Errorf("crash buckets diverge: off=%v on=%v", off.crashes, on.crashes)
			}
			if !equalKeys(off.hangs, on.hangs) {
				t.Errorf("hang buckets diverge: off=%v on=%v", off.hangs, on.hangs)
			}
		})
	}
}

func equalKeys(a, b []string) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// TestInterprocAuditAllTargets runs every target with elision armed AND
// the runtime audit re-checking the full closure section (plus the
// must-free/must-close censuses) every AuditEveryDefault iterations. A
// single audit failure means the scoped restore missed real drift — the
// strongest runtime refutation of the static proofs this repo can produce.
func TestInterprocAuditAllTargets(t *testing.T) {
	armed := 0
	for _, tgt := range targets.All() {
		tgt := tgt
		t.Run(tgt.Short, func(t *testing.T) {
			inst, err := NewInstance(tgt, "closurex", InstanceOptions{
				TrialSeed:    interprocDiffSeed,
				Interproc:    true,
				AuditRestore: true,
			})
			if err != nil {
				t.Fatal(err)
			}
			defer inst.Close()
			cx, ok := inst.Mech.(*execmgr.ClosureX)
			if !ok {
				t.Fatalf("mechanism %T is not *execmgr.ClosureX", inst.Mech)
			}
			h := cx.Harness()
			info := inst.Module.Interproc
			if info == nil {
				t.Fatal("InterprocPass left no module metadata")
			}
			// Elision arms exactly when the analysis bounded the write set
			// (whole-section targets legitimately keep the full restore and
			// their audit is then a trivially-passing cross-check).
			if h.ElisionActive() != !info.WholeSection {
				t.Fatalf("ElisionActive = %v with WholeSection = %v",
					h.ElisionActive(), info.WholeSection)
			}
			if h.ElisionActive() {
				armed++
				if h.ElisionRangeBytes() > h.GlobalSnapshotSize() {
					t.Error("may-write range exceeds the section snapshot")
				}
			}
			// Drive the harness directly: a campaign's crash respawns would
			// replace it (and zero the audit counters) mid-run.
			seeds := tgt.Seeds()
			if len(seeds) == 0 {
				t.Fatal("target has no seeds")
			}
			for i := 0; i < interprocAuditExecs; i++ {
				h.RunOne(seeds[i%len(seeds)])
			}
			st := h.Stats()
			if st.AuditRuns < 3 {
				t.Fatalf("only %d audit(s) ran over %d iterations", st.AuditRuns, interprocAuditExecs)
			}
			if st.AuditFailures != 0 {
				t.Errorf("%d audit failure(s): elided restore drifted", st.AuditFailures)
			}
			if st.ElidedLeaks != 0 || st.ElidedFDLeaks != 0 {
				t.Errorf("proof violations swept at runtime: %d heap, %d fd",
					st.ElidedLeaks, st.ElidedFDLeaks)
			}
		})
	}
	if armed == 0 {
		t.Error("no target armed elision — the audit suite is vacuous")
	}
}
