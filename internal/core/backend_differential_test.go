package core

import (
	"bytes"
	"testing"

	"closurex/internal/faultinject"
	"closurex/internal/targets"
	"closurex/internal/vm"
	"closurex/internal/vm/compile"
)

// The compiled execution tier's campaign-level contract (DESIGN.md §13):
// swapping the VM backend under a fuzzing campaign must be invisible to
// every observable the fuzzer keys on. Same target, same trial seed, same
// exec count — the campaign on -backend=compiled must be bit-identical to
// the interpreter campaign: same coverage map bytes, same corpus inputs
// in the same order, same crash and hang buckets at the same fault sites.
// The VM-level differential matrix (internal/vm/compile) proves per-seed
// observable identity; this suite proves the property composes through
// the harness restore loop, the mutation schedule, and the triage path
// over whole campaigns, in every instrumentation mode the fuzzer ships.

const (
	backendDiffSeed  = 0xC0DE
	backendDiffExecs = 600
)

// backendMode is one instrumentation configuration of the matrix.
type backendMode struct {
	name string
	opts func() InstanceOptions
}

func backendModes() []backendMode {
	return []backendMode{
		{"plain", func() InstanceOptions {
			return InstanceOptions{}
		}},
		{"sanitize", func() InstanceOptions {
			return InstanceOptions{Sanitize: SanitizeElide}
		}},
		{"interproc", func() InstanceOptions {
			return InstanceOptions{Interproc: true}
		}},
		// Injected restore faults drive both campaigns through the same
		// degraded-restore handling; the injector is count-based, so the
		// two backends see the failure at the same iteration.
		{"restore-fault", func() InstanceOptions {
			inj := faultinject.New(backendDiffSeed)
			inj.FailAfter(faultinject.RestoreGlobals, 200, 1)
			return InstanceOptions{Injector: inj}
		}},
	}
}

func observeBackendCampaign(t *testing.T, tgt *targets.Target, backend string, mode backendMode) *campaignObs {
	t.Helper()
	opts := mode.opts()
	opts.TrialSeed = backendDiffSeed
	opts.DeterministicRand = true
	opts.Backend = backend
	inst, err := NewInstance(tgt, "closurex", opts)
	if err != nil {
		t.Fatalf("%s backend=%s mode=%s: %v", tgt.Name, backend, mode.name, err)
	}
	defer inst.Close()
	inst.Campaign.RunExecs(backendDiffExecs)
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

func diffBackendObs(t *testing.T, tgt *targets.Target, mode string, interp, compiled *campaignObs) {
	t.Helper()
	if interp.edges != compiled.edges {
		t.Errorf("%s/%s: edges interp=%d compiled=%d", tgt.Short, mode, interp.edges, compiled.edges)
	}
	if !bytes.Equal(interp.bitmap, compiled.bitmap) {
		n := 0
		for i := range interp.bitmap {
			if interp.bitmap[i] != compiled.bitmap[i] {
				n++
			}
		}
		t.Errorf("%s/%s: coverage bitmap diverges in %d cells", tgt.Short, mode, n)
	}
	if len(interp.queue) != len(compiled.queue) {
		t.Errorf("%s/%s: corpus size interp=%d compiled=%d", tgt.Short, mode, len(interp.queue), len(compiled.queue))
	} else {
		for i := range interp.queue {
			if !bytes.Equal(interp.queue[i], compiled.queue[i]) {
				t.Errorf("%s/%s: corpus entry %d differs", tgt.Short, mode, i)
				break
			}
		}
	}
	if got, want := compiled.crashes, interp.crashes; !equalKeys(got, want) {
		t.Errorf("%s/%s: crash buckets interp=%v compiled=%v", tgt.Short, mode, want, got)
	}
	if got, want := compiled.hangs, interp.hangs; !equalKeys(got, want) {
		t.Errorf("%s/%s: hang buckets interp=%v compiled=%v", tgt.Short, mode, want, got)
	}
}

// TestBackendDifferentialMatrix runs the full mode matrix over every
// registered target: a fixed-budget campaign per backend per mode, with
// every deterministic observable compared.
func TestBackendDifferentialMatrix(t *testing.T) {
	all := targets.All()
	if len(all) == 0 {
		t.Fatal("no registered targets")
	}
	for _, mode := range backendModes() {
		mode := mode
		t.Run(mode.name, func(t *testing.T) {
			for _, tgt := range all {
				tgt := tgt
				t.Run(tgt.Short, func(t *testing.T) {
					interp := observeBackendCampaign(t, tgt, vm.InterpBackend, mode)
					compiled := observeBackendCampaign(t, tgt, compile.BackendName, mode)
					diffBackendObs(t, tgt, mode.name, interp, compiled)
				})
			}
		})
	}
}

// TestCompiledCampaignDeterminism re-runs the same fixed-seed compiled
// campaign and requires bit-identical results — the compiled tier must
// not introduce schedule- or cache-dependent nondeterminism (the shared
// program cache and per-VM access caches are invisible to execution
// semantics).
func TestCompiledCampaignDeterminism(t *testing.T) {
	for _, tgt := range targets.All() {
		tgt := tgt
		t.Run(tgt.Short, func(t *testing.T) {
			mode := backendMode{"plain", func() InstanceOptions { return InstanceOptions{} }}
			a := observeBackendCampaign(t, tgt, compile.BackendName, mode)
			b := observeBackendCampaign(t, tgt, compile.BackendName, mode)
			diffBackendObs(t, tgt, "determinism", a, b)
		})
	}
}

// TestSentinelCrossBackend runs a campaign whose divergence sentinel
// replays every probe on the other backend: any semantic gap between the
// tiers would surface as a sentinel divergence during the run.
func TestSentinelCrossBackend(t *testing.T) {
	for _, backend := range []string{vm.InterpBackend, compile.BackendName} {
		backend := backend
		t.Run(backend, func(t *testing.T) {
			tgt := targets.Get("gpmf-parser")
			if tgt == nil {
				t.Fatal("gpmf-parser not registered")
			}
			inst, err := NewInstance(tgt, "closurex", InstanceOptions{
				TrialSeed:            backendDiffSeed,
				DeterministicRand:    true,
				Backend:              backend,
				SentinelEvery:        50,
				SentinelCrossBackend: true,
			})
			if err != nil {
				t.Fatal(err)
			}
			defer inst.Close()
			inst.Campaign.RunExecs(backendDiffExecs)
			if d := inst.Campaign.Divergences(); len(d) != 0 {
				t.Fatalf("cross-backend sentinel reported %d divergences: %+v", len(d), d[0])
			}
		})
	}
}
