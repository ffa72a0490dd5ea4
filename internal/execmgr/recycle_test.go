package execmgr_test

import (
	"bytes"
	"reflect"
	"testing"

	"closurex/internal/core"
	"closurex/internal/execmgr"
	"closurex/internal/targets"
	"closurex/internal/vm"
)

// TestRecycledForkServerMatchesFreshTemplate checks that recycling is
// invisible to a campaign. A forkserver child takes its frames, page
// tables, register frames and buffers from what earlier children gave
// back; for every target, with the sanitizer off and on, a ForkServer
// that has already run every seed and bug trigger must give the same
// Result and coverage map, input for input, as the first fork of a
// never-used template.
func TestRecycledForkServerMatchesFreshTemplate(t *testing.T) {
	for _, tg := range targets.All() {
		inputs := tg.Seeds()
		for _, b := range tg.Bugs {
			inputs = append(inputs, b.Trigger)
		}
		for _, sanitize := range []bool{false, true} {
			name := tg.Name
			cfg := core.BuildConfig{Variant: core.VariantFor("forkserver")}
			if sanitize {
				name += "/sanitize"
				cfg.Sanitize = core.SanitizeElide
			}
			t.Run(name, func(t *testing.T) {
				mod, err := core.BuildWith(tg.Short+".c", tg.Source, cfg)
				if err != nil {
					t.Fatal(err)
				}
				mcfg := func(cov []byte) execmgr.Config {
					return execmgr.Config{Module: mod, Options: vm.Options{CovMap: cov,
						ImagePages: tg.ImagePages, DeterministicRand: true, RandSeed: 5, Sanitize: sanitize}}
				}
				cov := vm.NewCovMap()
				used, err := execmgr.NewForkServer(mcfg(cov))
				if err != nil {
					t.Fatal(err)
				}
				defer used.Close()
				for _, in := range inputs {
					used.Execute(in)
				}
				for i, in := range inputs {
					freshCov := vm.NewCovMap()
					fresh, err := execmgr.NewForkServer(mcfg(freshCov))
					if err != nil {
						t.Fatal(err)
					}
					clear(cov)
					got, want := used.Execute(in), fresh.Execute(in)
					fresh.Close()
					if !reflect.DeepEqual(got, want) {
						t.Fatalf("input %d: recycled child %+v, fresh template %+v", i, got, want)
					}
					if !bytes.Equal(cov, freshCov) {
						t.Fatalf("input %d: coverage maps differ", i)
					}
				}
			})
		}
	}
}
