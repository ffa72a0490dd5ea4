package synth

// Certification: a synthesized harness earns registration only by
// round-tripping the exact build hand-written harnesses go through —
// core.Compile, then core.Instrument with the ClosureX variant, then
// verifier + lint — plus two synth-specific obligations: the structural
// shape (closurex_init and target_main present) and an in-bounds proof
// from the sanitize interval domain for every memory access the emitter
// generated. Any failure is CLX130: by construction these are synthesizer
// bugs, never target properties, so the code is an error and trips every
// gate.

import (
	"fmt"

	"closurex/internal/analysis"
	"closurex/internal/analysis/sanitize"
	"closurex/internal/core"
	"closurex/internal/ir"
)

// certify builds and checks a synthesized source. It returns the
// instrumented module on success, and CLX130 diagnostics for every
// certification failure (module nil when the build itself failed).
func certify(target, file, src string) (*ir.Module, analysis.Diagnostics) {
	var ds analysis.Diagnostics
	fail := func(fn, msg string) {
		ds = append(ds, analysis.Diagnostic{
			ID: analysis.IDSynthCertFail, File: file, Sev: analysis.SevError,
			Pass: synthPass, Func: fn, Block: -1, Instr: -1,
			Msg: fmt.Sprintf("synthesized harness for %s failed certification: %s", target, msg),
		})
	}

	pristine, err := core.Compile(file, src)
	if err != nil {
		fail("", fmt.Sprintf("build: %v", err))
		return nil, ds
	}

	// In-bounds proof on the pristine module: every load/store the
	// emitter generated (main + closurex_init) must be provable by the
	// sanitize interval domain. The original target's own functions are
	// exempt — their accesses are the target's business, guarded at
	// runtime by the sanitizer like any hand-written harness.
	for _, fn := range []string{"main", analysis.InitFunc} {
		f := pristine.Func(fn)
		if f == nil {
			fail(fn, fmt.Sprintf("emitted program lacks %s", fn))
			continue
		}
		provable := sanitize.Analyze(pristine, f)
		for bi, b := range f.Blocks {
			for ii := range b.Instrs {
				in := &b.Instrs[ii]
				if in.Op != ir.OpLoad && in.Op != ir.OpStore {
					continue
				}
				if !provable[sanitize.Access{Block: bi, Instr: ii}] {
					fail(fn, fmt.Sprintf("%s b%d i%d: emitted %v not provably in-bounds by the sanitize interval domain", fn, bi, ii, in.Op))
				}
			}
		}
	}
	if ds.HasErrors() {
		return nil, ds
	}

	mod, err := core.Instrument(pristine, core.ClosureX)
	if err != nil {
		fail("", fmt.Sprintf("pipeline: %v", err))
		return nil, ds
	}

	for _, fn := range []string{analysis.TargetMain, analysis.InitFunc} {
		if mod.Func(fn) == nil {
			fail(fn, "instrumented module lacks "+fn)
		}
	}

	// The same verifier + lint catalog hand-written harnesses pass.
	vds := core.VerifyModule(mod)
	if !vds.HasErrors() {
		vds = append(vds, analysis.Lint(mod)...)
	}
	for _, d := range vds {
		fail(d.Func, fmt.Sprintf("%s (%s): %s", d.ID, d.Pass, d.Msg))
	}
	if ds.HasErrors() {
		return nil, ds
	}
	return mod, nil
}

// Certify runs the certification gate over an arbitrary harness source and
// returns its diagnostics — the seeded-defect suite drives it with
// hand-corrupted sources to pin the CLX130 tripwire.
func Certify(target, file, src string) analysis.Diagnostics {
	_, ds := certify(target, file, src)
	ds.Sort()
	return ds
}
