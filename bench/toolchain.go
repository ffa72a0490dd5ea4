package main

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"time"

	"closurex/internal/analysis/harnessaudit"
	"closurex/internal/analysis/interproc"
	"closurex/internal/analysis/sanitize"
	"closurex/internal/analysis/synth"
	"closurex/internal/core"
	"closurex/internal/ir"
	"closurex/internal/passes"
	"closurex/internal/targets"
)

// stage is one step of the toolchain pipeline.
type stage int

const (
	stCompile stage = iota
	stInstrument
	stCheck
	stSanitize
	stInterproc
	stAudit
	stSynth
	nStages
)

// stageNames name each stage's span; its per-layer metric is the name with
// an "_ms" suffix.
var stageNames = [nStages]string{
	"minc.compile", "passes.instrument", "analysis.check", "analysis.sanitize",
	"analysis.interproc", "analysis.harnessaudit", "analysis.synth",
}

// toolchainBuild is the richest build configuration the pipeline exists
// for: every analysis the toolchain has runs over its output.
var toolchainBuild = core.BuildConfig{Variant: core.ClosureX, Sanitize: core.SanitizeElide, Interproc: true}

// pipelineResult is one target's trip through the toolchain.
type pipelineResult struct {
	stages [nStages]time.Duration
	start  time.Time
	total  time.Duration
	// digest hashes the pipeline's textual outputs: the sanitize and
	// interproc reports, the harness score card and the synthesis report.
	digest string
	instrs int // instructions in the instrumented module
	edges  int // static coverage-edge bound of the instrumented module
	checks int // sanitizer checks kept
	elided int // sanitizer checks proven unnecessary
	mod    *ir.Module
	err    error
}

// runPipeline compiles, instruments and analyzes one target the way
// closurex-lint does with every report switched on.
func runPipeline(t *targets.Target) (r pipelineResult) {
	r.start = time.Now()
	lap := r.start
	tick := func(s stage) {
		now := time.Now()
		r.stages[s] = now.Sub(lap)
		lap = now
	}
	defer func() { r.total = lap.Sub(r.start) }()
	file := t.Short + ".c"

	m, err := core.Compile(file, t.Source)
	tick(stCompile)
	if err != nil {
		r.err = fmt.Errorf("compile: %w", err)
		return r
	}
	mod, err := core.InstrumentWith(m, toolchainBuild)
	tick(stInstrument)
	if err != nil {
		r.err = fmt.Errorf("instrument: %w", err)
		return r
	}
	ds := core.CheckModule(mod, toolchainBuild.Variant)
	tick(stCheck)
	if err := ds.Err(); err != nil {
		r.err = fmt.Errorf("check: %w", err)
		return r
	}
	san := sanitize.ReportModule(mod)
	sanText := san.Format()
	tick(stSanitize)
	ipText := interproc.ReportModule(mod).Format()
	tick(stInterproc)
	card, _ := harnessaudit.Audit(t.Name, mod, harnessaudit.Options{Dict: dictBytes(t)})
	cardJSON, err := harnessaudit.CardsJSON([]*harnessaudit.Card{card})
	tick(stAudit)
	if err != nil {
		r.err = fmt.Errorf("harnessaudit: %w", err)
		return r
	}
	sh, err := synth.Synthesize(t.Name, file, t.Source, synth.Options{})
	var synthJSON []byte
	if err == nil {
		synthJSON, err = synth.ReportsJSON([]*synth.Report{sh.Report})
	}
	tick(stSynth)
	if err != nil {
		r.err = fmt.Errorf("synth: %w", err)
		return r
	}
	if err := sh.Diags.Err(); err != nil {
		r.err = fmt.Errorf("synth: %w", err)
		return r
	}

	h := sha256.New()
	for _, part := range [][]byte{[]byte(sanText), []byte(ipText), cardJSON, synthJSON} {
		fmt.Fprintf(h, "%d:", len(part))
		h.Write(part)
	}
	r.digest = hex.EncodeToString(h.Sum(nil))
	for _, f := range mod.Funcs {
		for _, b := range f.Blocks {
			r.instrs += len(b.Instrs)
		}
	}
	r.edges = passes.TotalEdges(mod)
	r.mod = mod
	r.checks, r.elided = san.Totals()
	return r
}

// dictBytes returns the target's manual dictionary as byte tokens.
func dictBytes(t *targets.Target) [][]byte {
	var out [][]byte
	for _, tok := range t.Dict {
		out = append(out, []byte(tok))
	}
	return out
}
