// Package synth is the static harness synthesizer: the repair half of the
// harness-quality story whose diagnosis half is analysis/harnessaudit.
// For a registered target it enumerates the exported MinC functions the
// manual harness under-exercises, derives a type- and fact-driven argument
// plan per signature (scalar parameters decoded from input bytes, buffer/
// length pairs clamped in-bounds, global preconditions pre-written in
// closurex_init), and emits a deterministic MinC dispatch harness that is
// certified by the same minc→lower→passes→verifier path hand-written
// harnesses go through. Nothing here executes target code: every claim is
// a projection of the audit's reachability/taint facts, interproc's
// mod/ref summaries, and the sanitize interval domain.
//
// Findings surface through four catalog codes: CLX128 (a signature admits
// no plan), CLX129 (exported surface left uncovered), CLX130 (a
// synthesized harness failed its own certification — a synth bug, never a
// target property), CLX131 (a planned arm duplicates input flow the
// manual harness already provides).
package synth

import (
	"fmt"

	"closurex/internal/analysis"
	"closurex/internal/analysis/harnessaudit"
	"closurex/internal/analysis/interproc"
	"closurex/internal/core"
	"closurex/internal/ir"
	"closurex/internal/minc"
	"closurex/internal/targets"
)

// synthPass tags every diagnostic this package emits.
const synthPass = "synth"

const (
	// DefaultMaxArms caps the dispatch arms when Options.MaxArms is 0.
	DefaultMaxArms = 6
	// DefaultBufCap sizes the synthesized harness's input buffer, and
	// hence the synthesized target's MaxInputLen.
	DefaultBufCap = 512
)

// Options tunes synthesis.
type Options struct {
	// MaxArms caps the dispatch arms in the synthesized target_main
	// (0 = DefaultMaxArms).
	MaxArms int
}

func (o Options) fill() Options {
	if o.MaxArms <= 0 {
		o.MaxArms = DefaultMaxArms
	}
	return o
}

// Harness is one synthesis result: the report (always present), the
// emitted source and certified module (present only when a plan existed
// and certification passed), and every diagnostic the run produced.
type Harness struct {
	Report *Report
	// Source is the synthesized MinC program ("" when no arm was planned).
	Source string
	// Module is the certified ClosureX-instrumented module (nil unless
	// Report.Certified).
	Module *ir.Module
	Diags  analysis.Diagnostics
}

// Synthesize plans, emits and certifies a harness for one target's source.
// The error return is reserved for infrastructure failures (the original
// source failing to parse/lower); everything synthesis-related is reported
// through Harness.Diags and the report.
func Synthesize(target, file, src string, opts Options) (*Harness, error) {
	opts = opts.fill()
	prog, err := minc.Parse(file, src)
	if err != nil {
		return nil, fmt.Errorf("synth: %s: parse: %w", target, err)
	}
	m, err := core.CompileProgram(prog)
	if err != nil {
		return nil, fmt.Errorf("synth: %s: lower: %w", target, err)
	}

	facts := harnessaudit.CollectFacts(m)
	ip := interproc.Analyze(m)

	pl, ds := buildPlan(target, file, prog, facts, ip, m, opts)
	h := &Harness{Report: pl.report(target), Diags: ds}
	if len(pl.arms) == 0 {
		h.Report.sortForOutput()
		return h, nil
	}

	h.Source = emitSource(src, pl)
	h.Report.SourceLines = countLines(h.Source)

	mod, cds := certify(target, file, h.Source)
	h.Diags = append(h.Diags, cds...)
	if mod != nil && !cds.HasErrors() {
		h.Report.Certified = true
		h.Module = mod
	}
	h.Report.fillCodes(h.Diags)
	h.Report.sortForOutput()
	h.Diags.Sort()
	return h, nil
}

// TargetFor synthesizes a harness for a registered target and wraps it as
// an auxiliary registry target (Name "+synth", Short "_synth") ready for
// targets.Register. The returned error is non-nil when no certified
// harness could be produced; the Harness is still returned for reporting.
func TargetFor(base *targets.Target, opts Options) (*targets.Target, *Harness, error) {
	h, err := Synthesize(base.Name, base.Short+".c", base.Source, opts)
	if err != nil {
		return nil, nil, err
	}
	if !h.Report.Certified {
		return nil, h, fmt.Errorf("synth: %s: no certified harness (arms=%d, certified=%v)",
			base.Name, len(h.Report.Arms), h.Report.Certified)
	}
	seeds := synthSeeds(h.Report, base)
	nt := &targets.Target{
		Name:        base.Name + "+synth",
		Short:       base.Short + "_synth",
		Format:      base.Format + " (synthesized dispatch)",
		ExecSize:    base.ExecSize,
		ImagePages:  base.ImagePages,
		Source:      h.Source,
		Seeds:       func() [][]byte { return cloneSeeds(seeds) },
		MaxInputLen: DefaultBufCap,
		Aux:         true,
		Dict:        append([]string(nil), base.Dict...),
	}
	return nt, h, nil
}

// synthSeeds builds one deterministic seed per dispatch arm: the selector
// byte, each scalar parameter's hint value at its header offset, zero-fill
// to the header boundary, then the base target's first seed as payload.
func synthSeeds(rep *Report, base *targets.Target) [][]byte {
	var payload []byte
	if base.Seeds != nil {
		if bs := base.Seeds(); len(bs) > 0 {
			payload = bs[0]
		}
	}
	if max := DefaultBufCap - rep.HdrBytes; len(payload) > max {
		payload = payload[:max]
	}
	seeds := make([][]byte, 0, len(rep.Arms))
	for i, arm := range rep.Arms {
		s := make([]byte, rep.HdrBytes)
		s[0] = byte(i)
		for _, p := range arm.Params {
			w := p.width()
			for b := 0; b < w; b++ {
				if p.Off+b < len(s) {
					s[p.Off+b] = byte(uint64(p.Hint) >> (8 * b))
				}
			}
		}
		seeds = append(seeds, append(s, payload...))
	}
	return seeds
}

func cloneSeeds(seeds [][]byte) [][]byte {
	out := make([][]byte, len(seeds))
	for i, s := range seeds {
		out[i] = append([]byte(nil), s...)
	}
	return out
}

func countLines(s string) int {
	n := 0
	for _, c := range s {
		if c == '\n' {
			n++
		}
	}
	return n
}
