package synth

// Plan derivation: candidate enumeration over the parsed signatures,
// type-driven argument planning, fact-driven ranking, shadow detection,
// and the closurex_init precondition set. Everything is computed from the
// pristine (un-instrumented) module so the facts describe the target as
// written, not the pipeline's rewrite of it.

import (
	"fmt"
	"sort"

	"closurex/internal/analysis"
	"closurex/internal/analysis/harnessaudit"
	"closurex/internal/analysis/interproc"
	"closurex/internal/ir"
	"closurex/internal/minc"
)

// Param kinds: how one argument position is fed from input bytes.
const (
	// KindByte decodes one header byte.
	KindByte = "byte"
	// KindInt decodes four header bytes little-endian.
	KindInt = "int"
	// KindBuf passes the payload buffer (ibuf + header).
	KindBuf = "buf"
	// KindLen decodes four header bytes and clamps into [0, payload].
	KindLen = "len"
	// KindScratch passes the address of a zeroed scratch int (out-params).
	KindScratch = "scratch"
)

// ParamPlan is one argument position's plan.
type ParamPlan struct {
	Name string `json:"name"`
	Type string `json:"type"`
	Kind string `json:"kind"`
	// Off is the header offset scalar kinds decode from (0 for buf/scratch).
	Off int `json:"off"`
	// Hint is the seed value pre-loaded at Off — an observed compare
	// witness for the parameter when the taint lattice saw one.
	Hint int64 `json:"hint"`
}

// width returns the header bytes the kind consumes.
func (p ParamPlan) width() int {
	switch p.Kind {
	case KindByte:
		return 1
	case KindInt, KindLen:
		return 4
	}
	return 0
}

// Arm is one dispatch arm of the synthesized target_main.
type Arm struct {
	Func      string      `json:"func"`
	Ret       string      `json:"ret"`
	Params    []ParamPlan `json:"params"`
	Score     int         `json:"score"`
	Reachable bool        `json:"reachable"`
	HdrBytes  int         `json:"hdr_bytes"`
}

// Skip records a CLX128 finding: a signature with no plan.
type Skip struct {
	Func   string `json:"func"`
	Reason string `json:"reason"`
}

// planData is the internal planning result emit/certify consume.
type planData struct {
	arms       []Arm
	preGlobals []string // scalar global names to pre-write in closurex_init
	hdr        int      // header bytes: 1 selector + widest arm's scalars
	entry      string
	functions  int
	skips      []Skip
	uncovered  []string
	shadowed   []string
}

// buildPlan derives the full plan plus its CLX128/129/131 diagnostics.
func buildPlan(target, file string, prog *minc.Program, facts *harnessaudit.Facts,
	ip *interproc.Result, m *ir.Module, opts Options) (*planData, analysis.Diagnostics) {

	pl := &planData{entry: facts.Entry}
	var ds analysis.Diagnostics
	diag := func(id, fn, msg string) {
		sev := analysis.SevWarn
		ds = append(ds, analysis.Diagnostic{
			ID: id, File: file, Sev: sev, Pass: synthPass,
			Func: fn, Block: -1, Instr: -1, Msg: msg,
		})
	}

	type cand struct {
		arm      Arm
		shadowed bool
	}
	var cands []cand
	covered := map[string]bool{}
	var candidates []*minc.FuncDecl
	for _, f := range prog.Funcs {
		switch f.Name {
		case "main", analysis.TargetMain, analysis.InitFunc:
			continue
		}
		candidates = append(candidates, f)
	}
	pl.functions = len(candidates)

	for _, f := range candidates {
		ff := facts.Funcs[f.Name]
		params, reason := planParams(f)
		if reason != "" {
			pl.skips = append(pl.skips, Skip{Func: f.Name, Reason: reason})
			diag(analysis.IDUnsynthesizable, f.Name,
				fmt.Sprintf("unsynthesizable signature %s: %s", signature(f), reason))
			continue
		}
		arm := Arm{Func: f.Name, Ret: f.Ret.String(), Params: params}
		if ff != nil {
			arm.Reachable = ff.Reachable
			arm.Score = scoreArm(ff, params)
			fillHints(ff, arm.Params)
		}
		cands = append(cands, cand{arm: arm, shadowed: isShadowed(f, ff)})
	}

	sort.SliceStable(cands, func(i, j int) bool {
		if cands[i].arm.Score != cands[j].arm.Score {
			return cands[i].arm.Score > cands[j].arm.Score
		}
		return cands[i].arm.Func < cands[j].arm.Func
	})

	// Shadowed arms re-cover input flow the manual harness already
	// provides; drop them unless they are all we have.
	var kept, shadowed []cand
	for _, c := range cands {
		if c.shadowed {
			shadowed = append(shadowed, c)
			pl.shadowed = append(pl.shadowed, c.arm.Func)
			diag(analysis.IDSynthShadowed, c.arm.Func,
				fmt.Sprintf("synthesized plan for %s is shadowed: the existing harness already passes input-tainted arguments in every parameter position", c.arm.Func))
		} else {
			kept = append(kept, c)
		}
	}
	if len(kept) == 0 {
		kept = shadowed
	}
	if len(kept) > opts.MaxArms {
		kept = kept[:opts.MaxArms]
	}
	for _, c := range kept {
		pl.arms = append(pl.arms, c.arm)
		covered[c.arm.Func] = true
	}
	sort.Strings(pl.shadowed)

	// Header layout: byte 0 selects the arm; each arm's scalars pack from
	// offset 1. The payload starts after the widest arm.
	maxScalar := 0
	for ai := range pl.arms {
		off := 1
		for pi := range pl.arms[ai].Params {
			p := &pl.arms[ai].Params[pi]
			if w := p.width(); w > 0 {
				p.Off = off
				off += w
			}
		}
		pl.arms[ai].HdrBytes = off - 1
		if pl.arms[ai].HdrBytes > maxScalar {
			maxScalar = pl.arms[ai].HdrBytes
		}
	}
	pl.hdr = 1 + maxScalar

	// CLX129: exported surface neither reachable from the entry nor picked
	// up by the plan.
	for _, f := range candidates {
		ff := facts.Funcs[f.Name]
		if ff != nil && !ff.Reachable && !covered[f.Name] {
			pl.uncovered = append(pl.uncovered, f.Name)
			diag(analysis.IDUncoveredSurface, f.Name,
				fmt.Sprintf("uncovered exported surface: %s (%d blocks) is unreachable from %s and not covered by the synthesized plan", f.Name, ff.Blocks, facts.Entry))
		}
	}
	sort.Strings(pl.uncovered)
	sort.Slice(pl.skips, func(i, j int) bool { return pl.skips[i].Func < pl.skips[j].Func })

	if len(pl.arms) > 0 {
		pl.preGlobals = preGlobals(prog, facts, ip, m, pl.arms)
	}
	return pl, ds
}

// planParams derives each parameter's plan, or a reason why none exists.
func planParams(f *minc.FuncDecl) ([]ParamPlan, string) {
	out := make([]ParamPlan, 0, len(f.Params))
	prevBuf := false
	for i, p := range f.Params {
		pp := ParamPlan{Name: p.Name, Type: p.Type.String()}
		t := p.Type
		switch {
		case t.Kind == minc.TChar:
			pp.Kind = KindByte
			prevBuf = false
		case t.Kind == minc.TInt && prevBuf:
			pp.Kind = KindLen
			prevBuf = false
		case t.Kind == minc.TInt:
			pp.Kind = KindInt
		case (t.Kind == minc.TPtr || t.Kind == minc.TArray) && t.Elem != nil && t.Elem.Kind == minc.TChar:
			pp.Kind = KindBuf
			prevBuf = true
		case t.Kind == minc.TPtr && t.Elem != nil && t.Elem.Kind == minc.TInt:
			pp.Kind = KindScratch
			prevBuf = false
		default:
			return nil, fmt.Sprintf("parameter %d (%s %s) has no input-byte plan", i, t, p.Name)
		}
		out = append(out, pp)
	}
	return out, ""
}

// scoreArm ranks candidates: prefer big, dead, and un-called surface, and
// functions that accept a payload buffer.
func scoreArm(ff *harnessaudit.FuncFacts, params []ParamPlan) int {
	score := ff.Blocks*2 + (ff.Blocks-ff.LiveBlocks)*4
	if !ff.Reachable {
		score += 1000
	}
	if !ff.CalledFromEntry {
		score += 200
	}
	for _, p := range params {
		if p.Kind == KindBuf {
			score += 100
			break
		}
	}
	return score
}

// fillHints seeds scalar parameters with an observed compare witness: the
// largest constant the function compares that parameter against, clamped
// to the decode width.
func fillHints(ff *harnessaudit.FuncFacts, params []ParamPlan) {
	for i := range params {
		p := &params[i]
		switch p.Kind {
		case KindByte, KindInt, KindLen:
		default:
			continue
		}
		if p.Kind == KindLen {
			p.Hint = 64 // sensible payload length before clamping
		}
		for _, c := range ff.ParamConsts[i] {
			if c < 0 {
				continue
			}
			if p.Kind == KindByte && c > 255 {
				continue
			}
			if c > int64(1)<<31 {
				continue
			}
			p.Hint = c
		}
	}
}

// isShadowed reports whether the manual harness already feeds
// input-tainted arguments in every parameter position at a direct entry
// call site — synthesizing that arm would re-cover explored flow.
func isShadowed(f *minc.FuncDecl, ff *harnessaudit.FuncFacts) bool {
	if ff == nil || !ff.CalledFromEntry || len(f.Params) == 0 {
		return false
	}
	if len(ff.EntryArgTaint) < len(f.Params) {
		return false
	}
	for i := range f.Params {
		if !ff.EntryArgTaint[i] {
			return false
		}
	}
	return true
}

// preGlobals computes the closurex_init precondition set: scalar globals
// the arms' transitive closure may read but provably never writes, that
// the original entry's closure initializes — without the pre-write the
// synthesized module would explore the uninitialized-state slice only.
func preGlobals(prog *minc.Program, facts *harnessaudit.Facts, ip *interproc.Result,
	m *ir.Module, arms []Arm) []string {

	roots := make([]string, 0, len(arms))
	for _, a := range arms {
		roots = append(roots, a.Func)
	}
	armClosure := ip.Graph.Reachable(roots...)
	entryClosure := ip.Graph.Reachable(facts.Entry)

	armTouch := map[int]bool{}
	armWrites := map[int]bool{}
	entryWrites := map[int]bool{}
	for _, f := range m.Funcs {
		inArm, inEntry := armClosure[f.Name], entryClosure[f.Name]
		if !inArm && !inEntry {
			continue
		}
		fr := ip.Funcs[f.Name]
		unknown := fr == nil || fr.Summary == nil || fr.Summary.Unknown
		if inArm {
			if unknown {
				return nil // cannot bound the arms' writes: no safe pre-set
			}
			for g := range fr.Summary.WritesGlobals {
				armWrites[g] = true
			}
			for _, b := range f.Blocks {
				for ii := range b.Instrs {
					if in := &b.Instrs[ii]; in.Op == ir.OpGlobalAddr {
						armTouch[int(in.Imm)] = true
					}
				}
			}
		}
		if inEntry && !unknown {
			for g := range fr.Summary.WritesGlobals {
				entryWrites[g] = true
			}
		}
	}

	scalar := map[string]bool{}
	for _, g := range prog.Globals {
		if g.Type.Kind == minc.TInt || g.Type.Kind == minc.TChar {
			scalar[g.Name] = true
		}
	}
	var out []string
	for gi, g := range m.Globals {
		if g.Const || !scalar[g.Name] {
			continue
		}
		if armTouch[gi] && !armWrites[gi] && entryWrites[gi] {
			out = append(out, g.Name)
		}
	}
	return out
}

// signature renders a FuncDecl header for diagnostics.
func signature(f *minc.FuncDecl) string {
	s := f.Ret.String() + " " + f.Name + "("
	for i, p := range f.Params {
		if i > 0 {
			s += ", "
		}
		s += p.Type.String() + " " + p.Name
	}
	if len(f.Params) == 0 {
		s += "void"
	}
	return s + ")"
}
