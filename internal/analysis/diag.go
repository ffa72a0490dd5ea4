// Package analysis provides compile-time correctness tooling for the
// ClosureX pipeline: a structural IR verifier, a generic dataflow framework
// (CFG, dominator tree, forward/backward worklist solver with liveness and
// reaching-definitions instances), and restore-completeness lints that
// statically prove a pipeline's output is restartable — the compile-time
// counterpart of the runtime divergence sentinel and restore watchdog.
//
// Every checker emits structured Diagnostics carrying a stable catalog ID
// (CLX001…), the producing checker or pass, and the precise IR location
// (function, block, instruction, source line), so tools and tests can
// assert that exactly the intended check caught a defect.
package analysis

import (
	"encoding/json"
	"errors"
	"fmt"
	"sort"
	"strings"
)

// Severity classifies a diagnostic.
type Severity int

// Severities, least to most severe.
const (
	SevInfo Severity = iota
	SevWarn
	SevError
)

func (s Severity) String() string {
	switch s {
	case SevInfo:
		return "info"
	case SevWarn:
		return "warn"
	case SevError:
		return "error"
	}
	return fmt.Sprintf("sev(%d)", int(s))
}

// Diagnostic is one structured finding from the verifier or a lint.
type Diagnostic struct {
	// ID is the stable catalog identifier ("CLX001").
	ID string
	// File names the module (source file or target) the finding belongs
	// to. Individual checkers leave it empty — they see one module at a
	// time; Diags.Flatten stamps it during multi-module aggregation.
	File string
	// Sev is the severity; campaigns refuse to start on SevError.
	Sev Severity
	// Pass names the checker or the pipeline pass held responsible
	// ("verifier", "HeapPass", "CoveragePass", ...).
	Pass string
	// Func is the containing function; empty for module-level findings.
	Func string
	// Block and Instr locate the finding inside Func; -1 when not
	// applicable (module- or function-level findings).
	Block, Instr int
	// Line is the source line attached to the offending instruction.
	Line int32
	// Msg is the human-readable explanation.
	Msg string
}

func (d Diagnostic) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "%s %s [%s]", d.ID, d.Sev, d.Pass)
	if d.Func != "" {
		fmt.Fprintf(&b, " %s", d.Func)
		if d.Block >= 0 {
			fmt.Fprintf(&b, " b%d", d.Block)
			if d.Instr >= 0 {
				fmt.Fprintf(&b, "#%d", d.Instr)
			}
		}
		if d.Line > 0 {
			fmt.Fprintf(&b, " line %d", d.Line)
		}
	}
	fmt.Fprintf(&b, ": %s", d.Msg)
	return b.String()
}

// Diagnostics is an ordered finding list.
type Diagnostics []Diagnostic

// HasErrors reports whether any diagnostic is SevError.
func (ds Diagnostics) HasErrors() bool {
	for i := range ds {
		if ds[i].Sev == SevError {
			return true
		}
	}
	return false
}

// Errors counts SevError diagnostics.
func (ds Diagnostics) Errors() int {
	n := 0
	for i := range ds {
		if ds[i].Sev == SevError {
			n++
		}
	}
	return n
}

// ByID returns the subset carrying the given catalog ID.
func (ds Diagnostics) ByID(id string) Diagnostics {
	var out Diagnostics
	for i := range ds {
		if ds[i].ID == id {
			out = append(out, ds[i])
		}
	}
	return out
}

// IDs returns the distinct catalog IDs present, sorted.
func (ds Diagnostics) IDs() []string {
	seen := map[string]bool{}
	for i := range ds {
		seen[ds[i].ID] = true
	}
	out := make([]string, 0, len(seen))
	for id := range seen {
		out = append(out, id)
	}
	sort.Strings(out)
	return out
}

// Sort orders diagnostics by function, block, instruction, then ID, giving
// tools a stable presentation independent of checker execution order.
func (ds Diagnostics) Sort() {
	sort.SliceStable(ds, func(i, j int) bool {
		a, b := &ds[i], &ds[j]
		if a.Func != b.Func {
			return a.Func < b.Func
		}
		if a.Block != b.Block {
			return a.Block < b.Block
		}
		if a.Instr != b.Instr {
			return a.Instr < b.Instr
		}
		return a.ID < b.ID
	})
}

func (ds Diagnostics) String() string {
	lines := make([]string, len(ds))
	for i := range ds {
		lines[i] = ds[i].String()
	}
	return strings.Join(lines, "\n")
}

// Diags aggregates per-module diagnostics from a multi-module run, keyed
// by module (source file or target) name. Earlier tooling ranged over the
// map directly when rendering, which made multi-module output order
// map-iteration-dependent; Flatten is the sanctioned way out and is
// deterministic.
type Diags map[string]Diagnostics

// Add appends findings under the given module name (no-op for an empty
// list, so clean modules do not appear as empty keys).
func (m Diags) Add(file string, ds Diagnostics) {
	if len(ds) > 0 {
		m[file] = append(m[file], ds...)
	}
}

// Flatten returns every diagnostic with File stamped, ordered by
// (file, function, code, position) — byte-stable across runs regardless
// of map iteration or checker execution order.
func (m Diags) Flatten() Diagnostics {
	files := make([]string, 0, len(m))
	for f := range m {
		files = append(files, f)
	}
	sort.Strings(files)
	var out Diagnostics
	for _, f := range files {
		ds := append(Diagnostics(nil), m[f]...)
		ds.SortForOutput()
		for i := range ds {
			ds[i].File = f
		}
		out = append(out, ds...)
	}
	return out
}

// SortForOutput orders diagnostics by (function, code, position) — the
// presentation order of closurex-lint's text and JSON output. Sort keeps
// the historical (function, position, code) order tests and the verifier
// rely on.
func (ds Diagnostics) SortForOutput() {
	sort.SliceStable(ds, func(i, j int) bool {
		a, b := &ds[i], &ds[j]
		if a.Func != b.Func {
			return a.Func < b.Func
		}
		if a.ID != b.ID {
			return a.ID < b.ID
		}
		if a.Block != b.Block {
			return a.Block < b.Block
		}
		return a.Instr < b.Instr
	})
}

// JSONDiagnostic is the stable machine-readable schema closurex-lint
// -format json emits. The field set and names are a compatibility
// contract; extend it, never rename.
type JSONDiagnostic struct {
	File     string `json:"file,omitempty"`
	Function string `json:"function,omitempty"`
	Code     string `json:"code"`
	Severity string `json:"severity"`
	Pass     string `json:"pass,omitempty"`
	Block    int    `json:"block"`
	Instr    int    `json:"instr"`
	Line     int32  `json:"line,omitempty"`
	Message  string `json:"message"`
}

// JSON renders the findings in the stable schema, sorted by (file,
// function, code, position), as indented JSON with a trailing newline —
// byte-stable across runs for identical findings.
func (ds Diagnostics) JSON() ([]byte, error) {
	cp := append(Diagnostics(nil), ds...)
	sort.SliceStable(cp, func(i, j int) bool {
		a, b := &cp[i], &cp[j]
		if a.File != b.File {
			return a.File < b.File
		}
		if a.Func != b.Func {
			return a.Func < b.Func
		}
		if a.ID != b.ID {
			return a.ID < b.ID
		}
		if a.Block != b.Block {
			return a.Block < b.Block
		}
		return a.Instr < b.Instr
	})
	out := make([]JSONDiagnostic, len(cp))
	for i, d := range cp {
		out[i] = JSONDiagnostic{
			File: d.File, Function: d.Func, Code: d.ID,
			Severity: d.Sev.String(), Pass: d.Pass,
			Block: d.Block, Instr: d.Instr, Line: d.Line, Message: d.Msg,
		}
	}
	b, err := json.MarshalIndent(out, "", "  ")
	if err != nil {
		return nil, err
	}
	return append(b, '\n'), nil
}

// Harness-quality audit catalog (analysis/harnessaudit). These are
// warnings, not campaign-gating errors: a degraded harness still runs, it
// just fuzzes worse. `make harness-audit` runs them under -strict so
// quality regressions fail CI anyway.
const (
	IDDeadSurface   = "CLX119" // function/block unreachable from target_main: dead harness surface
	IDCovSaturation = "CLX120" // coverage geometry saturated/displaced: new coverage indistinguishable
	IDDeadDictToken = "CLX121" // dictionary token never reaches a comparison against input bytes
)

// Harness-synthesis catalog (analysis/synth). CLX128/129/131 are advisory
// warnings about the synthesizable surface; CLX130 is an error because a
// synthesized harness that fails its own certification is a synth bug, not
// a target property.
const (
	IDUnsynthesizable  = "CLX128" // exported function signature admits no argument plan
	IDUncoveredSurface = "CLX129" // exported function unreachable from the entry and not covered by the synthesized plan
	IDSynthCertFail    = "CLX130" // synthesized harness failed verifier/lint certification — synth bug tripwire
	IDSynthShadowed    = "CLX131" // synthesized plan arm duplicates input flow the existing harness already provides
)

// Catalog is the single source of truth mapping every CLX diagnostic ID to
// its one-line description: closurex-lint -catalog prints it, and the
// README's diagnostic table is asserted verbatim against it by
// catalog_test.go — extend both together (the test fails otherwise).
func Catalog() map[string]string {
	return map[string]string{
		IDRawHeapCall:      "raw heap call (`malloc`/`calloc`/`realloc`/`free`) survives HeapPass — the chunk would escape restore tracking",
		IDRawFileCall:      "raw file call (`fopen`/`fclose`) survives FilePass — the descriptor would escape restore tracking",
		IDRawExitCall:      "raw `exit` call survives ExitPass — the campaign process would terminate mid-loop",
		IDGlobalSection:    "writable global not in `closure_global_section` — its mutations would survive restore",
		IDMainNotHooked:    "entry point not renamed to `target_main` — the harness cannot drive the target",
		IDCovCollision:     "coverage probe IDs collide — distinct blocks would alias one bitmap cell",
		IDProbeMissing:     "basic block lacks a coverage probe in an instrumented module — its coverage would be invisible",
		IDEmptyFunc:        "function has no blocks",
		IDBadTerminator:    "block empty, unterminated, or terminator mid-block",
		IDBadTarget:        "branch target out of range",
		IDBadRegister:      "register operand out of range",
		IDBadCallee:        "callee resolves to neither module function nor builtin",
		IDBadArity:         "direct call argument count mismatch",
		IDBadGlobal:        "global index out of range",
		IDBadSize:          "memory access size not 1/2/4/8",
		IDUnassignedUse:    "register may be read before assignment",
		IDBadSection:       "global carries an unknown/empty section attribute",
		IDBadSanCheck:      "malformed shadow check (direction operand not read/write)",
		IDOrphanCheck:      "shadow check not immediately followed by its matching load/store",
		IDUncheckedAcc:     "sanitized module has a load/store neither checked nor elision-marked",
		IDUnsoundElision:   "`TrackElide`/`FileElide` mark not provable on re-analysis — an unsound elision claim that would leak state",
		IDCallGraphHole:    "call with unknown effects (callee neither module function nor modeled builtin); analysis degrades to whole-section scope",
		IDGlobalEscape:     "global write unattributable (unknown pointer or unbounded callee write); analysis degrades to whole-section scope",
		IDElisionDrift:     "recorded may-write metadata drifted from the re-derived analysis (narrowed set, false bounded claim, stale site counters)",
		IDUnreachableFn:    "function unreachable from `target_main`/`closurex_init` (excluded from the restore-scope analysis)",
		IDDeadSurface:      "dead harness surface — function or block unreachable from `target_main` on any interprocedural path",
		IDCovSaturation:    "coverage geometry degraded — probe saturation or collision displacement high enough to mask new coverage",
		IDDeadDictToken:    "dead dictionary token — no input-dataflow path carries its bytes into any comparison",
		IDStaleCallIdx:     "cached callee index disagrees with the callee name — a call-site rewrite skipped re-resolution and both backends would dispatch wrong",
		IDUnsynthesizable:  "unsynthesizable signature — an exported function's parameter types admit no input-byte argument plan",
		IDUncoveredSurface: "uncovered exported surface — function unreachable from the entry and not picked up by the synthesized dispatch plan",
		IDSynthCertFail:    "synthesized harness failed certification — the generated module tripped the verifier/lint catalog (a synth bug, not a target property)",
		IDSynthShadowed:    "synthesized plan shadowed — the existing harness already feeds input-tainted arguments to every parameter of the planned function",
	}
}

// ErrDiagnostics is wrapped by every error produced from a non-empty
// diagnostic list, so callers can errors.Is across the toolchain.
var ErrDiagnostics = errors.New("analysis: diagnostics reported")

// Err converts the list into an error: nil when no SevError diagnostic is
// present, otherwise an error wrapping ErrDiagnostics whose message renders
// every finding.
func (ds Diagnostics) Err() error {
	if !ds.HasErrors() {
		return nil
	}
	return fmt.Errorf("%w (%d error(s)):\n%s", ErrDiagnostics, ds.Errors(), ds.String())
}
