// Package targets provides the benchmark suite mirroring Table 4 of the
// paper: ten parsers over the same input formats, written in MinC, each
// with the state-management habits of real C programs — mutable globals,
// heap churn with leak-on-error paths, fopen() of the input file, exit()
// on malformed input — so that the execution mechanisms differ observably.
//
// Four targets carry planted bugs of the same classes as Table 7
// (null-pointer dereference, division by zero, unaddressable access,
// invalid read/write, memcpy-with-negative-size, array out of bounds);
// each bug has a known trigger input so tests can prove it fires, and the
// time-to-bug experiment measures how fast each mechanism's fuzzer finds
// it from benign seeds.
package targets

import (
	"fmt"
	"sort"

	"closurex/internal/vm"
)

// Bug describes one planted defect.
type Bug struct {
	// ID names the bug ("gpmf-div-zero-scal").
	ID string
	// Kind is the sanitizer fault class it manifests as.
	Kind vm.FaultKind
	// Func is the MinC function the fault fires in (triage key component).
	Func string
	// Description explains the defect in Table 7 terms.
	Description string
	// Trigger is a crafted input that provably fires the bug.
	Trigger []byte
}

// Target is one benchmark program.
type Target struct {
	// Name is the paper's benchmark name (Table 4).
	Name string
	// Short is this reproduction's implementation name.
	Short string
	// Format describes the input format.
	Format string
	// ExecSize is Table 4's executable size (drives ImagePages).
	ExecSize string
	// ImagePages sizes the simulated resident image.
	ImagePages int
	// Source is the MinC program.
	Source string
	// Seeds returns the initial corpus of valid-ish inputs.
	Seeds func() [][]byte
	// Bugs lists planted defects (empty for clean targets).
	Bugs []Bug
	// MaxInputLen bounds mutated inputs for this target.
	MaxInputLen int
	// Aux marks auxiliary (non-Table-4) targets — test fixtures like the
	// sanitizer's seeded-defect program. They resolve through Get and All
	// like any target but are excluded from Benchmarks and hence from the
	// paper-evaluation defaults.
	Aux bool
	// Dict lists format keywords (magics, FourCCs, section names) handed
	// to the fuzzer's dictionary mutators, as AFL users would via -x.
	Dict []string
}

// registry holds all targets keyed by Name.
var registry = map[string]*Target{}
var order []string

// initErrs collects registration failures from package-init time; a
// library must not panic on registration input, so built-in registration
// problems surface through InitErrors (and from there through
// internal/core) instead of taking the process down.
var initErrs []error

// Register adds a target to the registry. It rejects nil targets, targets
// without a name, and duplicates (by paper name or short name) with an
// error rather than a panic, so embedders can register their own targets
// safely.
func Register(t *Target) error {
	if t == nil {
		return fmt.Errorf("targets: register nil target")
	}
	if t.Name == "" {
		return fmt.Errorf("targets: register target with empty name")
	}
	if _, dup := registry[t.Name]; dup {
		return fmt.Errorf("targets: duplicate target %q", t.Name)
	}
	if t.Short != "" {
		for _, existing := range registry {
			if existing.Short == t.Short {
				return fmt.Errorf("targets: duplicate short name %q (target %q)", t.Short, existing.Name)
			}
		}
	}
	registry[t.Name] = t
	order = append(order, t.Name)
	return nil
}

// register is the package-init shim the built-in Table 4 targets use.
func register(t *Target) {
	if err := Register(t); err != nil {
		initErrs = append(initErrs, err)
	}
}

// InitErrors returns registration errors from package initialization
// (empty for a healthy build).
func InitErrors() []error { return initErrs }

// All returns every target in registration (Table 4) order.
func All() []*Target {
	out := make([]*Target, 0, len(order))
	for _, n := range order {
		out = append(out, registry[n])
	}
	return out
}

// Benchmarks returns the Table 4 evaluation suite in registration order:
// every registered target that is not auxiliary.
func Benchmarks() []*Target {
	out := make([]*Target, 0, len(order))
	for _, n := range order {
		if t := registry[n]; !t.Aux {
			out = append(out, t)
		}
	}
	return out
}

// Get returns the named target (paper name or short name), or nil.
func Get(name string) *Target {
	if t, ok := registry[name]; ok {
		return t
	}
	for _, t := range registry {
		if t.Short == name {
			return t
		}
	}
	return nil
}

// Names returns all paper names sorted.
func Names() []string {
	out := append([]string(nil), order...)
	sort.Strings(out)
	return out
}

// BugByID finds a planted bug across all targets.
func BugByID(id string) (*Target, *Bug) {
	for _, t := range All() {
		for i := range t.Bugs {
			if t.Bugs[i].ID == id {
				return t, &t.Bugs[i]
			}
		}
	}
	return nil, nil
}

// ImagePages calibration: each target's simulated resident image (binary +
// shared libraries + loader state, in 4 KiB pages) is the free parameter of
// the process-management substitution. A forkserver pays O(ImagePages) in
// page-table copying per test case regardless of what the test case
// touches; ClosureX pays nothing for those pages between test cases. The
// per-target values are calibrated so that, given each parser's measured
// per-execution work in the interpreter, the ClosureX-vs-forkserver
// throughput ratio lands where Table 5 reports it (2.36x-4.79x, mean
// ~3.5x); see DESIGN.md §2. Resident set sizes are plausible for the
// binaries involved (1.2 MiB - 8.8 MiB).
//
// The fit predates the current per-page cost. It was made when the page
// table was a Go map and a fork plus release cost roughly 80-140 ns per
// resident page; the 512-entry tables brought that to about 10 ns, and
// the interpreter has sped up several times since, so these values no
// longer produce the paper's per-target ratios. They await a re-fit
// against the measured step and per-page costs.

// le16/le32/be16/be32 are seed-construction helpers.
func le16(v int) []byte { return []byte{byte(v), byte(v >> 8)} }
func le32(v int) []byte {
	return []byte{byte(v), byte(v >> 8), byte(v >> 16), byte(v >> 24)}
}
func be16(v int) []byte { return []byte{byte(v >> 8), byte(v)} }
func be32(v int) []byte {
	return []byte{byte(v >> 24), byte(v >> 16), byte(v >> 8), byte(v)}
}

func cat(parts ...[]byte) []byte {
	var out []byte
	for _, p := range parts {
		out = append(out, p...)
	}
	return out
}
