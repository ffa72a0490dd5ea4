package experiments

import (
	"fmt"
	"strings"

	"closurex/internal/core"
	"closurex/internal/execmgr"
	"closurex/internal/targets"
	"closurex/internal/vm"
)

// ---- Execution-mechanism spectrum (the paper's motivating figure) ----

// SpectrumRow measures one execution mechanism on a minimal target, so the
// per-test-case process-management cost dominates: the spectrum the
// paper's introduction draws (fresh >> forkserver >> persistent).
type SpectrumRow struct {
	Mechanism string
	NsPerExec float64
	Execs     int64
	Spawns    int64
}

// spectrumSource does almost nothing per test case: whatever time a
// mechanism spends here is process management.
const spectrumSource = `
int runs;
int main(void) {
	runs++;
	int f = fopen("/input", "r");
	if (!f) abort();
	int c = fgetc(f);
	fclose(f);
	return c;
}
`

// RunSpectrum measures ns/exec for every mechanism at the given image
// size (pages) over n executions each, the median of a sweep's rounds.
func RunSpectrum(imagePages int, n int) ([]SpectrumRow, error) {
	if imagePages <= 0 {
		imagePages = 512
	}
	if n <= 0 {
		n = 300
	}
	names := execmgr.Names()
	rows := make([]SpectrumRow, len(names))
	arms := make([]arm, len(names))
	for i, name := range names {
		mod, err := core.Build("spectrum.c", spectrumSource, core.VariantFor(name))
		if err != nil {
			return nil, err
		}
		row := &rows[i]
		row.Mechanism = name
		// Ten warm-up executions absorb template builds and first-touch costs.
		arms[i] = replayArm(func() (execmgr.Mechanism, error) {
			return execmgr.New(name, execmgr.Config{Module: mod, Options: vm.Options{ImagePages: imagePages}})
		}, [][]byte{{42}}, 10, n, func(m execmgr.Mechanism) {
			row.Execs, row.Spawns = m.Execs(), m.Spawns()
		})
	}
	s, err := sweep(arms...)
	if err != nil {
		return nil, err
	}
	for i := range rows {
		rows[i].NsPerExec = 1e9 / s[i].Median
	}
	return rows, nil
}

// FormatSpectrum renders the spectrum figure as text.
func FormatSpectrum(rows []SpectrumRow, imagePages int) string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "Figure: execution-mechanism spectrum (trivial target, %d-page image)\n", imagePages)
	fmt.Fprintf(&sb, "%-18s %14s %10s\n", "Mechanism", "ns/exec", "spawns")
	var base float64
	for _, r := range rows {
		if r.Mechanism == "fresh" {
			base = r.NsPerExec
		}
	}
	for _, r := range rows {
		rel := ""
		if base > 0 {
			rel = fmt.Sprintf("  (%.1fx faster than fresh)", base/r.NsPerExec)
		}
		fmt.Fprintf(&sb, "%-18s %14.0f %10d%s\n", r.Mechanism, r.NsPerExec, r.Spawns, rel)
	}
	return sb.String()
}

// ---- Stale-state pathology demo (missed and false crashes) ----

// StaleStateReport demonstrates the two incorrectness modes of naive
// persistent fuzzing that motivate the paper, on the gpmf-parser target:
//
//   - missed crash: an earlier input flips a persistent mode flag
//     (strict_mode), after which a crashing input no longer crashes;
//   - false crash: inputs that exit() leak their file descriptor; after
//     enough iterations fopen fails and the target aborts on an input
//     that is perfectly fine in isolation.
type StaleStateReport struct {
	// FreshCrashes reports that the crashing input does crash a fresh
	// process (ground truth).
	FreshCrashes bool
	// NaiveMissedCrash reports that naive persistent execution missed it
	// after the flag-flipping input ran first.
	NaiveMissedCrash bool
	// ClosureXCrashes reports that ClosureX still catches it in the same
	// sequence.
	ClosureXCrashes bool
	// NaiveFalseCrashAfter is the iteration at which leaked descriptors
	// produced a false crash under naive persistence (0 = never).
	NaiveFalseCrashAfter int
	// ClosureXFalseCrash reports whether ClosureX ever false-crashed on
	// the same sequence (must be false).
	ClosureXFalseCrash bool
}

// Correct reports whether the demo exhibited the full pathology: fresh
// ground truth crashes, naive misses it and false-crashes, ClosureX does
// neither.
func (r StaleStateReport) Correct() bool {
	return r.FreshCrashes && r.NaiveMissedCrash && r.ClosureXCrashes &&
		r.NaiveFalseCrashAfter > 0 && !r.ClosureXFalseCrash
}

func (r StaleStateReport) String() string {
	return fmt.Sprintf("fresh crashes=%v; naive missed=%v closurex catches=%v; naive false crash at iter %d, closurex false crash=%v",
		r.FreshCrashes, r.NaiveMissedCrash, r.ClosureXCrashes, r.NaiveFalseCrashAfter, r.ClosureXFalseCrash)
}

// RunStaleStateDemo executes the demonstration.
func RunStaleStateDemo() (StaleStateReport, error) {
	var rep StaleStateReport
	t := targets.Get("gpmf-parser")

	// flagInput flips strict_mode=1 persistently (DVID with an odd byte).
	flagInput := klvDemo("DVID", 'L', 1, 1, []byte{1})
	// crashInput fires the FPS division by zero, which is gated on
	// strict_mode == 0.
	var crashInput []byte
	for i := range t.Bugs {
		if t.Bugs[i].ID == "gpmf-div-zero-fps" {
			crashInput = t.Bugs[i].Trigger
		}
	}
	if crashInput == nil {
		return rep, fmt.Errorf("experiments: gpmf-div-zero-fps not registered")
	}
	// leakInput takes the overheated-device early return, which leaks its
	// FD and buffer on every iteration while returning normally.
	leakInput := klvDemo("TMPC", 'l', 4, 1, []byte{0, 3, 13, 64}) // be32 = 200001

	runSeq := func(mech string, seq [][]byte) ([]bool, error) {
		variant := core.VariantFor(mech)
		mod, err := core.Build(t.Short+".c", t.Source, variant)
		if err != nil {
			return nil, err
		}
		cfg := execmgr.Config{Module: mod}
		if mech == "persistent-naive" {
			// Large recycle bound so staleness is visible.
			cfg.RestartEvery = 1 << 30
		}
		m, err := execmgr.New(mech, cfg)
		if err != nil {
			return nil, err
		}
		defer m.Close()
		out := make([]bool, len(seq))
		for i, in := range seq {
			res := m.Execute(in)
			out[i] = res.Crashed()
		}
		return out, nil
	}

	// Missed-crash sequence: flag first, then the crasher.
	seq := [][]byte{flagInput, crashInput}
	fresh, err := runSeq("fresh", seq)
	if err != nil {
		return rep, err
	}
	naive, err := runSeq("persistent-naive", seq)
	if err != nil {
		return rep, err
	}
	cx, err := runSeq("closurex", seq)
	if err != nil {
		return rep, err
	}
	rep.FreshCrashes = fresh[1]
	rep.NaiveMissedCrash = !naive[1]
	rep.ClosureXCrashes = cx[1]

	// False-crash sequence: the leaking input repeated past the FD limit.
	var falseSeq [][]byte
	for i := 0; i < 100; i++ {
		falseSeq = append(falseSeq, leakInput)
	}
	naiveF, err := runSeq("persistent-naive", falseSeq)
	if err != nil {
		return rep, err
	}
	for i, crashed := range naiveF {
		if crashed {
			rep.NaiveFalseCrashAfter = i + 1
			break
		}
	}
	cxF, err := runSeq("closurex", falseSeq)
	if err != nil {
		return rep, err
	}
	for _, crashed := range cxF {
		if crashed {
			rep.ClosureXFalseCrash = true
		}
	}
	return rep, nil
}

// klvDemo rebuilds a GPMF KLV without importing the target package's
// unexported helper.
func klvDemo(key string, typ byte, ssize, repeat int, payload []byte) []byte {
	out := append([]byte(key), typ, byte(ssize), byte(repeat>>8), byte(repeat))
	out = append(out, payload...)
	for len(out)%4 != 0 {
		out = append(out, 0)
	}
	return out
}

// ---- Figure 3: GlobalPass section transformation ----

// SectionTransformation renders the before/after section layout for a
// target (Figure 3): before the GlobalPass every writable global sits in
// .data; after, they occupy closure_global_section.
func SectionTransformation(targetName string) (string, error) {
	t := targets.Get(targetName)
	if t == nil {
		return "", fmt.Errorf("experiments: unknown target %q", targetName)
	}
	before, err := core.Build(t.Short+".c", t.Source, core.Pristine)
	if err != nil {
		return "", err
	}
	after, err := core.Build(t.Short+".c", t.Source, core.ClosureX)
	if err != nil {
		return "", err
	}
	var sb strings.Builder
	fmt.Fprintf(&sb, "Figure 3: %s sections before the Global pass\n%s\n", t.Name, vm.NewLayout(before))
	fmt.Fprintf(&sb, "after the Global pass\n%s", vm.NewLayout(after))
	return sb.String(), nil
}
