package main

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sort"

	"closurex/internal/core"
	"closurex/internal/execmgr"
	"closurex/internal/fuzz"
	"closurex/internal/passes"
	"closurex/internal/vm"
)

// outcome is what a campaign found at its fixed budget. At the default
// seed it is pinned per workload and target in testdata/golden.json.
type outcome struct {
	Edges   int      `json:"edges"`
	Queue   int      `json:"queue"`
	Crashes []string `json:"crashes"` // "key@FirstExec", sorted
}

func (o outcome) String() string {
	return fmt.Sprintf("edges=%d queue=%d crashes=%v", o.Edges, o.Queue, o.Crashes)
}

func (o outcome) equal(p outcome) bool {
	if o.Edges != p.Edges || o.Queue != p.Queue || len(o.Crashes) != len(p.Crashes) {
		return false
	}
	for i := range o.Crashes {
		if o.Crashes[i] != p.Crashes[i] {
			return false
		}
	}
	return true
}

// summarize returns a campaign's outcome and a digest of everything it
// produced that does not depend on timing: the coverage map, the queue in
// order, and the crash and hang tables.
func summarize(d fuzz.Driver) (outcome, string) {
	h := sha256.New()
	h.Write(d.BitmapSnapshot())
	queue := d.Queue()
	for _, e := range queue {
		fmt.Fprintf(h, "q%d:", len(e.Input))
		h.Write(e.Input)
	}
	o := outcome{Edges: d.Edges(), Queue: len(queue), Crashes: []string{}}
	for _, table := range [][]*fuzz.Crash{d.Crashes(), d.Hangs()} {
		for _, c := range table {
			fmt.Fprintf(h, "c%s@%d#%d:%d:", c.Key, c.FirstExec, c.Count, len(c.Input))
			h.Write(c.Input)
		}
	}
	for _, c := range d.Crashes() {
		o.Crashes = append(o.Crashes, fmt.Sprintf("%s@%d", c.Key, c.FirstExec))
	}
	sort.Strings(o.Crashes)
	return o, hex.EncodeToString(h.Sum(nil))
}

// verifyHarnesses runs the restore watchdog on every ClosureX image of the
// instance: after the last restore, each must be indistinguishable from a
// freshly initialized process.
func verifyHarnesses(in *core.Instance) []string {
	var out []string
	for j, m := range in.Mechs {
		if cx, ok := m.(*execmgr.ClosureX); ok {
			if err := cx.Harness().Verify(); err != nil {
				out = append(out, fmt.Sprintf("shard %d: %v", j, err))
			}
		}
	}
	return out
}

// replayCrashes re-executes every crash bucket's first input in a fresh
// image of the instance's module and checks that the same bucket fires.
// randSeeds are the rand() seeds the campaign's images used; a crash
// reproduces if it fires under any of them.
func replayCrashes(in *core.Instance, sanitize bool, randSeeds []uint64, crashes []*fuzz.Crash) ([]string, error) {
	var out []string
	for _, c := range crashes {
		ok := false
		got := "no fault"
		for _, s := range randSeeds {
			v, err := vm.New(in.Module, vm.Options{DeterministicRand: true, RandSeed: s, Sanitize: sanitize})
			if err != nil {
				return nil, fmt.Errorf("replay %s: %w", c.Key, err)
			}
			v.SetInput(c.Input)
			res := v.Call(passes.TargetMain)
			v.Release()
			if res.Fault != nil {
				got = res.Fault.Key()
				if got == c.Key {
					ok = true
					break
				}
			}
		}
		if !ok {
			out = append(out, fmt.Sprintf("crash %s does not reproduce in a fresh image (got %s)", c.Key, got))
		}
	}
	return out, nil
}

// goldenFile pins campaign outcomes and toolchain output digests. The
// campaign goldens hold only at Seed, each workload's Budget and
// warmupExecs; the toolchain digests do not depend on the seed.
type goldenFile struct {
	Seed      uint64                         `json:"seed"`
	Budgets   map[string]int64               `json:"budgets"`
	Campaigns map[string]map[string]*outcome `json:"campaigns"`
	Toolchain map[string]string              `json:"toolchain"`
}

func loadGolden(path string) (*goldenFile, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var g goldenFile
	if err := json.Unmarshal(data, &g); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &g, nil
}

func (g *goldenFile) save(path string) error {
	data, err := json.MarshalIndent(g, "", "  ")
	if err != nil {
		return err
	}
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}

// campaignGolden returns the pinned outcome for w and target, or nil when
// the run's settings are not the ones the goldens were recorded at.
func (g *goldenFile) campaignGolden(w *workload, cfg runConfig, target string) *outcome {
	if g == nil || cfg.seed != g.Seed || cfg.warmup != warmupExecs || g.Budgets[w.name] != cfg.budgetFor(w) {
		return nil
	}
	return g.Campaigns[w.name][target]
}
