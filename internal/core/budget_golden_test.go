package core

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"testing"

	"closurex/internal/ir"
	"closurex/internal/passes"
	"closurex/internal/targets"
	"closurex/internal/vm"
)

// The interpreter's budget contract, one execution at a time: how many
// instructions a run is charged (Result.Instrs), and where a run whose
// budget runs out lands its timeout. Hang buckets are keyed on the
// function alone, so the campaign golden cannot see either. For every
// registered target's seeds and bug triggers, in plain and sanitize
// builds, each input runs in a fresh image at budgets around its own
// instruction count and around the smallest budget it completes under;
// every outcome is hashed.

// budgetRun executes target_main on input in a fresh image of mod
// with the given budget.
func budgetRun(t *testing.T, mod *ir.Module, sanitize bool, input []byte, budget int64) vm.Result {
	t.Helper()
	v, err := vm.New(mod, vm.Options{Budget: budget, DeterministicRand: true, RandSeed: 1, Sanitize: sanitize})
	if err != nil {
		t.Fatal(err)
	}
	v.SetInput(input)
	return v.Call(passes.TargetMain)
}

// completes reports whether res ran to completion rather than out of
// budget.
func completes(res vm.Result) bool {
	return res.Fault == nil || res.Fault.Kind != vm.FaultTimeout
}

// budgetDigest runs every seed and bug trigger of tg under mod at its
// boundary budgets and hashes each outcome: the budget, Instrs, Ret,
// Exited, ExitCode, and the fault's kind, function, line, address and
// message.
func budgetDigest(t *testing.T, tg *targets.Target, mod *ir.Module, sanitize bool) string {
	t.Helper()
	h := sha256.New()
	var n [8]byte
	putInt := func(x int64) {
		binary.LittleEndian.PutUint64(n[:], uint64(x))
		h.Write(n[:])
	}
	putStr := func(s string) {
		putInt(int64(len(s)))
		h.Write([]byte(s))
	}
	inputs := tg.Seeds()
	for _, b := range tg.Bugs {
		inputs = append(inputs, b.Trigger)
	}
	for _, in := range inputs {
		full := budgetRun(t, mod, sanitize, in, 0)
		if !completes(full) {
			t.Fatalf("%s: an input hangs at the default budget", tg.Short)
		}
		// The smallest budget the input completes under: execution is
		// deterministic and identical up to the budget check, so completion
		// is monotone in the budget.
		lo, hi := int64(1), int64(vm.DefaultBudget)
		for lo < hi {
			mid := lo + (hi-lo)/2
			if completes(budgetRun(t, mod, sanitize, in, mid)) {
				hi = mid
			} else {
				lo = mid + 1
			}
		}
		budgets := map[int64]bool{lo - 1: true, lo: true}
		for _, b := range []int64{full.Instrs / 2, full.Instrs - 1, full.Instrs, full.Instrs + 1} {
			budgets[b] = true
		}
		var sorted []int64
		for b := range budgets {
			if b > 0 {
				sorted = append(sorted, b)
			}
		}
		sort.Slice(sorted, func(i, j int) bool { return sorted[i] < sorted[j] })
		for _, b := range sorted {
			res := budgetRun(t, mod, sanitize, in, b)
			putInt(b)
			putInt(res.Instrs)
			putInt(res.Ret)
			if res.Exited {
				putInt(1)
			} else {
				putInt(0)
			}
			putInt(res.ExitCode)
			if f := res.Fault; f != nil {
				putStr(f.Kind.String())
				putStr(f.Fn)
				putInt(int64(f.Line))
				putInt(int64(f.Addr))
				putStr(f.Msg)
			} else {
				putStr("")
			}
		}
	}
	return hex.EncodeToString(h.Sum(nil))
}

// TestBudgetBoundaryGolden pins budgetDigest per build mode and target.
// Regenerate with `go test ./internal/core -run BudgetBoundaryGolden
// -update` only for an intended change of budget accounting.
func TestBudgetBoundaryGolden(t *testing.T) {
	all := targets.All()
	if len(all) == 0 {
		t.Fatal("no registered targets")
	}
	path := filepath.Join("testdata", "budget.golden")
	want := map[string]string{} // "mode target" -> digest
	data, err := os.ReadFile(path)
	if err != nil && !(*updateGolden && os.IsNotExist(err)) {
		t.Fatal(err)
	}
	for _, line := range strings.Split(strings.TrimSpace(string(data)), "\n") {
		if i := strings.LastIndexByte(line, ' '); i > 0 {
			want[line[:i]] = line[i+1:]
		}
	}
	var keys []string
	for _, mode := range []struct {
		name     string
		sanitize SanitizeMode
	}{{"plain", SanitizeOff}, {"sanitize", SanitizeElide}} {
		for _, tg := range all {
			keys = append(keys, mode.name+" "+tg.Short)
		}
		t.Run(mode.name, func(t *testing.T) {
			for _, tg := range all {
				key := mode.name + " " + tg.Short
				t.Run(tg.Short, func(t *testing.T) {
					mod, err := BuildWith(tg.Short+".c", tg.Source, BuildConfig{Variant: ClosureX, Sanitize: mode.sanitize})
					if err != nil {
						t.Fatal(err)
					}
					got := budgetDigest(t, tg, mod, mode.sanitize.Enabled())
					if *updateGolden {
						want[key] = got
					} else if got != want[key] {
						t.Errorf("budget outcomes drifted from %s: got %s, want %q", path, got, want[key])
					}
				})
			}
		})
	}
	if *updateGolden {
		var sb strings.Builder
		for _, key := range keys {
			if want[key] != "" {
				fmt.Fprintf(&sb, "%s %s\n", key, want[key])
			}
		}
		if err := os.WriteFile(path, []byte(sb.String()), 0o644); err != nil {
			t.Fatal(err)
		}
	}
}
