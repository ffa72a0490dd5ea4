package vm_test

import (
	"fmt"
	"testing"

	"closurex/internal/ir"
	"closurex/internal/lower"
	"closurex/internal/passes"
	"closurex/internal/targets"
	"closurex/internal/vm"
)

// instrument compiles tg with the ClosureX pipeline plus coverage, the
// module shape the fuzzer runs.
func instrument(t *testing.T, tg *targets.Target) *ir.Module {
	t.Helper()
	m, err := lower.Compile(tg.Short+".c", tg.Source, vm.Builtins())
	if err != nil {
		t.Fatalf("%s: %v", tg.Name, err)
	}
	pm := passes.NewManager(vm.Builtins())
	pm.Add(passes.ClosureXPipeline(false)...)
	pm.Add(passes.NewCoveragePass(1))
	if err := pm.Run(m); err != nil {
		t.Fatalf("%s: %v", tg.Name, err)
	}
	vm.ResolveModule(m)
	return m
}

// checkIndex fails unless every non-zero cell of cov is listed in its
// touched-cell index or the index has overflowed, and returns the number
// of non-zero cells.
func checkIndex(t *testing.T, label string, cov []byte) int {
	t.Helper()
	idx := vm.CovIndexOf(cov)
	if idx == nil {
		t.Fatalf("%s: map has no touched-cell index", label)
	}
	listed := map[int]bool{}
	for k := 0; k < idx.Len(); k++ {
		listed[idx.Cell(k)] = true
	}
	cells := 0
	for i, c := range cov {
		if c != 0 {
			if !idx.Overflowed() && !listed[i] {
				t.Fatalf("%s: cell %d is non-zero but unlisted", label, i)
			}
			cells++
		}
	}
	return cells
}

// TestCovIndexInvariantTargets runs every registered target's seeds and
// bug triggers and requires, after each Call, that every non-zero map cell
// is listed in the index.
func TestCovIndexInvariantTargets(t *testing.T) {
	for _, tg := range targets.All() {
		t.Run(tg.Name, func(t *testing.T) {
			m := instrument(t, tg)
			inputs := tg.Seeds()
			for _, b := range tg.Bugs {
				inputs = append(inputs, b.Trigger)
			}
			for i, in := range inputs {
				cov := vm.NewCovMap()
				v, err := vm.New(m, vm.Options{CovMap: cov, DeterministicRand: true, RandSeed: 1})
				if err != nil {
					t.Fatal(err)
				}
				v.SetInput(in)
				v.Call(passes.TargetMain)
				if checkIndex(t, fmt.Sprintf("input %d", i), cov) == 0 {
					t.Fatalf("input %d: no coverage recorded", i)
				}
			}
		})
	}
}

// TestCovIndexForkChild checks that a forked child's probes list their
// cells in the index of the map it shares with its parent.
func TestCovIndexForkChild(t *testing.T) {
	tg := targets.All()[0]
	m := instrument(t, tg)
	cov := vm.NewCovMap()
	parent, err := vm.New(m, vm.Options{CovMap: cov, DeterministicRand: true, RandSeed: 1})
	if err != nil {
		t.Fatal(err)
	}
	if vm.CovIndexOf(parent.EngineCov()) == nil {
		t.Fatal("EngineCov lost the map's index")
	}
	child := parent.Fork()
	child.SetInput(tg.Seeds()[0])
	child.Call(passes.TargetMain)
	child.Release()
	if checkIndex(t, "fork child", cov) == 0 {
		t.Fatal("the child recorded no coverage in the parent's map")
	}
}

// TestCovIndexOnlyForNewCovMap checks that CovIndexOf finds the index of
// a NewCovMap map and of nothing else that looks like a map.
func TestCovIndexOnlyForNewCovMap(t *testing.T) {
	m := vm.NewCovMap()
	if len(m) != vm.CovMapSize || vm.CovIndexOf(m) == nil {
		t.Fatalf("NewCovMap: len %d, index %v", len(m), vm.CovIndexOf(m) != nil)
	}
	for name, s := range map[string][]byte{
		"make":       make([]byte, vm.CovMapSize),
		"append":     append([]byte(nil), m...),
		"short":      m[:vm.CovMapSize-1],
		"capped":     m[:vm.CovMapSize:vm.CovMapSize],
		"nil":        nil,
		"whole":      m[:vm.CovMapSize+vm.CovIndexSize],
		"prefix":     m[:64],
		"longer cap": make([]byte, vm.CovMapSize, vm.CovMapSize+2*vm.CovIndexSize),
	} {
		if vm.CovIndexOf(s) != nil {
			t.Errorf("%s (len %d, cap %d): CovIndexOf found an index", name, len(s), cap(s))
		}
	}
}

// TestNewRejectsBadCovMapLength checks that New refuses a coverage map of
// the wrong length instead of panicking at the first probe past its end.
func TestNewRejectsBadCovMapLength(t *testing.T) {
	m := instrument(t, targets.All()[0])
	for _, n := range []int{4 << 10, vm.CovMapSize + 1} {
		if _, err := vm.New(m, vm.Options{CovMap: make([]byte, n)}); err == nil {
			t.Errorf("New accepted a %d-byte coverage map", n)
		}
	}
}
