package core

import (
	"bytes"
	"slices"
	"strings"
	"testing"

	"closurex/internal/ir"
	"closurex/internal/passes"
	"closurex/internal/targets"
)

const coreSampleSrc = `
int counter;
int main(void) {
	counter++;
	int f = fopen("/input", "r");
	if (!f) exit(1);
	int c = fgetc(f);
	fclose(f);
	return c;
}
`

func TestCompileAndVariants(t *testing.T) {
	pristine, err := Compile("s.c", coreSampleSrc)
	if err != nil {
		t.Fatal(err)
	}
	if pristine.Func("main") == nil {
		t.Fatal("pristine lost main")
	}

	base, err := Instrument(pristine, Baseline)
	if err != nil {
		t.Fatal(err)
	}
	if base.Func(passes.TargetMain) == nil || base.Func("main") != nil {
		t.Fatal("baseline not renamed")
	}
	if passes.CountProbes(base) == 0 {
		t.Fatal("baseline lacks coverage")
	}
	// Baseline must NOT hook exit.
	if n := countCallees(base, "closurex_exit"); n != 0 {
		t.Fatalf("baseline hooked exit %d times", n)
	}

	cx, err := Instrument(pristine, ClosureX)
	if err != nil {
		t.Fatal(err)
	}
	if n := countCallees(cx, "exit"); n != 0 {
		t.Fatal("closurex variant left raw exit calls")
	}
	if n := countCallees(cx, "closurex_fopen"); n != 1 {
		t.Fatalf("closurex_fopen calls = %d", n)
	}
	// Instrument must not mutate its input.
	if pristine.Func("main") == nil || passes.CountProbes(pristine) != 0 {
		t.Fatal("Instrument mutated the pristine module")
	}
}

func countCallees(m *ir.Module, name string) int {
	n := 0
	for _, f := range m.Funcs {
		for _, b := range f.Blocks {
			for i := range b.Instrs {
				if b.Instrs[i].Op == ir.OpCall && b.Instrs[i].Callee == name {
					n++
				}
			}
		}
	}
	return n
}

func TestVariantStringAndFor(t *testing.T) {
	if VariantFor("closurex") != ClosureX || VariantFor("forkserver") != Baseline {
		t.Fatal("VariantFor mapping")
	}
	for _, v := range []Variant{Pristine, Baseline, ClosureX, ClosureXDeferInit} {
		if strings.Contains(v.String(), "variant(") {
			t.Fatalf("missing name for %d", int(v))
		}
	}
}

// noImage returns a copy of t whose process images materialize no image
// pages, for tests that measure nothing about image cost.
func noImage(t *targets.Target) *targets.Target {
	c := *t
	c.ImagePages = 0
	return &c
}

func TestBuildRejectsBadSource(t *testing.T) {
	if _, err := Build("bad.c", "int main(void) { return nope; }", Baseline); err == nil {
		t.Fatal("bad source built")
	}
}

func TestNewInstanceAcrossMechanisms(t *testing.T) {
	tg := targets.Get("giftext")
	for _, mech := range []string{"fresh", "forkserver", "persistent-naive", "closurex"} {
		inst, err := NewInstance(noImage(tg), mech, InstanceOptions{TrialSeed: 1})
		if err != nil {
			t.Fatalf("%s: %v", mech, err)
		}
		inst.Campaign.RunExecs(300)
		if inst.Campaign.Execs() < 300 {
			t.Fatalf("%s: execs = %d", mech, inst.Campaign.Execs())
		}
		if inst.Campaign.Edges() == 0 {
			t.Fatalf("%s: no coverage", mech)
		}
		if inst.TotalProbes() == 0 {
			t.Fatalf("%s: no probes", mech)
		}
		inst.Close()
	}
}

// TestForkserverDeterministicRandReproducible runs two forkserver
// campaigns on freetype, whose hinting calls rand(), with one seed: under
// DeterministicRand every forked child must see the same rand() stream,
// so the campaigns end with equal bitmaps and queues.
func TestForkserverDeterministicRandReproducible(t *testing.T) {
	run := func() ([]byte, [][]byte) {
		inst, err := NewInstance(noImage(targets.Get("freetype")), "forkserver",
			InstanceOptions{TrialSeed: 5, DeterministicRand: true})
		if err != nil {
			t.Fatal(err)
		}
		defer inst.Close()
		inst.Campaign.RunExecs(10000)
		var queue [][]byte
		for _, e := range inst.Campaign.Queue() {
			queue = append(queue, e.Input)
		}
		return inst.Campaign.BitmapSnapshot(), queue
	}
	bm1, q1 := run()
	bm2, q2 := run()
	if !bytes.Equal(bm1, bm2) {
		t.Fatal("same-seed forkserver campaigns ended with different bitmaps")
	}
	if !slices.EqualFunc(q1, q2, bytes.Equal) {
		t.Fatalf("same-seed forkserver campaigns ended with different queues (%d vs %d entries)", len(q1), len(q2))
	}
}

// heapASLRSource branches on the address malloc returns, so its path
// depends on the heap-ASLR base a process image draws from its entropy.
const heapASLRSource = `
int main(void) {
	int f = fopen("/input", "r");
	if (!f) abort();
	int a = fgetc(f);
	fclose(f);
	char *p = malloc(16);
	int r = 2;
	if (((int)p >> 4) & 1) r = 1;
	free(p);
	return r + a;
}
`

// TestSentinelPinsEntropy arms the divergence sentinel without asking for
// DeterministicRand: NewInstance must pin the entropy itself, or each
// fresh reference image draws its own heap base and the address-dependent
// branch reads as divergence on about half the probes.
func TestSentinelPinsEntropy(t *testing.T) {
	tg := &targets.Target{Name: "heap-aslr", Short: "heapaslr", Source: heapASLRSource,
		Seeds: func() [][]byte { return [][]byte{[]byte("a"), []byte("b")} }, MaxInputLen: 16}
	for seed := uint64(1); seed <= 4; seed++ {
		inst, err := NewInstance(tg, "closurex", InstanceOptions{TrialSeed: seed, SentinelEvery: 10})
		if err != nil {
			t.Fatal(err)
		}
		inst.Campaign.RunExecs(500)
		if d := inst.Campaign.Divergences(); len(d) != 0 {
			t.Fatalf("seed %d: sentinel reported %d divergences; first: %s", seed, len(d), d[0].Reason)
		}
		if inst.Campaign.EdgeSetProbes() == 0 {
			t.Fatalf("seed %d: no sentinel probe compared a non-empty edge set", seed)
		}
		inst.Close()
	}
}

func TestNewInstanceNilTarget(t *testing.T) {
	if _, err := NewInstance(nil, "closurex", InstanceOptions{}); err == nil {
		t.Fatal("nil target accepted")
	}
}

func TestCoverageGeometrySharedAcrossVariants(t *testing.T) {
	// Both variants share coverage-probe IDs (same seed), so Table 6's
	// coverage comparison is apples to apples.
	tg := targets.Get("zlib")
	base, err := Build(tg.Short+".c", tg.Source, Baseline)
	if err != nil {
		t.Fatal(err)
	}
	cx, err := Build(tg.Short+".c", tg.Source, ClosureX)
	if err != nil {
		t.Fatal(err)
	}
	ids := func(m *ir.Module) map[int64]bool {
		out := map[int64]bool{}
		for _, f := range m.Funcs {
			for _, b := range f.Blocks {
				for i := range b.Instrs {
					if b.Instrs[i].Op == ir.OpCov {
						out[b.Instrs[i].Imm] = true
					}
				}
			}
		}
		return out
	}
	bi, ci := ids(base), ids(cx)
	if len(bi) != len(ci) {
		t.Fatalf("probe counts differ: %d vs %d", len(bi), len(ci))
	}
	for id := range bi {
		if !ci[id] {
			t.Fatalf("probe %#x missing from closurex build", id)
		}
	}
}
