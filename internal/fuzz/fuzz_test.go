package fuzz

import (
	"bytes"
	"testing"
	"testing/quick"

	"closurex/internal/vm"
)

func TestRNGDeterministic(t *testing.T) {
	a, b := NewRNG(7), NewRNG(7)
	for i := 0; i < 100; i++ {
		if a.Uint64() != b.Uint64() {
			t.Fatal("same seed diverged")
		}
	}
	c := NewRNG(8)
	same := 0
	a2 := NewRNG(7)
	for i := 0; i < 100; i++ {
		if a2.Uint64() == c.Uint64() {
			same++
		}
	}
	if same > 2 {
		t.Fatalf("adjacent seeds correlated: %d collisions", same)
	}
}

func TestRNGIntnBounds(t *testing.T) {
	r := NewRNG(1)
	for i := 0; i < 1000; i++ {
		n := 1 + i%17
		v := r.Intn(n)
		if v < 0 || v >= n {
			t.Fatalf("Intn(%d) = %d", n, v)
		}
	}
}

func TestBucketLUT(t *testing.T) {
	cases := map[int]byte{
		0: 0, 1: 1, 2: 2, 3: 4, 4: 8, 7: 8, 8: 16, 15: 16,
		16: 32, 31: 32, 32: 64, 127: 64, 128: 128, 255: 128,
	}
	for in, want := range cases {
		if bucketLUT[in] != want {
			t.Errorf("bucket[%d] = %d, want %d", in, bucketLUT[in], want)
		}
	}
}

func TestBitmapUpdate(t *testing.T) {
	b := NewBitmap()
	trace := make([]byte, MapSize)
	trace[100] = 1
	if got := b.Update(trace); got != 2 {
		t.Fatalf("first hit gain = %d, want 2", got)
	}
	if trace[100] != 0 {
		t.Fatal("trace not cleared")
	}
	// Same edge, same bucket: no gain.
	trace[100] = 1
	if got := b.Update(trace); got != 0 {
		t.Fatalf("repeat gain = %d, want 0", got)
	}
	// Same edge, higher bucket: bucket gain.
	trace[100] = 9
	if got := b.Update(trace); got != 1 {
		t.Fatalf("bucket gain = %d, want 1", got)
	}
	// New edge dominates bucket changes.
	trace[100] = 255
	trace[7] = 1
	if got := b.Update(trace); got != 2 {
		t.Fatalf("mixed gain = %d, want 2", got)
	}
	if b.Edges() != 2 {
		t.Fatalf("Edges = %d, want 2", b.Edges())
	}
	b.Reset()
	if b.Edges() != 0 {
		t.Fatal("reset failed")
	}
}

func TestMutatorRespectsMaxLen(t *testing.T) {
	r := NewRNG(3)
	m := NewMutator(r, 64)
	in := bytes.Repeat([]byte{7}, 60)
	for i := 0; i < 500; i++ {
		out := m.Havoc(in)
		if len(out) > 64 {
			t.Fatalf("havoc grew past MaxLen: %d", len(out))
		}
	}
	for i := 0; i < 500; i++ {
		out := m.Splice(in, bytes.Repeat([]byte{9}, 60))
		if len(out) > 64 {
			t.Fatalf("splice grew past MaxLen: %d", len(out))
		}
	}
}

func TestMutatorHandlesEmptyAndTiny(t *testing.T) {
	r := NewRNG(4)
	m := NewMutator(r, 32)
	for i := 0; i < 200; i++ {
		if out := m.Havoc(nil); len(out) == 0 {
			t.Fatal("havoc of empty stayed empty")
		}
		_ = m.Havoc([]byte{1})
		_ = m.Splice([]byte{1}, []byte{2})
		_ = m.Splice(nil, nil)
	}
}

func TestMutatorDoesNotAliasInput(t *testing.T) {
	r := NewRNG(5)
	m := NewMutator(r, 128)
	in := []byte("immutable-seed-content")
	orig := append([]byte(nil), in...)
	for i := 0; i < 200; i++ {
		m.Havoc(in)
	}
	if !bytes.Equal(in, orig) {
		t.Fatal("Havoc mutated the input slice")
	}
}

// Property: Havoc output differs from input with overwhelming probability
// across many trials (sanity that mutation actually mutates).
func TestMutatorChangesInput(t *testing.T) {
	f := func(seed uint64, data []byte) bool {
		if len(data) == 0 {
			return true
		}
		if len(data) > 256 {
			data = data[:256]
		}
		m := NewMutator(NewRNG(seed), 512)
		for i := 0; i < 8; i++ {
			if !bytes.Equal(m.Havoc(data), data) {
				return true
			}
		}
		return false
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

// scriptedExecutor maps inputs to canned results and records coverage.
type scriptedExecutor struct {
	cov     []byte
	crashOn byte
	t       *testing.T
}

func (s *scriptedExecutor) Execute(input []byte) vm.Result {
	// Coverage depends on the first byte: each distinct value hits a
	// distinct map cell, so new first-bytes yield new edges.
	var b byte
	if len(input) > 0 {
		b = input[0]
	}
	s.cov[int(b)]++
	if b == s.crashOn {
		return vm.Result{Fault: &vm.Fault{Kind: vm.FaultNullDeref, Fn: "parse", Line: 42}}
	}
	return vm.Result{Ret: int64(b)}
}

func TestCampaignFindsCoverageAndCrash(t *testing.T) {
	cov := make([]byte, MapSize)
	ex := &scriptedExecutor{cov: cov, crashOn: 0xee, t: t}
	c := NewCampaign(Config{
		Executor: ex,
		CovMap:   cov,
		Seeds:    [][]byte{{1, 2, 3, 4}},
		Seed:     11,
	})
	c.RunExecs(20000)
	if c.Execs() < 20000 {
		t.Fatalf("Execs = %d", c.Execs())
	}
	if c.Edges() < 50 {
		t.Fatalf("edges = %d, want many distinct first bytes", c.Edges())
	}
	if c.QueueLen() < 10 {
		t.Fatalf("queue = %d", c.QueueLen())
	}
	crashes := c.Crashes()
	if len(crashes) != 1 {
		t.Fatalf("crashes = %d, want 1 (deduplicated)", len(crashes))
	}
	cr := crashes[0]
	if cr.Key != "null-pointer-dereference@parse:42" {
		t.Fatalf("crash key = %q", cr.Key)
	}
	if cr.Count < 1 || len(cr.Input) == 0 || cr.Input[0] != 0xee {
		t.Fatalf("crash record: %+v", cr)
	}
	if c.CrashByKey(cr.Key) != cr {
		t.Fatal("CrashByKey lookup failed")
	}
}

func TestCampaignDeterministicGivenSeed(t *testing.T) {
	run := func(seed uint64) (int64, int, int) {
		cov := make([]byte, MapSize)
		ex := &scriptedExecutor{cov: cov, crashOn: 0xff}
		c := NewCampaign(Config{Executor: ex, CovMap: cov, Seeds: [][]byte{{9}}, Seed: seed})
		c.RunExecs(5000)
		return c.Execs(), c.Edges(), c.QueueLen()
	}
	e1, ed1, q1 := run(42)
	e2, ed2, q2 := run(42)
	if e1 != e2 || ed1 != ed2 || q1 != q2 {
		t.Fatalf("same seed diverged: (%d,%d,%d) vs (%d,%d,%d)", e1, ed1, q1, e2, ed2, q2)
	}
	_, ed3, _ := run(43)
	if ed1 == ed3 {
		t.Log("note: different seeds gave same edge count (possible, not fatal)")
	}
}

func TestCampaignBootstrapsWithEmptySeeds(t *testing.T) {
	cov := make([]byte, MapSize)
	ex := &scriptedExecutor{cov: cov, crashOn: 0xff}
	c := NewCampaign(Config{Executor: ex, CovMap: cov, Seed: 1})
	c.RunExecs(100)
	if c.QueueLen() == 0 {
		t.Fatal("empty-corpus campaign has no queue")
	}
}

func TestCampaignCrashInputsNotQueued(t *testing.T) {
	cov := make([]byte, MapSize)
	ex := &scriptedExecutor{cov: cov, crashOn: 5}
	c := NewCampaign(Config{Executor: ex, CovMap: cov, Seeds: [][]byte{{5}}, Seed: 1})
	c.Step() // bootstrap: the only seed crashes
	for _, e := range c.Queue() {
		if len(e.Input) > 0 && e.Input[0] == 5 {
			t.Fatal("crashing input entered the queue")
		}
	}
}

func TestCampaignRunFor(t *testing.T) {
	cov := make([]byte, MapSize)
	ex := &scriptedExecutor{cov: cov, crashOn: 0xff}
	c := NewCampaign(Config{Executor: ex, CovMap: cov, Seeds: [][]byte{{1}}, Seed: 2})
	c.RunFor(30 * 1e6) // 30ms
	if c.Execs() == 0 {
		t.Fatal("RunFor executed nothing")
	}
	if c.Elapsed() <= 0 {
		t.Fatal("Elapsed not tracked")
	}
}
