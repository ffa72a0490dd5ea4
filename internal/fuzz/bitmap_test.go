package fuzz

import (
	"bytes"
	"fmt"
	"testing"

	"closurex/internal/ir"
	"closurex/internal/vm"
)

// refBitmap is the byte-wise reference for Bitmap.Update: every cell is
// visited, bucketed and merged on its own, with no skipping of empty
// regions and no index. Update must agree with it exactly.
type refBitmap struct {
	virgin [MapSize]byte
	edges  int
}

func (r *refBitmap) update(trace []byte) int {
	ret := 0
	for i, v := range trace {
		if v == 0 {
			continue
		}
		cls := bucketLUT[v]
		old := r.virgin[i]
		if old&cls != cls {
			if old == 0 {
				r.edges++
				ret = 2
			} else if ret < 1 {
				ret = 1
			}
			r.virgin[i] = old | cls
		}
		trace[i] = 0
	}
	return ret
}

// refMerge is the byte-wise reference for GlobalBitmap.Merge: OR local
// into global and count the cells that go from zero to non-zero.
func refMerge(global *[MapSize]byte, local []byte) int {
	n := 0
	for i, v := range local {
		if global[i] == 0 && v != 0 {
			n++
		}
		global[i] |= v
	}
	return n
}

// traceKind fills a trace of the given length for the differential tests.
type traceKind struct {
	name string
	fill func(r *RNG, trace []byte)
}

var traceKinds = []traceKind{
	// ~38 cells: the per-exec hit count the repository benchmark measures.
	{"sparse", func(r *RNG, trace []byte) {
		if len(trace) == 0 {
			return
		}
		for k := 0; k < 38; k++ {
			trace[r.Intn(len(trace))] = byte(1 + r.Intn(255))
		}
	}},
	{"dense", func(r *RNG, trace []byte) {
		for i := range trace {
			if r.Intn(2) == 0 {
				trace[i] = byte(r.Uint64())
			}
		}
	}},
	{"all255", func(_ *RNG, trace []byte) {
		for i := range trace {
			trace[i] = 255
		}
	}},
}

var traceLens = []int{0, 7, 63, 64, 65, 127, MapSize}

// traceMap is one coverage-map shape the differential tests feed the
// kernels: a plain slice of length n, or (indexed) a vm.NewCovMap map whose
// index lists the cells, optionally forced past its capacity.
type traceMap struct {
	n        int
	indexed  bool
	overflow bool
}

func (m traceMap) String() string {
	switch {
	case m.overflow:
		return fmt.Sprintf("overflowed/len%d", m.n)
	case m.indexed:
		return fmt.Sprintf("indexed/len%d", m.n)
	}
	return fmt.Sprintf("len%d", m.n)
}

func (m traceMap) alloc() []byte {
	if m.indexed {
		return vm.NewCovMap()
	}
	return make([]byte, m.n)
}

// traceMaps is every plain length in traceLens plus the indexed map, with
// and without a forced overflow.
var traceMaps = func() []traceMap {
	var out []traceMap
	for _, n := range traceLens {
		out = append(out, traceMap{n: n})
	}
	return append(out, traceMap{n: MapSize, indexed: true}, traceMap{n: MapSize, indexed: true, overflow: true})
}()

// listCells fills trace's touched-cell index the way the VM's probes do —
// every non-zero cell, once — and then over-reports: it also lists a few
// random cells, which are mostly zero, and one cell twice. A dense trace
// overflows the index on its own; overflow forces it for any trace. A
// plain trace is left alone.
func (m traceMap) listCells(r *RNG, trace []byte) {
	idx := vm.CovIndexOf(trace)
	if idx == nil {
		return
	}
	for i, v := range trace {
		if v != 0 {
			idx.Add(i)
		}
	}
	for k := 0; k < 8; k++ {
		idx.Add(r.Intn(MapSize))
	}
	if idx.Len() > 0 {
		idx.Add(idx.Cell(0))
	}
	for m.overflow && !idx.Overflowed() {
		idx.Add(r.Intn(MapSize))
	}
}

// checkConsumed fails unless trace is all zero and its index, when it has
// one, is empty.
func checkConsumed(t *testing.T, what string, trace []byte) {
	t.Helper()
	if !bytes.Equal(trace, make([]byte, len(trace))) {
		t.Fatalf("%s: trace not zeroed", what)
	}
	if idx := vm.CovIndexOf(trace); idx != nil && (idx.Len() != 0 || idx.Overflowed()) {
		t.Fatalf("%s: touched-cell index not reset", what)
	}
}

// probeVM is a VM over a hand-built module whose function "f" runs a loop
// of probes distinct random probes n times, writing its coverage into
// trace as a campaign's VM does. Hit counts grow with n and wrap past 255,
// so cells go back to zero and are listed again.
func probeVM(t *testing.T, r *RNG, probes int, trace []byte) *vm.VM {
	t.Helper()
	b := ir.NewBuilder("f", 1)
	i, one := b.Const(0), b.Const(1)
	header, body, exit := b.NewBlock(), b.NewBlock(), b.NewBlock()
	b.Br(header)
	b.SetBlock(header)
	b.CondBr(b.Bin(ir.Lt, i, 0), body, exit)
	b.SetBlock(body)
	b.Mov(i, b.Bin(ir.Add, i, one))
	b.Br(header)
	b.SetBlock(exit)
	b.Ret(-1)
	f, err := b.Finish()
	if err != nil {
		t.Fatal(err)
	}
	cov := make([]ir.Instr, probes)
	for k := range cov {
		cov[k] = ir.Instr{Op: ir.OpCov, Dst: -1, A: -1, B: -1, Imm: int64(r.Intn(MapSize))}
	}
	f.Blocks[body].Instrs = append(cov, f.Blocks[body].Instrs...)
	m := ir.NewModule("probes")
	if err := m.AddFunc(f); err != nil {
		t.Fatal(err)
	}
	v, err := vm.New(m, vm.Options{CovMap: trace})
	if err != nil {
		t.Fatal(err)
	}
	return v
}

// vmTraces are the VM-written trace shapes: the benchmark's ~38 cells per
// execution, and enough distinct cells to overflow the index.
var vmTraces = []struct {
	name   string
	probes int
}{{"vm-sparse", 38}, {"vm-overflow", vm.CovIndexCap * 3 / 2}}

// eachTrace calls check with a fresh trace filled by every kind on every
// map shape, and by the VM on an indexed map, over 20 rounds per case.
// Every fill lists its cells in the index as the VM does.
func eachTrace(t *testing.T, check func(t *testing.T, round int, trace []byte)) {
	for _, tm := range traceMaps {
		for _, k := range traceKinds {
			t.Run(fmt.Sprintf("%s/%s", k.name, tm), func(t *testing.T) {
				r := NewRNG(uint64(tm.n)*31 + uint64(len(k.name)))
				trace := tm.alloc()
				for round := 0; round < 20; round++ {
					k.fill(r, trace)
					tm.listCells(r, trace)
					check(t, round, trace)
				}
			})
		}
	}
	for _, vt := range vmTraces {
		t.Run(vt.name, func(t *testing.T) {
			r := NewRNG(uint64(vt.probes))
			trace := vm.NewCovMap()
			v := probeVM(t, r, vt.probes, trace)
			for round := 0; round < 20; round++ {
				if res := v.Call("f", int64(1+r.Intn(300))); res.Fault != nil {
					t.Fatal(res.Fault)
				}
				if vt.probes > vm.CovIndexCap && !vm.CovIndexOf(trace).Overflowed() {
					t.Fatalf("round %d: %d probes did not overflow the index", round, vt.probes)
				}
				check(t, round, trace)
			}
		})
	}
}

// TestUpdateMatchesReference drives Update and the byte-wise reference
// with the same traces and requires the same gain, edge count and virgin
// map after every update, and a zeroed trace with an empty index. Indexed
// maps, whose index over-reports or has overflowed, must agree too.
func TestUpdateMatchesReference(t *testing.T) {
	var b *Bitmap
	var ref *refBitmap
	eachTrace(t, func(t *testing.T, round int, got []byte) {
		if round == 0 {
			b, ref = NewBitmap(), &refBitmap{}
		}
		want := append([]byte(nil), got...)
		g, w := b.Update(got), ref.update(want)
		if g != w {
			t.Fatalf("round %d: gain %d, reference %d", round, g, w)
		}
		if b.Edges() != ref.edges {
			t.Fatalf("round %d: edges %d, reference %d", round, b.Edges(), ref.edges)
		}
		if !bytes.Equal(b.Snapshot(), ref.virgin[:]) {
			t.Fatalf("round %d: virgin map differs from the reference", round)
		}
		checkConsumed(t, fmt.Sprintf("round %d", round), got)
		restored := NewBitmap()
		if err := restored.SetSnapshot(b.Snapshot()); err != nil {
			t.Fatal(err)
		}
		if restored.Edges() != ref.edges {
			t.Fatalf("round %d: recounted edges %d, reference %d", round, restored.Edges(), ref.edges)
		}
	})
}

// TestMergeMatchesReference checks GlobalBitmap.Merge against the
// byte-wise reference over a sequence of random shard maps.
func TestMergeMatchesReference(t *testing.T) {
	for _, k := range traceKinds {
		t.Run(k.name, func(t *testing.T) {
			r := NewRNG(uint64(len(k.name)))
			g, ref := NewGlobalBitmap(), new([MapSize]byte)
			refEdges := 0
			local := make([]byte, MapSize)
			for round := 0; round < 20; round++ {
				clear(local)
				k.fill(r, local)
				got, want := g.Merge(local), refMerge(ref, local)
				refEdges += want
				if got != want {
					t.Fatalf("round %d: merge contributed %d edges, reference %d", round, got, want)
				}
				if g.Edges() != refEdges {
					t.Fatalf("round %d: edges %d, reference %d", round, g.Edges(), refEdges)
				}
				if !bytes.Equal(g.Snapshot(), ref[:]) {
					t.Fatalf("round %d: global map differs from the reference", round)
				}
			}
		})
	}
}

// TestEdgeSetMatchesReference checks the sentinel's edge-set extraction
// against a byte-wise walk, including the zeroing of the map and the
// reset of an indexed map's index.
func TestEdgeSetMatchesReference(t *testing.T) {
	eachTrace(t, func(t *testing.T, round int, m []byte) {
		want := map[int]struct{}{}
		for i, v := range m {
			if v != 0 {
				want[i] = struct{}{}
			}
		}
		got := edgeSet(m)
		if !sameEdgeSet(got, want) {
			t.Fatalf("round %d: edge set of %d cells, reference %d", round, len(got), len(want))
		}
		checkConsumed(t, fmt.Sprintf("round %d", round), m)
	})
}

// TestClearTraceResetsIndex checks that ClearTrace zeroes a map through
// its index and resets the count, so a map cleared between executions
// never drifts into an overflow.
func TestClearTraceResetsIndex(t *testing.T) {
	eachTrace(t, func(t *testing.T, round int, m []byte) {
		ClearTrace(m)
		checkConsumed(t, fmt.Sprintf("round %d", round), m)
	})
}

// BenchmarkBitmapUpdate times one Update over a full map in the steady
// state of a campaign: the virgin map already holds every cell the trace
// touches, so the update finds no gain. "cells38" re-marks 38 scattered
// cells per iteration (the repository benchmark's measured hit count per
// execution); "empty" scans a map nothing touched; "indexed" re-marks the
// same 38 cells in a vm.NewCovMap map, listing them in its touched-cell
// index as the VM's probes do, so Update reads only those cells.
func BenchmarkBitmapUpdate(b *testing.B) {
	r := NewRNG(1)
	cells := make([]int, 38)
	for i := range cells {
		cells[i] = r.Intn(MapSize)
	}
	for _, bc := range []struct {
		name    string
		cells   []int
		indexed bool
	}{{"cells38", cells, false}, {"empty", nil, false}, {"indexed", cells, true}} {
		b.Run(bc.name, func(b *testing.B) {
			bm := NewBitmap()
			trace := make([]byte, MapSize)
			if bc.indexed {
				trace = vm.NewCovMap()
			}
			idx := vm.CovIndexOf(trace)
			hit := func() {
				for _, c := range bc.cells {
					trace[c] = 1
					if idx != nil {
						idx.Add(c)
					}
				}
			}
			hit()
			bm.Update(trace)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				hit()
				benchGain = bm.Update(trace)
			}
		})
	}
}

var benchGain int
