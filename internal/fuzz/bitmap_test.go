package fuzz

import (
	"bytes"
	"fmt"
	"testing"

	"closurex/internal/vm"
)

// refBitmap is the byte-wise reference for Bitmap.Update: every cell is
// visited, bucketed and merged on its own, with no skipping of empty
// regions. The line-granular kernel must agree with it exactly.
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
// kernels: a plain slice of length n, or (indexed) a vm.NewCovMap map.
type traceMap struct {
	n       int
	indexed bool
}

func (m traceMap) String() string {
	if m.indexed {
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

// traceMaps is every plain length in traceLens plus the indexed map.
var traceMaps = func() []traceMap {
	var out []traceMap
	for _, n := range traceLens {
		out = append(out, traceMap{n: n})
	}
	return append(out, traceMap{n: MapSize, indexed: true})
}()

// markIndex sets trace's touched-line index the way the VM's probes do —
// one byte for every non-zero line — and then over-reports: it also marks
// a few random lines, which are mostly zero. A plain trace is left alone.
func markIndex(r *RNG, trace []byte) {
	idx := vm.CovIndex(trace)
	if idx == nil {
		return
	}
	for i, v := range trace {
		if v != 0 {
			idx[i>>vm.CovLineShift] = 1
		}
	}
	for k := 0; k < 8; k++ {
		idx[r.Intn(vm.CovIndexSize)] = 1
	}
}

// checkConsumed fails unless trace, and its index when it has one, are
// all zero.
func checkConsumed(t *testing.T, what string, trace []byte) {
	t.Helper()
	if !bytes.Equal(trace, make([]byte, len(trace))) {
		t.Fatalf("%s: trace not zeroed", what)
	}
	if idx := vm.CovIndex(trace); idx != nil && *idx != [vm.CovIndexSize]byte{} {
		t.Fatalf("%s: line index not zeroed", what)
	}
}

// TestUpdateMatchesReference drives the line-granular Update and the
// byte-wise reference with the same random traces and requires the same
// gain, edge count and virgin map after every update, and a zeroed trace.
// The indexed map, whose index over-reports, must agree too and must also
// come back with its index zeroed.
func TestUpdateMatchesReference(t *testing.T) {
	for _, tm := range traceMaps {
		for _, k := range traceKinds {
			t.Run(fmt.Sprintf("%s/%s", k.name, tm), func(t *testing.T) {
				r := NewRNG(uint64(tm.n)*31 + uint64(len(k.name)))
				b, ref := NewBitmap(), &refBitmap{}
				got, want := tm.alloc(), make([]byte, tm.n)
				for round := 0; round < 20; round++ {
					k.fill(r, got)
					markIndex(r, got)
					copy(want, got)
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
				}
			})
		}
	}
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
// against a byte-wise walk, including the zeroing of the map (and of the
// index of an indexed map).
func TestEdgeSetMatchesReference(t *testing.T) {
	for _, tm := range traceMaps {
		for _, k := range traceKinds {
			r := NewRNG(uint64(tm.n) + 7)
			m := tm.alloc()
			k.fill(r, m)
			markIndex(r, m)
			want := map[int]struct{}{}
			for i, v := range m {
				if v != 0 {
					want[i] = struct{}{}
				}
			}
			got := edgeSet(m)
			if !sameEdgeSet(got, want) {
				t.Fatalf("%s/%s: edge set of %d cells, reference %d", k.name, tm, len(got), len(want))
			}
			checkConsumed(t, fmt.Sprintf("%s/%s", k.name, tm), m)
		}
	}
}

// BenchmarkBitmapUpdate times one Update over a full map in the steady
// state of a campaign: the virgin map already holds every cell the trace
// touches, so the update finds no gain. "cells38" re-marks 38 scattered
// cells per iteration (the repository benchmark's measured hit count per
// execution); "empty" scans a map nothing touched; "indexed" re-marks the
// same 38 cells in a vm.NewCovMap map, setting their lines' index bytes
// as the VM's probes do, so Update reads only those lines.
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
			idx := vm.CovIndex(trace)
			hit := func() {
				for _, c := range bc.cells {
					trace[c] = 1
					if idx != nil {
						idx[c>>vm.CovLineShift] = 1
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
