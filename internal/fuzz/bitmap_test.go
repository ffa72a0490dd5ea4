package fuzz

import (
	"bytes"
	"fmt"
	"testing"
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

// TestUpdateMatchesReference drives the line-granular Update and the
// byte-wise reference with the same random traces and requires the same
// gain, edge count and virgin map after every update, and a zeroed trace.
func TestUpdateMatchesReference(t *testing.T) {
	for _, n := range traceLens {
		for _, k := range traceKinds {
			t.Run(fmt.Sprintf("%s/len%d", k.name, n), func(t *testing.T) {
				r := NewRNG(uint64(n)*31 + uint64(len(k.name)))
				b, ref := NewBitmap(), &refBitmap{}
				got, want := make([]byte, n), make([]byte, n)
				for round := 0; round < 20; round++ {
					k.fill(r, got)
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
					if !bytes.Equal(got, make([]byte, n)) {
						t.Fatalf("round %d: trace not zeroed", round)
					}
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
// against a byte-wise walk, including the zeroing of the map.
func TestEdgeSetMatchesReference(t *testing.T) {
	for _, n := range traceLens {
		for _, k := range traceKinds {
			r := NewRNG(uint64(n) + 7)
			m := make([]byte, n)
			k.fill(r, m)
			want := map[int]struct{}{}
			for i, v := range m {
				if v != 0 {
					want[i] = struct{}{}
				}
			}
			got := edgeSet(m)
			if !sameEdgeSet(got, want) {
				t.Fatalf("%s/len%d: edge set of %d cells, reference %d", k.name, n, len(got), len(want))
			}
			if !bytes.Equal(m, make([]byte, n)) {
				t.Fatalf("%s/len%d: map not zeroed", k.name, n)
			}
		}
	}
}

// BenchmarkBitmapUpdate times one Update over a full map in the steady
// state of a campaign: the virgin map already holds every cell the trace
// touches, so the update finds no gain. "cells38" re-marks 38 scattered
// cells per iteration (the repository benchmark's measured hit count per
// execution); "empty" scans a map nothing touched.
func BenchmarkBitmapUpdate(b *testing.B) {
	r := NewRNG(1)
	cells := make([]int, 38)
	for i := range cells {
		cells[i] = r.Intn(MapSize)
	}
	for _, bc := range []struct {
		name  string
		cells []int
	}{{"cells38", cells}, {"empty", nil}} {
		b.Run(bc.name, func(b *testing.B) {
			bm := NewBitmap()
			trace := make([]byte, MapSize)
			for _, c := range bc.cells {
				trace[c] = 1
			}
			bm.Update(trace)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				for _, c := range bc.cells {
					trace[c] = 1
				}
				benchGain = bm.Update(trace)
			}
		})
	}
}

var benchGain int
