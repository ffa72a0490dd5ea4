package fuzz

import (
	"encoding/binary"
	"fmt"
	"math/bits"

	"closurex/internal/vm"
)

// MapSize is the AFL-compatible coverage map size, as the VM defines it.
const MapSize = vm.CovMapSize

// bucketLUT classifies raw hit counts into AFL's logarithmic buckets
// (1, 2, 3, 4-7, 8-15, 16-31, 32-127, 128-255).
var bucketLUT [256]byte

func init() {
	set := func(lo, hi int, v byte) {
		for i := lo; i <= hi; i++ {
			bucketLUT[i] = v
		}
	}
	bucketLUT[0] = 0
	bucketLUT[1] = 1
	bucketLUT[2] = 2
	bucketLUT[3] = 4
	set(4, 7, 8)
	set(8, 15, 16)
	set(16, 31, 32)
	set(32, 127, 64)
	set(128, 255, 128)
}

// Bitmap tracks cumulative ("virgin") coverage across a campaign.
type Bitmap struct {
	virgin [MapSize]byte // OR of all classified maps seen
	edges  int           // distinct map indices ever hit
}

// NewBitmap returns an empty cumulative bitmap.
func NewBitmap() *Bitmap { return &Bitmap{} }

// Update classifies trace, merges it into the cumulative map, and reports
// whether the execution produced new coverage: 2 for a brand-new edge,
// 1 for a new hit-count bucket on a known edge, 0 for nothing new.
// The trace is zeroed for the next execution.
//
// For a map from vm.NewCovMap the cost is set by the cells the execution
// touched: only the cells its touched-cell index lists are read (see
// ConsumeTrace). Any other map, or one whose index overflowed, is scanned
// in full, skipping empty lines with one test each, so its cost is set by
// the map size.
func (b *Bitmap) Update(trace []byte) int {
	ret := 0
	idx := vm.CovIndexOf(trace)
	if idx == nil || idx.Overflowed() {
		ConsumeTrace(trace, func(i int, v byte) { ret = b.merge(i, v, ret) })
		return ret
	}
	// ConsumeTrace's listed-cell loop, inlined: this runs once per
	// execution, and with a closure call per cell BenchmarkBitmapUpdate's
	// indexed case measured about 1.5x slower.
	m := (*[MapSize]byte)(trace)
	for k, n := 0, idx.Len(); k < n; k++ {
		i := idx.Cell(k)
		if v := m[i]; v != 0 {
			m[i] = 0
			ret = b.merge(i, v, ret)
		}
	}
	idx.Reset()
	return ret
}

func (b *Bitmap) merge(i int, v byte, ret int) int {
	cls := bucketLUT[v]
	old := b.virgin[i]
	if old&cls != cls {
		if old == 0 {
			b.edges++
			ret = 2
		} else if ret < 1 {
			ret = 1
		}
		b.virgin[i] = old | cls
	}
	return ret
}

// Edges returns the number of distinct map indices hit so far — the
// numerator of Table 6's coverage percentages.
func (b *Bitmap) Edges() int { return b.edges }

// Snapshot copies the cumulative virgin map for checkpointing.
func (b *Bitmap) Snapshot() []byte {
	out := make([]byte, MapSize)
	copy(out, b.virgin[:])
	return out
}

// SetSnapshot restores a checkpointed virgin map, recomputing the edge
// count from it.
func (b *Bitmap) SetSnapshot(virgin []byte) error {
	if len(virgin) != MapSize {
		return fmt.Errorf("fuzz: bitmap snapshot is %d bytes, want %d", len(virgin), MapSize)
	}
	copy(b.virgin[:], virgin)
	b.edges = 0
	scanCells(b.virgin[:], false, func(int, byte) { b.edges++ })
	return nil
}

// Reset clears the cumulative map.
func (b *Bitmap) Reset() {
	b.virgin = [MapSize]byte{}
	b.edges = 0
}

// scanLines calls visit, in ascending order, with the byte offset and
// little-endian value of every 8-byte word of m that holds a non-zero
// byte; when zero is set it then clears each 64-byte line it visited. An
// empty line costs one test: its eight words are ORed and skipped
// together. A final partial line is read through a zero-padded copy, so
// every length takes the same path.
func scanLines(m []byte, zero bool, visit func(off int, w uint64)) {
	var pad [64]byte
	for i := 0; i < len(m); i += 64 {
		l := &pad
		if len(m)-i >= 64 {
			l = (*[64]byte)(m[i:])
		} else {
			copy(pad[:], m[i:])
		}
		le := binary.LittleEndian
		if le.Uint64(l[0:])|le.Uint64(l[8:])|le.Uint64(l[16:])|le.Uint64(l[24:])|
			le.Uint64(l[32:])|le.Uint64(l[40:])|le.Uint64(l[48:])|le.Uint64(l[56:]) == 0 {
			continue
		}
		for k := 0; k < 64; k += 8 {
			if w := le.Uint64(l[k:]); w != 0 {
				visit(i+k, w)
			}
		}
		if zero {
			clear(m[i:min(i+64, len(m))])
		}
	}
}

// scanCells calls visit, in ascending order, with the index and value of
// every non-zero byte of m, clearing the visited lines when zero is set.
func scanCells(m []byte, zero bool, visit func(i int, v byte)) {
	scanLines(m, zero, func(off int, w uint64) { wordCells(off, w, visit) })
}

// wordCells calls visit, in ascending order, with the index and value of
// every non-zero byte of the little-endian word w read at byte offset off.
func wordCells(off int, w uint64, visit func(i int, v byte)) {
	for w != 0 {
		s := bits.TrailingZeros64(w) &^ 7
		visit(off+s/8, byte(w>>s))
		w &^= 0xff << s
	}
}

// ConsumeTrace consumes one execution's coverage map: it calls visit
// with the index and value of every non-zero cell, and leaves trace
// zeroed. When trace carries a touched-cell index (vm.CovIndexOf) that has
// not overflowed, only the listed cells are read, in the order the
// execution first touched them; the index never misses a non-zero cell,
// so the cells visited are those of the full scan. An overflowed index or
// a map without one is scanned in full, in ascending order. The index is
// reset either way.
func ConsumeTrace(trace []byte, visit func(i int, v byte)) {
	idx := vm.CovIndexOf(trace)
	if idx == nil || idx.Overflowed() {
		scanCells(trace, true, visit)
	} else {
		for k, n := 0, idx.Len(); k < n; k++ {
			i := idx.Cell(k)
			if v := trace[i]; v != 0 {
				trace[i] = 0
				visit(i, v)
			}
		}
	}
	if idx != nil {
		idx.Reset()
	}
}

// ClearTrace zeroes a coverage map through its touched-cell index, which
// it resets, so the next execution's cells are listed afresh. Clearing an
// indexed map any other way leaves its count growing until it overflows.
func ClearTrace(trace []byte) { ConsumeTrace(trace, func(int, byte) {}) }
