package vm

import (
	"encoding/binary"
	"fmt"
)

// Coverage-map format. A coverage map is CovMapSize bytes of AFL-style hit
// counts. A map allocated by NewCovMap also carries a touched-cell index:
// CovIndexSize bytes stored in the same allocation, past len. The index is
// a little-endian uint16 count followed by up to CovIndexCap little-endian
// uint16 cell numbers. The VM's OpCov appends a cell's number whenever it
// bumps the cell from zero, so a consumer can visit only the listed cells
// instead of reading the whole map.
//
// The invariant is one-sided: unless the index has overflowed, every
// non-zero cell is listed. A listed cell that is zero is allowed, and so
// is a cell listed twice (a map cleared without its index, or a count that
// wrapped through 255 back to zero), so the index may over-report but
// never miss. Past CovIndexCap new cells the count stops at
// CovIndexCap+1 and the index has overflowed: the consumer must read the
// whole map. Whoever zeroes a map through its index resets the count too
// (CovIndex.Reset).
const (
	// CovMapSize is the AFL-compatible coverage map size.
	CovMapSize = 1 << 16
	// CovIndexCap is how many cells the index lists before it overflows.
	// Listing a cell costs a consumer a random access into the map; at
	// about a thousand cells that adds up to one full-map scan, so past
	// that the full scan is as cheap.
	CovIndexCap = 1024
	// CovIndexSize is the index length in bytes: the count and the cells.
	CovIndexSize = 2 + 2*CovIndexCap
)

// CovIndex is the touched-cell index of a NewCovMap map (see the format
// above).
type CovIndex [CovIndexSize]byte

// NewCovMap allocates a zeroed coverage map with its touched-cell index:
// the returned slice has length CovMapSize, and the index lives in the
// CovIndexSize bytes of capacity past it (see CovIndexOf). It is usable
// anywhere a plain CovMapSize map is.
func NewCovMap() []byte {
	return make([]byte, CovMapSize+CovIndexSize)[:CovMapSize]
}

// CovIndexOf returns m's touched-cell index, or nil when m is not a map
// allocated by NewCovMap. Only a slice of exactly length CovMapSize and
// capacity CovMapSize+CovIndexSize qualifies: a plain
// make([]byte, CovMapSize) and a copy made with append both have capacity
// CovMapSize (the size is page-aligned, so append does not round it up),
// and a re-slice has a shorter length.
func CovIndexOf(m []byte) *CovIndex {
	if len(m) != CovMapSize || cap(m) != CovMapSize+CovIndexSize {
		return nil
	}
	return (*CovIndex)(m[CovMapSize : CovMapSize+CovIndexSize])
}

// count is the stored count: the number of listed cells, or CovIndexCap+1
// once the index has overflowed.
func (x *CovIndex) count() int { return int(binary.LittleEndian.Uint16(x[:])) }

// Len returns the number of listed cells (at most CovIndexCap).
func (x *CovIndex) Len() int { return min(x.count(), CovIndexCap) }

// Overflowed reports whether more cells went non-zero than the index can
// list, so the map must be read in full.
func (x *CovIndex) Overflowed() bool { return x.count() > CovIndexCap }

// Cell returns the k-th listed cell, for k < Len().
func (x *CovIndex) Cell(k int) int { return int(binary.LittleEndian.Uint16(x[2+2*k:])) }

// Add lists cell, the way OpCov does when it bumps the cell from zero.
func (x *CovIndex) Add(cell int) {
	n := x.count()
	if n < CovIndexCap {
		binary.LittleEndian.PutUint16(x[2+2*n:], uint16(cell))
	}
	if n <= CovIndexCap {
		binary.LittleEndian.PutUint16(x[:], uint16(n+1))
	}
}

// Reset empties the index. Call it only once every listed cell, or after
// an overflow the whole map, is zero again.
func (x *CovIndex) Reset() { binary.LittleEndian.PutUint16(x[:], 0) }

// bindCov attaches the coverage map (or a private scratch one when m is
// nil) and its index (or a private scratch index when m has none), so the
// hot loop writes both without a nil check.
func (v *VM) bindCov(m []byte) error {
	if m == nil {
		// A VM built without an external map writes into a private scratch
		// map nobody reads.
		m = NewCovMap()
	}
	if len(m) != CovMapSize {
		return fmt.Errorf("vm: coverage map is %d bytes, want %d", len(m), CovMapSize)
	}
	v.covMap = m
	v.cov = (*[CovMapSize]byte)(m)
	v.covIdx = CovIndexOf(m)
	if v.covIdx == nil {
		v.covIdx = new(CovIndex)
	}
	return nil
}

// EngineCov returns the coverage map bound at construction (always
// non-nil: VMs built without an external map carry a scratch one), with
// its capacity intact so CovIndexOf still finds the index. A caller that
// builds campaign shards from an existing VM passes it as the shard's map.
func (v *VM) EngineCov() []byte { return v.covMap }
