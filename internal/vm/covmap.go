package vm

import "fmt"

// Coverage-map format. A coverage map is CovMapSize bytes of AFL-style hit
// counts. A map allocated by NewCovMap also carries a touched-line index:
// CovIndexSize bytes stored in the same allocation, past len, one byte per
// CovLineSize-byte line of the map. The VM's OpCov sets a line's index
// byte whenever it bumps a cell in that line, so a consumer can visit only
// the marked lines instead of reading the whole map.
//
// The invariant is one-sided: every non-zero line has its index byte set.
// A set byte over a zero line is allowed, so the index may over-report
// but never miss — clearing a map without clearing its index stays safe.
// Whoever zeroes the map's lines through the index clears the index too
// (fuzz.Bitmap.Update does both).
const (
	// CovMapSize is the AFL-compatible coverage map size.
	CovMapSize = 1 << 16
	// CovLineShift is log2 of CovLineSize.
	CovLineShift = 6
	// CovLineSize is the map span one index byte stands for: a cache line.
	CovLineSize = 1 << CovLineShift
	// CovIndexSize is the index length, one byte per map line.
	CovIndexSize = CovMapSize >> CovLineShift
)

// NewCovMap allocates a zeroed coverage map with its touched-line index:
// the returned slice has length CovMapSize, and the index lives in the
// CovIndexSize bytes of capacity past it (see CovIndex). It is usable
// anywhere a plain CovMapSize map is.
func NewCovMap() []byte {
	return make([]byte, CovMapSize+CovIndexSize)[:CovMapSize]
}

// CovIndex returns m's touched-line index, or nil when m is not a map
// allocated by NewCovMap. Only a slice of exactly length CovMapSize and
// capacity CovMapSize+CovIndexSize qualifies: a plain
// make([]byte, CovMapSize) and a copy made with append both have capacity
// CovMapSize (the size is page-aligned, so append does not round it up),
// and a re-slice has a shorter length.
func CovIndex(m []byte) *[CovIndexSize]byte {
	if len(m) != CovMapSize || cap(m) != CovMapSize+CovIndexSize {
		return nil
	}
	return (*[CovIndexSize]byte)(m[CovMapSize : CovMapSize+CovIndexSize])
}

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
	v.covIdx = CovIndex(m)
	if v.covIdx == nil {
		v.covIdx = new([CovIndexSize]byte)
	}
	return nil
}

// EngineCov returns the coverage map bound at construction (always
// non-nil: VMs built without an external map carry a scratch one), with
// its capacity intact so CovIndex still finds the index. A caller that
// builds campaign shards from an existing VM passes it as the shard's map.
func (v *VM) EngineCov() []byte { return v.covMap }
