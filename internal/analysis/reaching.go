package analysis

import "closurex/internal/ir"

// DefSite is one register definition: the instruction at F.Blocks[Block].
// Instrs[Instr] writes register Reg. Parameters are modeled as definitions
// at a virtual site with Block == -1.
type DefSite struct {
	Block, Instr int
	Reg          int
}

// ReachingDefs is the forward may-analysis over definition sites: In[b]
// holds every DefSite index that may reach block b's entry along some
// path.
type ReachingDefs struct {
	// Sites enumerates all definition sites; bit i in the sets below refers
	// to Sites[i]. The first NumParams entries are the virtual parameter
	// definitions.
	Sites   []DefSite
	In, Out []BitSet

	f *ir.Func
	// first[b] is the index in Sites of block b's first site; block b's
	// sites are Sites[first[b]:first[b+1]], in instruction order.
	first []int
}

// SiteAt returns the index of the definition site at (block, instr), if
// that instruction defines a register.
func (rd *ReachingDefs) SiteAt(block, instr int) (int, bool) {
	if block < 0 || block >= len(rd.first)-1 {
		return -1, false
	}
	for i := rd.first[block]; i < rd.first[block+1] && rd.Sites[i].Instr <= instr; i++ {
		if rd.Sites[i].Instr == instr {
			return i, true
		}
	}
	return -1, false
}

// UseSite resolves the unique definition site feeding register r as read
// by the instruction at (block, instr), or -1 when zero or several
// definitions (loop-carried values, merges) may reach it.
func (rd *ReachingDefs) UseSite(block, instr, r int) int {
	// A def of r earlier in the same block shadows everything inbound.
	for j := instr - 1; j >= 0; j-- {
		if InstrDef(&rd.f.Blocks[block].Instrs[j]) == r {
			site, _ := rd.SiteAt(block, j)
			return site
		}
	}
	// Otherwise the block-entry reaching set must name exactly one site.
	site := -1
	for i := range rd.Sites {
		if rd.Sites[i].Reg == r && rd.In[block].Has(i) {
			if site >= 0 {
				return -1
			}
			site = i
		}
	}
	return site
}

// ComputeReachingDefs solves reaching definitions for c's function.
func ComputeReachingDefs(c *CFG) *ReachingDefs {
	f := c.F
	rd := &ReachingDefs{f: f, first: make([]int, len(f.Blocks)+1)}
	// Enumerate sites: parameters first, then textual order.
	for p := 0; p < f.NumParams; p++ {
		rd.Sites = append(rd.Sites, DefSite{Block: -1, Instr: -1, Reg: p})
	}
	byReg := make([][]int, f.NumRegs) // register -> site indices
	for p := 0; p < f.NumParams && p < f.NumRegs; p++ {
		byReg[p] = append(byReg[p], p)
	}
	for bi, b := range f.Blocks {
		rd.first[bi] = len(rd.Sites)
		for ii := range b.Instrs {
			if d := InstrDef(&b.Instrs[ii]); d >= 0 && d < f.NumRegs {
				byReg[d] = append(byReg[d], len(rd.Sites))
				rd.Sites = append(rd.Sites, DefSite{Block: bi, Instr: ii, Reg: d})
			}
		}
	}
	nsites := len(rd.Sites)
	rd.first[len(f.Blocks)] = nsites

	// Per-block gen (last def of each register inside the block) and kill
	// (every other site of a register the block defines).
	n := len(f.Blocks)
	gen := make([]BitSet, n)
	kill := make([]BitSet, n)
	site := f.NumParams
	for bi, b := range f.Blocks {
		g := NewBitSet(nsites)
		k := NewBitSet(nsites)
		for ii := range b.Instrs {
			d := InstrDef(&b.Instrs[ii])
			if d < 0 || d >= f.NumRegs {
				continue
			}
			for _, other := range byReg[d] {
				if other != site {
					k.Set(other)
				}
				g.Clear(other)
			}
			g.Set(site)
			k.Clear(site)
			site++
		}
		gen[bi], kill[bi] = g, k
	}

	boundary := NewBitSet(nsites)
	for p := 0; p < f.NumParams; p++ {
		boundary.Set(p)
	}
	sol := Solve(c, Problem{
		Dir:      Forward,
		NewValue: func() BitSet { return NewBitSet(nsites) },
		Boundary: func() BitSet { return boundary.Copy() },
		Meet:     func(acc, nb BitSet) { acc.Union(nb) },
		Transfer: func(b int, in BitSet) BitSet {
			// out = gen ∪ (in − kill)
			out := in.Copy()
			for i := range out {
				out[i] = gen[b][i] | (in[i] &^ kill[b][i])
			}
			return out
		},
	})
	rd.In, rd.Out = sol.In, sol.Out
	return rd
}

// assignedInfo is the definite-assignment instance the verifier consumes: a
// forward must-analysis (meet = intersection) computing, per block, the set
// of registers assigned on EVERY path from entry. A register read where it
// is not definitely assigned can expose garbage on some execution — the
// class of bug a reordered or buggy pass introduces when it moves a use
// above its def.
type assignedInfo struct {
	in []BitSet // definitely-assigned registers at block entry
}

// computeAssigned solves definite assignment over c. Parameters (and, for
// robustness, nothing else) are assigned at entry. The interior initial
// value is ⊤ (all registers) so that loops converge to the intersection
// over real paths; unreachable blocks keep ⊤ and thus never constrain or
// produce findings.
func computeAssigned(c *CFG) *assignedInfo {
	f := c.F
	top := func() BitSet {
		s := NewBitSet(f.NumRegs)
		s.Fill(f.NumRegs)
		return s
	}
	boundary := NewBitSet(f.NumRegs)
	for p := 0; p < f.NumParams && p < f.NumRegs; p++ {
		boundary.Set(p)
	}
	sol := Solve(c, Problem{
		Dir:      Forward,
		NewValue: top,
		Boundary: func() BitSet { return boundary.Copy() },
		Meet:     func(acc, nb BitSet) { acc.Intersect(nb) },
		Transfer: func(b int, in BitSet) BitSet {
			out := in.Copy()
			for ii := range f.Blocks[b].Instrs {
				if d := InstrDef(&f.Blocks[b].Instrs[ii]); d >= 0 && d < f.NumRegs {
					out.Set(d)
				}
			}
			return out
		},
	})
	return &assignedInfo{in: sol.In}
}
