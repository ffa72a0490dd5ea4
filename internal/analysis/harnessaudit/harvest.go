package harnessaudit

// Witness harvesting — the second pass over the taint solution. Every
// comparison of a tainted value against a resolvable constant becomes a
// witness; clusters of byte witnesses become dictionary tokens.

import (
	"closurex/internal/ir"
)

// regDefs summarizes each register's defining instructions within one
// function: the assignment count, and — when the single definition is an
// OpConst or an And-mask of a tainted value — what it resolves to.
type regDefs struct {
	count   []int
	constOK []bool
	constV  []int64
	andOK   []bool // unique def is (tainted & constMask)
	andMask []int64
}

func computeDefs(f *ir.Func, taint []bool) *regDefs {
	d := &regDefs{
		count:   make([]int, f.NumRegs),
		constOK: make([]bool, f.NumRegs),
		constV:  make([]int64, f.NumRegs),
		andOK:   make([]bool, f.NumRegs),
		andMask: make([]int64, f.NumRegs),
	}
	// Parameters are assigned at entry.
	for r := 0; r < f.NumParams && r < f.NumRegs; r++ {
		d.count[r]++
	}
	defs := make([]*ir.Instr, f.NumRegs)
	for _, b := range f.Blocks {
		for ii := range b.Instrs {
			in := &b.Instrs[ii]
			if in.Dst >= 0 && in.Dst < f.NumRegs && in.Op != ir.OpStore {
				d.count[in.Dst]++
				defs[in.Dst] = in
			}
		}
	}
	// Constants first, so the And-mask pass below can resolve its mask
	// operand through the same unique-def map.
	for r := 0; r < f.NumRegs; r++ {
		if d.count[r] == 1 && defs[r] != nil && defs[r].Op == ir.OpConst {
			d.constOK[r], d.constV[r] = true, defs[r].Imm
		}
	}
	tainted := func(r int) bool { return r >= 0 && r < len(taint) && taint[r] }
	constOf := func(r int) (int64, bool) {
		if r < 0 || r >= f.NumRegs || !d.constOK[r] {
			return 0, false
		}
		return d.constV[r], true
	}
	for r := 0; r < f.NumRegs; r++ {
		if d.count[r] != 1 || defs[r] == nil {
			continue
		}
		in := defs[r]
		if in.Op == ir.OpBin && in.Bin == ir.And {
			// (tainted & mask) with a resolvable byte mask: the classic
			// field-extraction idiom, e.g. inflite's (cmf & 15) != 8.
			if mv, ok := constOf(in.B); ok && tainted(in.A) && mv > 0 && mv <= 255 {
				d.andOK[r], d.andMask[r] = true, mv
			} else if mv, ok := constOf(in.A); ok && tainted(in.B) && mv > 0 && mv <= 255 {
				d.andOK[r], d.andMask[r] = true, mv
			}
		}
	}
	return d
}

func (d *regDefs) constOf(r int) (int64, bool) {
	if r < 0 || r >= len(d.constOK) || !d.constOK[r] {
		return 0, false
	}
	return d.constV[r], true
}

// runEntry is one byte-compare witness positioned for run clustering.
type runEntry struct {
	block, instr int
	b            byte
}

// harvestFunc scans one function for witnesses, filling res and recording
// compare-sink parameters (params compared against tainted values) into
// sinks for the later call-site clustering pass.
func (st *flowState) harvestFunc(f *ir.Func, res *flowResult, sinks map[string]map[int]bool) {
	taint := st.regTaint[f.Name]
	tainted := func(r int) bool { return r >= 0 && r < len(taint) && taint[r] }
	defs := computeDefs(f, taint)
	constOf := defs.constOf

	var runs []runEntry
	for bi, b := range f.Blocks {
		for ii := range b.Instrs {
			in := &b.Instrs[ii]
			switch in.Op {
			case ir.OpBin:
				if !isCompare(in.Bin) {
					continue
				}
				// Identify the tainted side and a resolvable constant on
				// the other; record param sinks for the clustering pass.
				var c int64
				var tr int // the tainted register
				taintedLeft := false
				if tainted(in.A) {
					tr = in.A
					if v, ok := constOf(in.B); ok {
						c, taintedLeft = v, true
					} else {
						recordSink(f, in.B, defs, sinks)
						continue
					}
				} else if tainted(in.B) {
					tr = in.B
					if v, ok := constOf(in.A); ok {
						c = v
					} else {
						recordSink(f, in.A, defs, sinks)
						continue
					}
				} else {
					continue
				}
				harvestCompare(res, in.Bin, c, taintedLeft, tr, defs, bi, ii, &runs)
			case ir.OpCall:
				if compareCalls[in.Callee] && len(in.Args) >= 2 {
					st.harvestBufCompare(f, in, constOf, res)
				}
			}
		}
	}
	harvestRuns(res, runs)
}

func isCompare(op ir.BinOp) bool {
	switch op {
	case ir.Eq, ir.Ne, ir.Lt, ir.Le, ir.Gt, ir.Ge, ir.Ult, ir.Ule, ir.Ugt, ir.Uge:
		return true
	}
	return false
}

// recordSink notes that fn's parameter r flows into a comparison against a
// tainted value — call sites passing constants there form tokens (the
// fourcc(k, 'S','C','A','L') idiom).
func recordSink(f *ir.Func, r int, defs *regDefs, sinks map[string]map[int]bool) {
	if r < 0 || r >= f.NumParams || defs.count[r] != 1 {
		return // not a parameter, or reassigned before the compare
	}
	s := sinks[f.Name]
	if s == nil {
		s = map[int]bool{}
		sinks[f.Name] = s
	}
	s[r] = true
}

// harvestCompare turns one tainted-vs-constant comparison into witnesses.
func harvestCompare(res *flowResult, op ir.BinOp, c int64, taintedLeft bool, tr int, defs *regDefs, bi, ii int, runs *[]runEntry) {
	switch op {
	case ir.Eq, ir.Ne:
		switch {
		case c >= 0 && c <= 255:
			res.witBytes[byte(c)] = true
			if c != 0 { // ==0 checks are ubiquitous control flow, not magic
				*runs = append(*runs, runEntry{bi, ii, byte(c)})
			}
			if tr >= 0 && tr < len(defs.andOK) && defs.andOK[tr] {
				res.masks = append(res.masks, maskWit{mask: byte(defs.andMask[tr]), val: byte(c)})
			}
		case c > 255:
			for _, enc := range encode(uint64(c)) {
				res.addToken(enc)
				for _, bb := range enc {
					res.witBytes[bb] = true
				}
			}
		}
	default: // ordered compares: interval witnesses over byte values
		if c < 0 || c > 255 {
			return
		}
		res.witBytes[byte(c)] = true
		lo, hi, ok := compareInterval(op, byte(c), taintedLeft)
		if ok {
			res.ranges = append(res.ranges, rangeWit{lo: lo, hi: hi})
		}
	}
}

// compareInterval returns the byte interval the tainted operand must lie
// in for the comparison against c to hold. taintedLeft: tainted OP c.
func compareInterval(op ir.BinOp, c byte, taintedLeft bool) (lo, hi byte, ok bool) {
	if !taintedLeft {
		// c OP tainted  ==  tainted OP' c with the mirrored operator.
		switch op {
		case ir.Lt, ir.Ult:
			op = ir.Gt
		case ir.Le, ir.Ule:
			op = ir.Ge
		case ir.Gt, ir.Ugt:
			op = ir.Lt
		case ir.Ge, ir.Uge:
			op = ir.Le
		}
	}
	switch op {
	case ir.Lt, ir.Ult:
		if c == 0 {
			return 0, 0, false
		}
		return 0, c - 1, true
	case ir.Le, ir.Ule:
		return 0, c, true
	case ir.Gt, ir.Ugt:
		if c == 255 {
			return 0, 0, false
		}
		return c + 1, 255, true
	case ir.Ge, ir.Uge:
		return c, 255, true
	}
	return 0, 0, false
}

// encode renders a multi-byte constant in both endiannesses at its natural
// width — a 2/4/8-byte magic compared as one integer (pcap's 0xa1b2c3d4,
// ttf's 'head' tag) matches input bytes in exactly one of the two.
func encode(v uint64) [][]byte {
	width := 2
	switch {
	case v > 0xffffffff:
		width = 8
	case v > 0xffff:
		width = 4
	}
	le := make([]byte, width)
	be := make([]byte, width)
	for i := 0; i < width; i++ {
		le[i] = byte(v >> (8 * i))
		be[width-1-i] = byte(v >> (8 * i))
	}
	return [][]byte{le, be}
}

// harvestBufCompare handles memcmp/strcmp/strncmp: tainted buffer vs. a
// constant global yields the global's bytes as a token.
func (st *flowState) harvestBufCompare(f *ir.Func, in *ir.Instr, constOf func(int) (int64, bool), res *flowResult) {
	taint := st.regTaint[f.Name]
	taintedPtr := func(r int) bool {
		return (r >= 0 && r < len(taint) && taint[r]) || st.memTaintAt(f.Name, st.tagOf(f.Name, r))
	}
	for side := 0; side < 2; side++ {
		tn, other := in.Args[side], in.Args[1-side]
		if !taintedPtr(tn) {
			continue
		}
		tg := st.tagOf(f.Name, other)
		if tg.kind != tagGlobal || tg.g < 0 || tg.g >= len(st.m.Globals) {
			continue
		}
		g := st.m.Globals[tg.g]
		if !g.Const || len(g.Init) == 0 {
			continue
		}
		tok := g.Init
		if in.Callee != "memcmp" {
			// String compares stop at the NUL.
			for i, bb := range tok {
				if bb == 0 {
					tok = tok[:i]
					break
				}
			}
		} else if len(in.Args) >= 3 {
			if n, ok := constOf(in.Args[2]); ok && n > 0 && int(n) < len(tok) {
				tok = tok[:n]
			}
		}
		res.addToken(tok)
		for _, bb := range tok {
			res.witBytes[bb] = true
		}
		return
	}
}

// harvestCallClusters is the second harvesting pass: with every function's
// compare-sink parameters known, constant arguments at call sites form
// tokens in parameter order — fourcc(k, 'S','C','A','L') contributes
// "SCAL".
func (st *flowState) harvestCallClusters(f *ir.Func, res *flowResult, sinks map[string]map[int]bool) {
	taint := st.regTaint[f.Name]
	defs := computeDefs(f, taint)
	constOf := defs.constOf
	for _, b := range f.Blocks {
		for ii := range b.Instrs {
			in := &b.Instrs[ii]
			if in.Op != ir.OpCall {
				continue
			}
			s := sinks[in.Callee]
			if len(s) == 0 {
				continue
			}
			var cluster []byte
			for pi, a := range in.Args {
				if !s[pi] {
					continue
				}
				if c, ok := constOf(a); ok && c > 0 && c <= 255 {
					cluster = append(cluster, byte(c))
					res.witBytes[byte(c)] = true
				}
			}
			res.addToken(cluster)
		}
	}
}

// harvestRuns groups byte-compare witnesses appearing in consecutive
// blocks of one function into tokens — chained &&-style byte checks
// ("GIF8", "ustar", "b2fr" byte by byte) lower to one compare per block.
func harvestRuns(res *flowResult, runs []runEntry) {
	var cur []byte
	lastBlock := -100
	flush := func() {
		res.addToken(cur)
		cur = nil
	}
	for _, e := range runs {
		if e.block-lastBlock > 2 || len(cur) >= maxRunLen {
			flush()
		}
		cur = append(cur, e.b)
		lastBlock = e.block
	}
	flush()
}
