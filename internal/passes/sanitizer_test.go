package passes

import (
	"testing"

	"closurex/internal/analysis"
	"closurex/internal/analysis/sanitize"
	"closurex/internal/ir"
	"closurex/internal/vm"
)

// sanitizeSample runs the ClosureX pipeline + SanitizerPass + coverage over
// the shared sample program.
func sanitizeSample(t *testing.T, elide bool) *ir.Module {
	t.Helper()
	m := compileSample(t)
	pm := NewManager(vm.Builtins())
	pm.Add(ClosureXPipeline(false)...)
	pm.Add(SanitizerPass{Elide: elide})
	pm.Add(NewCoveragePass(1))
	if err := pm.Run(m); err != nil {
		t.Fatalf("pipeline: %v", err)
	}
	return m
}

func countOps(m *ir.Module, op ir.Op) int {
	n := 0
	for _, f := range m.Funcs {
		for _, b := range f.Blocks {
			for i := range b.Instrs {
				if b.Instrs[i].Op == op {
					n++
				}
			}
		}
	}
	return n
}

func TestSanitizerPassCoversEveryAccess(t *testing.T) {
	m := sanitizeSample(t, false)
	if !m.Sanitized {
		t.Fatal("module not marked Sanitized")
	}
	loads := countOps(m, ir.OpLoad) + countOps(m, ir.OpStore)
	checks := countOps(m, ir.OpSanCheck)
	if loads == 0 {
		t.Fatal("sample has no accesses")
	}
	if checks != loads {
		t.Fatalf("without elision every access must be checked: %d checks, %d accesses", checks, loads)
	}
	// The structural verifier (including CLX112/CLX113) accepts the result.
	if ds := analysis.Verify(m, vm.Builtins()); ds.HasErrors() {
		t.Fatalf("verifier rejects sanitized module: %v", ds.Errors())
	}
}

func TestSanitizerPassElidesAndStaysVerified(t *testing.T) {
	m := sanitizeSample(t, true)
	rep := sanitize.ReportModule(m)
	checks, elided := rep.Totals()
	if elided == 0 {
		t.Fatal("elision analysis proved nothing on the sample")
	}
	total := countOps(m, ir.OpLoad) + countOps(m, ir.OpStore)
	if checks+elided != total {
		t.Fatalf("checks(%d)+elided(%d) != accesses(%d)", checks, elided, total)
	}
	if ds := analysis.Verify(m, vm.Builtins()); ds.HasErrors() {
		t.Fatalf("verifier rejects elided module: %v", ds.Errors())
	}
}

func TestSanitizerPassIdempotent(t *testing.T) {
	m := sanitizeSample(t, true)
	before := countOps(m, ir.OpSanCheck)
	if err := (SanitizerPass{Elide: true}).Run(m); err != nil {
		t.Fatal(err)
	}
	if after := countOps(m, ir.OpSanCheck); after != before {
		t.Fatalf("second run changed check count: %d -> %d", before, after)
	}
}

func TestSanitizerPassPreservesCoverageGeometry(t *testing.T) {
	plain := compileSample(t)
	pm := NewManager(vm.Builtins())
	pm.Add(ClosureXPipeline(false)...)
	pm.Add(NewCoveragePass(1))
	if err := pm.Run(plain); err != nil {
		t.Fatal(err)
	}
	san := sanitizeSample(t, true)
	if a, b := CountProbes(plain), CountProbes(san); a != b {
		t.Fatalf("probe counts diverge: plain=%d sanitized=%d", a, b)
	}
	probeIDs := func(m *ir.Module) []int64 {
		var ids []int64
		for _, f := range m.Funcs {
			for _, b := range f.Blocks {
				for i := range b.Instrs {
					if b.Instrs[i].Op == ir.OpCov {
						ids = append(ids, b.Instrs[i].Imm)
					}
				}
			}
		}
		return ids
	}
	a, b := probeIDs(plain), probeIDs(san)
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("probe %d diverges: %d vs %d", i, a[i], b[i])
		}
	}
}

// --- CLX111/112/113 verifier rules ---

// sanVerify builds a tiny hand-rolled sanitized function and runs the
// structural verifier over it.
func sanVerify(t *testing.T, mutate func(f *ir.Func)) analysis.Diagnostics {
	t.Helper()
	b := ir.NewBuilder("f", 0)
	off := b.Alloca(8)
	fp := b.FrameAddr(off)
	v := b.Const(7)
	b.Store(fp, v, 0, 8)
	x := b.Load(fp, 0, 8)
	b.Ret(x)
	f, err := b.Finish()
	if err != nil {
		t.Fatal(err)
	}
	m := &ir.Module{Funcs: []*ir.Func{f}}
	if err := (SanitizerPass{}).Run(m); err != nil {
		t.Fatal(err)
	}
	if mutate != nil {
		mutate(f)
	}
	return analysis.Verify(m, vm.Builtins())
}

func TestVerifySanitizedModuleClean(t *testing.T) {
	if ds := sanVerify(t, nil); len(ds.ByID(analysis.IDBadSanCheck))+
		len(ds.ByID(analysis.IDOrphanCheck))+len(ds.ByID(analysis.IDUncheckedAcc)) != 0 {
		t.Fatalf("clean sanitized module flagged: %v", ds)
	}
}

func TestVerifyCLX111BadDirection(t *testing.T) {
	ds := sanVerify(t, func(f *ir.Func) {
		for _, b := range f.Blocks {
			for i := range b.Instrs {
				if b.Instrs[i].Op == ir.OpSanCheck {
					b.Instrs[i].B = 2
					return
				}
			}
		}
	})
	if len(ds.ByID(analysis.IDBadSanCheck)) == 0 {
		t.Fatalf("bad sancheck direction not flagged: %v", ds)
	}
}

func TestVerifyCLX112OrphanCheck(t *testing.T) {
	ds := sanVerify(t, func(f *ir.Func) {
		// Desynchronize a check from its access by flipping its offset.
		for _, b := range f.Blocks {
			for i := range b.Instrs {
				if b.Instrs[i].Op == ir.OpSanCheck {
					b.Instrs[i].Imm += 4
					return
				}
			}
		}
	})
	if len(ds.ByID(analysis.IDOrphanCheck)) == 0 {
		t.Fatalf("orphaned sancheck not flagged: %v", ds)
	}
}

func TestVerifyCLX113UncheckedAccess(t *testing.T) {
	ds := sanVerify(t, func(f *ir.Func) {
		// Delete the first sancheck: its access becomes unchecked.
		for _, b := range f.Blocks {
			for i := range b.Instrs {
				if b.Instrs[i].Op == ir.OpSanCheck {
					b.Instrs = append(b.Instrs[:i], b.Instrs[i+1:]...)
					return
				}
			}
		}
	})
	if len(ds.ByID(analysis.IDUncheckedAcc)) == 0 {
		t.Fatalf("unchecked access in sanitized module not flagged: %v", ds)
	}
}

func TestVerifyElidedAccessNotFlagged(t *testing.T) {
	// SanElide is the sanctioned way to skip a check: CLX113 must accept it.
	ds := sanVerify(t, func(f *ir.Func) {
		for _, b := range f.Blocks {
			for i := range b.Instrs {
				if b.Instrs[i].Op == ir.OpSanCheck {
					b.Instrs[i+1].SanElide = true
					b.Instrs = append(b.Instrs[:i], b.Instrs[i+1:]...)
					return
				}
			}
		}
	})
	if n := len(ds.ByID(analysis.IDUncheckedAcc)); n != 0 {
		t.Fatalf("elided access flagged by CLX113: %v", ds)
	}
}

// TestSanitizerPassKeepsByteIndexedCheck: a store indexed by a byte load,
// buf[*(u8*)p] into a 256-byte frame buffer, is in bounds for every index
// the load can produce, but the sanitizer evaluates with
// analysis.Values.NoNarrowLoads set and so keeps the store's check.
func TestSanitizerPassKeepsByteIndexedCheck(t *testing.T) {
	b := ir.NewBuilder("f", 1)
	buf := b.FrameAddr(b.Alloca(256))
	idx := b.Load(0, 0, 1)
	addr := b.Bin(ir.Add, buf, idx)
	zero := b.Const(0)
	b.Store(addr, zero, 0, 1)
	b.Ret(zero)
	f, err := b.Finish()
	if err != nil {
		t.Fatal(err)
	}
	m := &ir.Module{Funcs: []*ir.Func{f}}
	if err := (SanitizerPass{Elide: true}).Run(m); err != nil {
		t.Fatal(err)
	}
	instrs := f.Blocks[0].Instrs
	for i := range instrs {
		if instrs[i].Op != ir.OpStore {
			continue
		}
		if instrs[i].SanElide || i == 0 || instrs[i-1].Op != ir.OpSanCheck {
			t.Fatalf("byte-indexed store lost its check:\n%s", ir.Print(m))
		}
		return
	}
	t.Fatal("store not found")
}
