package analysis_test

import (
	"testing"

	"closurex/internal/analysis"
	"closurex/internal/core"
	"closurex/internal/ir"
	"closurex/internal/targets"
)

// TestReachingDefsSiteIndex checks SiteAt against a brute-force search of
// Sites for every instruction of every function of every target, plain and
// instrumented (the sanitizer and coverage passes add instructions that
// define no register). Parameter sites and out-of-range blocks must not
// resolve.
func TestReachingDefsSiteIndex(t *testing.T) {
	instrumented := core.BuildConfig{Variant: core.ClosureX, Sanitize: core.SanitizeElide, Interproc: true}
	for _, tg := range targets.All() {
		file := tg.Short + ".c"
		plain, err := core.Compile(file, tg.Source)
		if err != nil {
			t.Fatalf("%s: %v", tg.Name, err)
		}
		inst, err := core.BuildWith(file, tg.Source, instrumented)
		if err != nil {
			t.Fatalf("%s: %v", tg.Name, err)
		}
		for _, m := range []*ir.Module{plain, inst} {
			for _, f := range m.Funcs {
				checkSiteIndex(t, tg.Name+"/"+f.Name, f)
			}
		}
	}
}

func checkSiteIndex(t *testing.T, name string, f *ir.Func) {
	t.Helper()
	rd := analysis.ComputeReachingDefs(analysis.BuildCFG(f))
	bruteForce := func(block, instr int) (int, bool) {
		for i, s := range rd.Sites {
			if s.Block >= 0 && s.Block == block && s.Instr == instr {
				return i, true
			}
		}
		return -1, false
	}
	nodef := 0
	for bi, b := range f.Blocks {
		for ii := range b.Instrs {
			want, wantOK := bruteForce(bi, ii)
			got, ok := rd.SiteAt(bi, ii)
			if got != want || ok != wantOK {
				t.Fatalf("%s: SiteAt(%d, %d) = %d, %v; brute force finds %d, %v", name, bi, ii, got, ok, want, wantOK)
			}
			if !ok {
				nodef++
			}
		}
		// One past the block's last instruction defines nothing.
		if _, ok := rd.SiteAt(bi, len(b.Instrs)); ok {
			t.Fatalf("%s: SiteAt(%d, %d) past the block end resolved", name, bi, len(b.Instrs))
		}
	}
	if nodef == 0 {
		t.Fatalf("%s: no instruction without a definition was checked", name)
	}
	// Parameter sites live at the virtual (-1, -1) position; neither it nor
	// a block outside the function may resolve.
	for _, pos := range [][2]int{{-1, -1}, {-1, 0}, {len(f.Blocks), 0}, {len(f.Blocks) + 5, 0}} {
		if i, ok := rd.SiteAt(pos[0], pos[1]); ok {
			t.Fatalf("%s: SiteAt(%d, %d) = %d, want no site", name, pos[0], pos[1], i)
		}
	}
	for p := 0; p < f.NumParams; p++ {
		if s := rd.Sites[p]; s.Block != -1 || s.Reg != p {
			t.Fatalf("%s: site %d = %+v, want parameter %d", name, p, s, p)
		}
	}
}
