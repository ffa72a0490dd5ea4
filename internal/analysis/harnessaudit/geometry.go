package harnessaudit

// Coverage-geometry analysis (CLX120). CoveragePass gives every block a
// deterministic 16-bit probe ID, repairing hash collisions by linear
// probing; the runtime bitmap (fuzz.MapSize cells) indexes by probe ID
// xor-folded with the previous location. Geometry degrades two ways:
//
//   - saturation: once the probe population approaches the cell count,
//     distinct edges alias the same cells and the campaign can no longer
//     tell new coverage from old — the bitmap reads as "explored" while
//     the target is not.
//   - displacement: every collision-repaired probe sits at id+k instead of
//     its hash slot. Displacement is correct (collision-free by
//     construction) but its *density* measures how crowded the hash space
//     already is — the leading indicator of saturation.
//
// The analysis is parameterized by the cell count so the seeded-defect
// tests can hand it a deliberately tiny map; production audits use the
// real 2^16 geometry, where all benchmark targets sit far below both
// thresholds.

import (
	"fmt"

	"closurex/internal/analysis"
	"closurex/internal/ir"
	"closurex/internal/passes"
)

// mapCellsDefault is the production coverage-map size.
const mapCellsDefault = passes.CovMapCells

// geomResult is the module's coverage-geometry accounting.
type geomResult struct {
	probes      int // OpCov instructions
	staticEdges int // passes.TotalEdges: the coverage denominator
	mapCells    int
	displaced   int // probes whose Imm differs from their preferred hash slot
}

// analyzeGeometry reads the committed probe assignments back out of the
// module and compares each against the slot CoveragePass would have
// preferred for (passes.CoverageSeed, function, block).
func analyzeGeometry(m *ir.Module, mapCells int) *geomResult {
	res := &geomResult{
		staticEdges: passes.TotalEdges(m),
		mapCells:    mapCells,
	}
	for _, f := range m.Funcs {
		for bi, b := range f.Blocks {
			for ii := range b.Instrs {
				in := &b.Instrs[ii]
				if in.Op != ir.OpCov {
					continue
				}
				res.probes++
				if in.Imm != passes.PreferredProbeID(passes.CoverageSeed, f.Name, bi) {
					res.displaced++
				}
			}
		}
	}
	return res
}

// saturationPct is the probe population as a percentage of map cells.
func (g *geomResult) saturationPct() float64 {
	if g.mapCells == 0 {
		return 0
	}
	return round1(100 * float64(g.probes) / float64(g.mapCells))
}

// displacedPct is the collision-displaced share of the probe population.
func (g *geomResult) displacedPct() float64 {
	if g.probes == 0 {
		return 0
	}
	return round1(100 * float64(g.displaced) / float64(g.probes))
}

// diagnostics emits CLX120 when either geometry metric crosses its
// threshold. Module-level: the finding is about the map, not one block.
func (g *geomResult) diagnostics() analysis.Diagnostics {
	var ds analysis.Diagnostics
	if s := g.saturationPct(); s > DefaultMaxSaturationPct {
		ds = append(ds, analysis.Diagnostic{
			ID: analysis.IDCovSaturation, Sev: analysis.SevWarn, Pass: auditPass,
			Block: -1, Instr: -1,
			Msg: fmt.Sprintf("coverage map saturated: %d probes over %d cells (%.1f%% > %.1f%%); new coverage becomes indistinguishable from aliasing",
				g.probes, g.mapCells, s, DefaultMaxSaturationPct),
		})
	}
	if d := g.displacedPct(); d > DefaultMaxDisplacedPct {
		ds = append(ds, analysis.Diagnostic{
			ID: analysis.IDCovSaturation, Sev: analysis.SevWarn, Pass: auditPass,
			Block: -1, Instr: -1,
			Msg: fmt.Sprintf("probe hash space crowded: %d of %d probes collision-displaced (%.1f%% > %.1f%%)",
				g.displaced, g.probes, d, DefaultMaxDisplacedPct),
		})
	}
	return ds
}
