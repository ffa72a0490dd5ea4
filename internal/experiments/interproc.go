package experiments

// Restore-elision experiment: every benchmark target built with the
// interprocedural mod/ref + lifetime analyses, reporting how much of the
// per-iteration restore work the proofs discharge — closure-section bytes
// outside the may-write scope, alloc sites proven freed on all paths, fopen
// sites proven closed — plus on/off throughput from identical campaigns.
// The report backs `make benchjson` (BENCH_interproc.json); the
// bit-identical coverage claim itself is enforced by the differential test
// suite, but the bench cross-checks edge counts as a cheap tripwire.

import (
	"fmt"
	"strings"

	"closurex/internal/core"
	"closurex/internal/execmgr"
	"closurex/internal/targets"
)

// ElisionRow is one target's point of the restore-elision experiment.
type ElisionRow struct {
	Target string `json:"target"`
	// SectionBytes is the closure_global_section size; MayWriteBytes the
	// subset inside the analysis' may-write ranges (equal when the
	// analysis fell back to whole-section scope).
	SectionBytes  int     `json:"section_bytes"`
	MayWriteBytes int     `json:"may_write_bytes"`
	ByteReduction float64 `json:"byte_reduction"` // fraction of section bytes elided
	WholeSection  bool    `json:"whole_section"`
	AllocSites    int     `json:"alloc_sites"`
	AllocElided   int     `json:"alloc_elided"`
	FileSites     int     `json:"file_sites"`
	FileElided    int     `json:"file_elided"`
	SiteReduction float64 `json:"site_reduction"` // fraction of alloc+fopen sites elided
	// Throughput of the same campaign (same seed, same execs, pinned VM
	// randomness) with elision off and on; EdgesMatch tripwires coverage
	// divergence: every round of both arms must reach one edge count.
	ExecsPerSecOff Spread `json:"execs_per_sec_off"`
	ExecsPerSecOn  Spread `json:"execs_per_sec_on"`
	Speedup        Ratio  `json:"speedup"`
	EdgesMatch     bool   `json:"edges_match"`
}

// ElisionReport is the JSON envelope BENCH_interproc.json carries.
type ElisionReport struct {
	Host           Host         `json:"host"`
	Mechanism      string       `json:"mechanism"`
	ExecsPerTarget int64        `json:"execs_per_target"`
	Rows           []ElisionRow `json:"rows"`
	// Aggregates over all targets; the acceptance bar is >= 0.20 on
	// either reduction.
	TotalSectionBytes  int     `json:"total_section_bytes"`
	TotalMayWriteBytes int     `json:"total_may_write_bytes"`
	ByteReduction      float64 `json:"byte_reduction"`
	TotalSites         int     `json:"total_sites"`
	TotalElided        int     `json:"total_elided"`
	SiteReduction      float64 `json:"site_reduction"`
}

// RunRestoreElision builds every registered target with the
// interprocedural analyses armed, records the static elision statistics,
// and times execsPerTarget executions of the same campaign with elision
// off and on.
func RunRestoreElision(execsPerTarget int64, seed uint64) (*ElisionReport, error) {
	if execsPerTarget <= 0 {
		execsPerTarget = 10000
	}
	rep := &ElisionReport{
		Host:           thisHost(),
		Mechanism:      MechClosureX,
		ExecsPerTarget: execsPerTarget,
	}
	for _, t := range targets.All() {
		row := ElisionRow{Target: t.Name}

		// Static side: one instrumented build carries the module metadata
		// and the harness' range arithmetic.
		inst, err := core.NewInstance(t, MechClosureX, core.InstanceOptions{
			TrialSeed: seed,
			Interproc: true,
		})
		if err != nil {
			return nil, fmt.Errorf("experiments: %s: %w", t.Name, err)
		}
		info := inst.Module.Interproc
		if info == nil {
			inst.Close()
			return nil, fmt.Errorf("experiments: %s: InterprocPass left no metadata", t.Name)
		}
		cx, ok := inst.Mech.(*execmgr.ClosureX)
		if !ok {
			inst.Close()
			return nil, fmt.Errorf("experiments: %s: mechanism %T is not *execmgr.ClosureX", t.Name, inst.Mech)
		}
		h := cx.Harness()
		row.SectionBytes = h.GlobalSnapshotSize()
		row.MayWriteBytes = h.ElisionRangeBytes()
		row.WholeSection = info.WholeSection
		row.AllocSites, row.AllocElided = info.AllocSites, info.AllocElided
		row.FileSites, row.FileElided = info.FileSites, info.FileElided
		if row.SectionBytes > 0 {
			row.ByteReduction = 1 - float64(row.MayWriteBytes)/float64(row.SectionBytes)
		}
		if sites := row.AllocSites + row.FileSites; sites > 0 {
			row.SiteReduction = float64(row.AllocElided+row.FileElided) / float64(sites)
		}
		inst.Close()

		// Dynamic side: identical campaigns (same trial seed) with and
		// without elision.
		var edges []int
		observe := func(inst *core.Instance) { edges = append(edges, inst.Driver().Edges()) }
		opts := core.InstanceOptions{TrialSeed: seed, DeterministicRand: true}
		on := opts
		on.Interproc = true
		sp, err := sweep(campaignArm(t, opts, execsPerTarget, observe), campaignArm(t, on, execsPerTarget, observe))
		if err != nil {
			return nil, err
		}
		row.ExecsPerSecOff, row.ExecsPerSecOn = sp[0], sp[1]
		row.Speedup = ratio(sp[1], sp[0])
		row.EdgesMatch = allEqual(edges)

		rep.Rows = append(rep.Rows, row)
		rep.TotalSectionBytes += row.SectionBytes
		rep.TotalMayWriteBytes += row.MayWriteBytes
		rep.TotalSites += row.AllocSites + row.FileSites
		rep.TotalElided += row.AllocElided + row.FileElided
	}
	if rep.TotalSectionBytes > 0 {
		rep.ByteReduction = 1 - float64(rep.TotalMayWriteBytes)/float64(rep.TotalSectionBytes)
	}
	if rep.TotalSites > 0 {
		rep.SiteReduction = float64(rep.TotalElided) / float64(rep.TotalSites)
	}
	return rep, nil
}

// FormatElision renders the restore-elision report as an aligned table.
func FormatElision(rep *ElisionReport) string {
	var b strings.Builder
	fmt.Fprintf(&b, "Interprocedural restore elision under %s (%d execs per point, median of %d alternating rounds):\n",
		rep.Mechanism, rep.ExecsPerTarget, rep.Host.Rounds)
	fmt.Fprintf(&b, "  %-16s %9s %9s %7s %9s %9s %7s %9s %9s %-17s %5s\n",
		"target", "sect B", "write B", "byte-", "alloc e/n", "file e/n", "site-",
		"off ex/s", "on ex/s", "speedup", "edges")
	for _, r := range rep.Rows {
		scope := fmt.Sprintf("%4.0f%%", 100*r.ByteReduction)
		if r.WholeSection {
			scope = "whole"
		}
		match := "ok"
		if !r.EdgesMatch {
			match = "DIFF"
		}
		fmt.Fprintf(&b, "  %-16s %9d %9d %7s %5d/%-3d %5d/%-3d %6.0f%% %9.0f %9.0f %-17s %5s\n",
			r.Target, r.SectionBytes, r.MayWriteBytes, scope,
			r.AllocElided, r.AllocSites, r.FileElided, r.FileSites, 100*r.SiteReduction,
			r.ExecsPerSecOff.Median, r.ExecsPerSecOn.Median, &r.Speedup, match)
	}
	fmt.Fprintf(&b, "  total: %d/%d section bytes restored (%.1f%% elided); %d/%d alloc+fopen sites elided (%.1f%%)\n",
		rep.TotalMayWriteBytes, rep.TotalSectionBytes, 100*rep.ByteReduction,
		rep.TotalElided, rep.TotalSites, 100*rep.SiteReduction)
	return b.String()
}

// allEqual reports whether every value in xs is the same.
func allEqual(xs []int) bool {
	for _, x := range xs {
		if x != xs[0] {
			return false
		}
	}
	return true
}
