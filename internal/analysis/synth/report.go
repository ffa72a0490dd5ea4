package synth

// Reporting: the byte-stable synthesis report closurex-lint -synth-json
// prints and the bench tripwire inspects. Field order, slice ordering and
// map keys are all deterministic; a pinned-bytes test guards the contract.
// Extend, never rename.

import (
	"encoding/json"
	"sort"

	"closurex/internal/analysis"
)

// Report is one target's synthesis outcome.
type Report struct {
	Target    string `json:"target"`
	Entry     string `json:"entry"`
	Functions int    `json:"functions"` // exported candidates considered

	Arms       []Arm    `json:"arms"`
	PreGlobals []string `json:"pre_globals,omitempty"`
	HdrBytes   int      `json:"hdr_bytes"`
	BufCap     int      `json:"buf_cap"`

	Unsynthesizable []Skip   `json:"unsynthesizable,omitempty"` // CLX128
	Uncovered       []string `json:"uncovered,omitempty"`       // CLX129
	Shadowed        []string `json:"shadowed,omitempty"`        // CLX131

	Certified   bool `json:"certified"`
	SourceLines int  `json:"source_lines"`

	// Codes counts the run's diagnostics per catalog ID.
	Codes map[string]int `json:"codes,omitempty"`
}

// report assembles the Report from a planning result.
func (pl *planData) report(target string) *Report {
	return &Report{
		Target:          target,
		Entry:           pl.entry,
		Functions:       pl.functions,
		Arms:            pl.arms,
		PreGlobals:      pl.preGlobals,
		HdrBytes:        pl.hdr,
		BufCap:          DefaultBufCap,
		Unsynthesizable: pl.skips,
		Uncovered:       pl.uncovered,
		Shadowed:        pl.shadowed,
	}
}

// fillCodes tallies diagnostics per ID.
func (r *Report) fillCodes(ds analysis.Diagnostics) {
	if len(ds) == 0 {
		return
	}
	r.Codes = map[string]int{}
	for _, d := range ds {
		r.Codes[d.ID]++
	}
}

// sortForOutput normalizes slice ordering for byte-stable rendering.
func (r *Report) sortForOutput() {
	sort.Strings(r.PreGlobals)
	sort.Strings(r.Uncovered)
	sort.Strings(r.Shadowed)
	sort.Slice(r.Unsynthesizable, func(i, j int) bool {
		return r.Unsynthesizable[i].Func < r.Unsynthesizable[j].Func
	})
}

// ReportsJSON renders reports as byte-stable JSON: sorted by target,
// indented, trailing newline — the same contract as the audit score cards.
func ReportsJSON(reports []*Report) ([]byte, error) {
	sorted := append([]*Report(nil), reports...)
	sort.Slice(sorted, func(i, j int) bool { return sorted[i].Target < sorted[j].Target })
	b, err := json.MarshalIndent(sorted, "", "  ")
	if err != nil {
		return nil, err
	}
	return append(b, '\n'), nil
}
