package experiments

// Translation-validation experiment: every registered target built through
// the full ClosureX pipeline, compiled to the closure-chain tier, and the
// resulting certificate checked against the IR by analysis/transval. The
// report records per-target certification wall time and the certified
// surface (functions, closures, fusions, elisions, budget runs) so the
// static-equivalence gate's cost and coverage are tracked alongside the
// compiled tier's speedup in BENCH_compile.json.

import (
	"encoding/json"
	"fmt"
	"os"
	"strings"
	"time"

	"closurex/internal/analysis/transval"
	"closurex/internal/core"
	"closurex/internal/targets"
	"closurex/internal/vm/compile"
)

// TransvalRow is one target's certification measurement.
type TransvalRow struct {
	Target string `json:"target"`
	// Certified surface, from the accepted certificate.
	Funcs  int `json:"funcs"`
	PCs    int `json:"closures"`
	Fused  int `json:"fused"`
	Elided int `json:"elided"`
	Runs   int `json:"budget_runs"`
	// CertMicros is the wall time to compile the module, emit the
	// certificate and check every obligation, in microseconds.
	CertMicros int64 `json:"cert_micros"`
	// Diags counts transval findings; Certified is Diags == 0.
	Diags     int  `json:"diags"`
	Certified bool `json:"certified"`
}

// TransvalReport aggregates the per-target certifications.
type TransvalReport struct {
	Variant      string        `json:"variant"`
	AllCertified bool          `json:"all_certified"`
	Rows         []TransvalRow `json:"rows"`
}

// RunTransval certifies every registered target's compiled program.
func RunTransval() (*TransvalReport, error) {
	rep := &TransvalReport{Variant: core.ClosureX.String(), AllCertified: true}
	for _, t := range targets.All() {
		// Build fresh per target so the timing includes a cold compile +
		// certificate emission, not a program-cache hit.
		mod, err := core.BuildWith(t.Short+".c", t.Source, core.BuildConfig{Variant: core.ClosureX})
		if err != nil {
			return nil, fmt.Errorf("experiments: transval build %s: %w", t.Name, err)
		}
		start := time.Now()
		ds := transval.Check(mod)
		elapsed := time.Since(start)
		row := TransvalRow{
			Target:     t.Name,
			CertMicros: elapsed.Microseconds(),
			Diags:      len(ds),
			Certified:  len(ds) == 0,
		}
		if row.Certified {
			if cert, cerr := compile.CertFor(mod); cerr == nil {
				st := transval.Summarize(cert)
				row.Funcs, row.PCs, row.Fused, row.Elided, row.Runs =
					st.Funcs, st.PCs, st.Fused, st.Elided, st.Runs
			}
		}
		rep.AllCertified = rep.AllCertified && row.Certified
		rep.Rows = append(rep.Rows, row)
	}
	return rep, nil
}

// FormatTransval renders the certification report as an aligned text table.
func FormatTransval(rep *TransvalReport) string {
	var b strings.Builder
	fmt.Fprintf(&b, "Compiled-tier translation validation: %s pipeline, %d target(s)\n",
		rep.Variant, len(rep.Rows))
	fmt.Fprintf(&b, "  %-14s %6s %9s %6s %7s %6s %9s %10s\n",
		"target", "funcs", "closures", "fused", "elided", "runs", "cert(us)", "certified")
	for _, r := range rep.Rows {
		fmt.Fprintf(&b, "  %-14s %6d %9d %6d %7d %6d %9d %10v\n",
			r.Target, r.Funcs, r.PCs, r.Fused, r.Elided, r.Runs, r.CertMicros, r.Certified)
	}
	fmt.Fprintf(&b, "  all certified: %v\n", rep.AllCertified)
	return b.String()
}

// AttachTransvalJSON merges the certification report into the
// BENCH_compile.json envelope at path: the existing speedup rows are
// preserved and the "transval" field is replaced. A missing file yields an
// envelope carrying only the transval section, so certification can be
// recorded without rerunning the (much slower) speedup sweep.
func AttachTransvalJSON(path string, rep *TransvalReport) error {
	env := &CompileReport{}
	if data, err := os.ReadFile(path); err == nil {
		if uerr := json.Unmarshal(data, env); uerr != nil {
			return fmt.Errorf("experiments: %s: %w", path, uerr)
		}
	} else if !os.IsNotExist(err) {
		return err
	}
	env.Transval = rep
	return WriteJSON(path, env)
}
