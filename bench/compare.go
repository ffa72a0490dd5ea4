package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"os"
)

// loadRecords reads the untraced run records of a -json file, grouped by
// workload.
func loadRecords(path string) (map[string][]*report, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	out := map[string][]*report{}
	sc := bufio.NewScanner(f)
	sc.Buffer(make([]byte, 1<<20), 1<<26)
	for line := 1; sc.Scan(); line++ {
		var r report
		if err := json.Unmarshal(sc.Bytes(), &r); err != nil {
			return nil, fmt.Errorf("%s:%d: %w", path, line, err)
		}
		if !r.Envelope.Trace {
			out[r.Workload] = append(out[r.Workload], &r)
		}
	}
	if err := sc.Err(); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return out, nil
}

// compareFiles prints, for each workload both files ran and each
// end-to-end metric, each side's median and quartiles across runs, and a
// verdict against the metric's bound in BENCHMARK.json:
//
//	regressed   the change's median is worse than the parent's by more than the bound
//	unresolved  the parent's own interquartile spread exceeds the bound, and not
//	            every change run reads better than every parent run
//	ok          neither
//
// It reports whether any metric regressed.
func compareFiles(spec *benchSpec, parentPath, changePath string, out io.Writer) (bool, error) {
	parent, err := loadRecords(parentPath)
	if err != nil {
		return false, err
	}
	change, err := loadRecords(changePath)
	if err != nil {
		return false, err
	}
	regressed := false
	fmt.Fprintf(out, "%-11s %-16s %5s %28s %28s %8s  %s\n",
		"workload", "metric", "bound", "parent median [q1, q3] n", "change median [q1, q3] n", "delta", "verdict")
	for _, w := range workloads {
		pr, cr := parent[w.name], change[w.name]
		if len(pr) == 0 || len(cr) == 0 {
			continue
		}
		for _, m := range spec.EndToEnd {
			if m.Bound == nil {
				return false, fmt.Errorf("BENCHMARK.json: %s has no bound", m.Name)
			}
			pv, cv := metricSeries(pr, m.Name), metricSeries(cr, m.Name)
			pm, cm := median(pv), median(cv)
			p1, p3 := quartiles(pv)
			c1, c3 := quartiles(cv)
			delta := (cm - pm) / pm
			worse := delta
			if m.Better == "higher" {
				worse = -delta
			}
			verdict := "ok"
			switch {
			case worse > *m.Bound:
				verdict = "regressed"
				regressed = true
			case (p3-p1)/pm > *m.Bound && !allBetter(cv, pv, m.Better):
				verdict = "unresolved"
			}
			fmt.Fprintf(out, "%-11s %-16s %5.2f %12.5g [%.4g, %.4g] %2d %12.5g [%.4g, %.4g] %2d %+7.2f%%  %s\n",
				w.name, m.Name, *m.Bound, pm, p1, p3, len(pv), cm, c1, c3, len(cv), 100*delta, verdict)
		}
	}
	return regressed, nil
}

func metricSeries(rs []*report, name string) []float64 {
	var out []float64
	for _, r := range rs {
		if v, ok := r.Metrics[name]; ok {
			out = append(out, v)
		}
	}
	return out
}

// allBetter reports whether every change value reads better than every
// parent value.
func allBetter(change, parent []float64, better string) bool {
	for _, c := range change {
		for _, p := range parent {
			if (better == "higher" && c <= p) || (better == "lower" && c >= p) {
				return false
			}
		}
	}
	return true
}
