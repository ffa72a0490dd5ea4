package experiments

import (
	"encoding/json"
	"os"
	"path/filepath"
	"testing"
)

// TestRunSanitizerOverhead exercises the sweep end to end at a tiny budget:
// three rows in mode order, every mode actually executed, coverage identical
// across modes (the differential guarantee), and the static elision stats
// populated. Throughput ordering is deliberately not asserted — wall-clock
// at this budget is noise; the JSON artifact from `make benchjson` is where
// the real overhead numbers live.
func TestRunSanitizerOverhead(t *testing.T) {
	rep, err := RunSanitizerOverhead("sandefect", 400, 0x5eed)
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Rows) != 3 {
		t.Fatalf("want 3 rows, got %d", len(rep.Rows))
	}
	wantModes := []string{"off", "on", "on+elide"}
	for i, r := range rep.Rows {
		if r.Mode != wantModes[i] {
			t.Errorf("row %d mode = %q, want %q", i, r.Mode, wantModes[i])
		}
		if r.Execs < 400 {
			t.Errorf("mode %s ran only %d execs", r.Mode, r.Execs)
		}
		if r.Edges != rep.Rows[0].Edges {
			t.Errorf("mode %s coverage %d differs from off-mode %d", r.Mode, r.Edges, rep.Rows[0].Edges)
		}
	}
	if rep.Rows[0].Overhead != nil || rep.Rows[1].Overhead == nil || rep.Rows[2].ElideVsOn == nil {
		t.Errorf("ratios: off must carry none, on an overhead, on+elide a comparison with on: %+v", rep.Rows)
	}
	if rep.Elided == 0 || rep.ElisionRate < 0.30 {
		t.Errorf("elision stats missing: checks=%d elided=%d rate=%v", rep.Checks, rep.Elided, rep.ElisionRate)
	}

	path := filepath.Join(t.TempDir(), "BENCH_sanitizer.json")
	if err := WriteJSON(path, rep); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var back SanitizerReport
	if err := json.Unmarshal(data, &back); err != nil {
		t.Fatal(err)
	}
	if back.Target != "sandefect" || len(back.Rows) != 3 || back.Host.Rounds != sweepRounds {
		t.Fatalf("JSON round-trip mangled report: %+v", back)
	}
}

func TestRunSanitizerOverheadUnknownTarget(t *testing.T) {
	if _, err := RunSanitizerOverhead("no-such-target", 10, 1); err == nil {
		t.Fatal("unknown target accepted")
	}
}
