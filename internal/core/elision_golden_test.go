package core

import (
	"flag"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"closurex/internal/analysis/interproc"
	"closurex/internal/analysis/sanitize"
	"closurex/internal/targets"
)

var updateGolden = flag.Bool("update", false, "rewrite testdata goldens from the current build")

// TestSanitizeInterprocElisionGolden pins the check-elision and
// restore-elision decisions on every registered target: the sanitize and
// interproc report tables of the richest build, the same texts the
// toolchain benchmark hashes into its digests. Regenerate with
// `go test ./internal/core -run ElisionGolden -update` only for an
// intended change of analysis precision.
func TestSanitizeInterprocElisionGolden(t *testing.T) {
	var sb strings.Builder
	for _, tg := range targets.All() {
		mod, err := BuildWith(tg.Short+".c", tg.Source,
			BuildConfig{Variant: ClosureX, Sanitize: SanitizeElide, Interproc: true})
		if err != nil {
			t.Fatalf("%s: %v", tg.Name, err)
		}
		sb.WriteString("== " + tg.Name + "\n")
		sb.WriteString(sanitize.ReportModule(mod).Format())
		sb.WriteString(interproc.ReportModule(mod).Format())
	}
	got := sb.String()
	path := filepath.Join("testdata", "elision.golden")
	if *updateGolden {
		if err := os.WriteFile(path, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if got != string(want) {
		gl, wl := strings.Split(got, "\n"), strings.Split(string(want), "\n")
		for i := 0; i < len(gl) && i < len(wl); i++ {
			if gl[i] != wl[i] {
				t.Fatalf("elision reports drifted from %s at line %d:\n got: %s\nwant: %s", path, i+1, gl[i], wl[i])
			}
		}
		t.Fatalf("elision reports drifted from %s: %d lines, want %d", path, len(gl), len(wl))
	}
}
