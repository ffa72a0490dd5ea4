package harnessaudit_test

// Seeded-defect tests for the harness-quality audit: each fixture plants
// exactly one harness defect in otherwise-healthy MinC source — a function
// unreachable from target_main (CLX119), a deliberately tiny coverage map
// (CLX120), a dictionary token no input-dataflow path can justify (CLX121)
// — and asserts the audit reports exactly the intended code at the
// intended site, with byte-stable JSON score cards.
//
// The tests live in an external package so they can drive the real
// core.BuildWith pipeline (core imports harnessaudit for the
// auto-dictionary, so the internal package cannot).

import (
	"bytes"
	"strings"
	"testing"

	"closurex/internal/analysis"
	"closurex/internal/analysis/harnessaudit"
	"closurex/internal/core"
	"closurex/internal/ir"
)

// cleanSrc is a minimal healthy harness: every function reachable from
// main, input bytes flowing through fread into real comparisons.
const cleanSrc = `
int check(char *b, int n) {
	if (n < 4) return 0;
	if (b[0] == 'M' && b[1] == 'Z') return 1;
	return 0;
}
int main(void) {
	int f = fopen("/input", "r");
	if (!f) abort();
	int size = fsize(f);
	if (size < 4 || size > 4096) { fclose(f); exit(1); }
	char *buf = (char*)malloc(size);
	if (!buf) exit(1);
	fread(buf, 1, size, f);
	int ok = check(buf, size);
	free(buf);
	fclose(f);
	return ok;
}
`

// deadFnSrc plants one function no call path from main reaches.
const deadFnSrc = `
int orphan(int x) {
	if (x > 3) return x * 2;
	return x;
}
int check(char *b, int n) {
	if (n < 4) return 0;
	if (b[0] == 'M' && b[1] == 'Z') return 1;
	return 0;
}
int main(void) {
	int f = fopen("/input", "r");
	if (!f) abort();
	int size = fsize(f);
	if (size < 4 || size > 4096) { fclose(f); exit(1); }
	char *buf = (char*)malloc(size);
	if (!buf) exit(1);
	fread(buf, 1, size, f);
	int ok = check(buf, size);
	free(buf);
	fclose(f);
	return ok;
}
`

func build(t *testing.T, src string) *ir.Module {
	t.Helper()
	mod, err := core.BuildWith("fixture.c", src, core.BuildConfig{Variant: core.ClosureX})
	if err != nil {
		t.Fatalf("build fixture: %v", err)
	}
	return mod
}

func onlyIDs(t *testing.T, ds analysis.Diagnostics, want string) {
	t.Helper()
	for i := range ds {
		if ds[i].ID != want {
			t.Fatalf("unexpected diagnostic %s (want only %s):\n%s", ds[i].ID, want, ds)
		}
		if ds[i].Sev != analysis.SevWarn {
			t.Fatalf("%s severity = %v, want warning", want, ds[i].Sev)
		}
	}
}

func TestAuditCleanHarness(t *testing.T) {
	mod := build(t, cleanSrc)
	card, ds := harnessaudit.Audit("fixture", mod, harnessaudit.Options{
		Dict: [][]byte{[]byte("MZ")},
	})
	if len(ds) != 0 {
		t.Fatalf("clean harness produced diagnostics:\n%s", ds)
	}
	if card.Funcs != card.ReachableFuncs || card.Blocks != card.ReachableBlocks {
		t.Fatalf("clean harness not fully reachable: %+v", card)
	}
	if card.DictTokens != 1 || card.LiveDictTokens != 1 {
		t.Fatalf("dict census = %d/%d, want 1/1 live", card.LiveDictTokens, card.DictTokens)
	}
	if card.Score < 99 {
		t.Fatalf("clean harness scored %.1f, want >= 99", card.Score)
	}
}

func TestAuditDeadSurfaceCLX119(t *testing.T) {
	mod := build(t, deadFnSrc)
	card, ds := harnessaudit.Audit("fixture", mod, harnessaudit.Options{
		Dict: [][]byte{[]byte("MZ")},
	})
	if len(ds) == 0 {
		t.Fatal("dead function not flagged")
	}
	onlyIDs(t, ds, analysis.IDDeadSurface)
	found := false
	for i := range ds {
		if ds[i].Func == "orphan" {
			found = true
		}
	}
	if !found {
		t.Fatalf("no CLX119 names the orphan function:\n%s", ds)
	}
	if card.ReachableFuncs != card.Funcs-1 {
		t.Fatalf("reachable funcs = %d/%d, want exactly one dead", card.ReachableFuncs, card.Funcs)
	}
	if len(card.DeadFuncs) != 1 || card.DeadFuncs[0] != "orphan" {
		t.Fatalf("DeadFuncs = %v, want [orphan]", card.DeadFuncs)
	}
	if card.Score >= 100 {
		t.Fatalf("dead surface did not cost score: %.1f", card.Score)
	}
}

func TestAuditSaturatedGeometryCLX120(t *testing.T) {
	mod := build(t, cleanSrc)
	_, ds := harnessaudit.Audit("fixture", mod, harnessaudit.Options{
		Dict:     [][]byte{[]byte("MZ")},
		MapCells: 8, // far fewer cells than probes: geometry is hopeless
	})
	if len(ds) == 0 {
		t.Fatal("saturated tiny bitmap not flagged")
	}
	onlyIDs(t, ds, analysis.IDCovSaturation)
	if !strings.Contains(ds[0].Msg, "saturated") {
		t.Fatalf("CLX120 message does not describe saturation: %s", ds[0].Msg)
	}
}

func TestAuditDeadDictTokenCLX121(t *testing.T) {
	mod := build(t, cleanSrc)
	card, ds := harnessaudit.Audit("fixture", mod, harnessaudit.Options{
		Dict: [][]byte{[]byte("MZ"), []byte("\xde\xad\xbe\xef")},
	})
	if len(ds) != 1 {
		t.Fatalf("want exactly one diagnostic for the dead token, got:\n%s", ds)
	}
	onlyIDs(t, ds, analysis.IDDeadDictToken)
	if !strings.Contains(ds[0].Msg, `\xde\xad\xbe\xef`) {
		t.Fatalf("CLX121 message does not quote the dead token: %s", ds[0].Msg)
	}
	if card.LiveDictTokens != 1 || card.DictTokens != 2 {
		t.Fatalf("dict census = %d/%d, want 1/2 live", card.LiveDictTokens, card.DictTokens)
	}
	if len(card.DeadDictTokens) != 1 {
		t.Fatalf("DeadDictTokens = %v, want one entry", card.DeadDictTokens)
	}
}

// The score-card JSON must be byte-stable: two audits of the same module
// with the same options serialize identically, and the cards sort by
// target name regardless of input order.
func TestCardsJSONByteStable(t *testing.T) {
	opts := harnessaudit.Options{Dict: [][]byte{[]byte("MZ")}}
	run := func() []byte {
		a, _ := harnessaudit.Audit("zfix", build(t, cleanSrc), opts)
		b, _ := harnessaudit.Audit("afix", build(t, deadFnSrc), opts)
		data, err := harnessaudit.CardsJSON([]*harnessaudit.Card{a, b})
		if err != nil {
			t.Fatal(err)
		}
		return data
	}
	first, second := run(), run()
	if !bytes.Equal(first, second) {
		t.Fatalf("score-card JSON not byte-stable:\n%s\n---\n%s", first, second)
	}
	// Schema pin: the stable field names downstream tooling greps for.
	for _, key := range []string{
		`"target"`, `"reachable_block_pct"`, `"saturation_pct"`, `"displaced_pct"`,
		`"dict_live_pct"`, `"auto_dict_tokens"`, `"score"`, `"dead_funcs"`,
	} {
		if !bytes.Contains(first, []byte(key)) {
			t.Fatalf("score-card JSON missing %s:\n%s", key, first)
		}
	}
	// Sorted by target: afix before zfix.
	if bytes.Index(first, []byte(`"afix"`)) > bytes.Index(first, []byte(`"zfix"`)) {
		t.Fatalf("cards not sorted by target:\n%s", first)
	}
}

// Harvest must surface the fixture's compare constants so the mutator can
// stamp them: the single-byte "M" and "Z" compares yield no multi-byte
// token here, but the gpmf-style fourcc fixture below must yield its magic.
const fourccSrc = `
int rd_be32(char *p) {
	return (p[0] << 24) | (p[1] << 16) | (p[2] << 8) | p[3];
}
int main(void) {
	int f = fopen("/input", "r");
	if (!f) abort();
	int size = fsize(f);
	if (size < 8 || size > 4096) { fclose(f); exit(1); }
	char *buf = (char*)malloc(size);
	if (!buf) exit(1);
	fread(buf, 1, size, f);
	int magic = rd_be32(buf);
	int hits = 0;
	if (magic == 0x4d414749) hits++;
	free(buf);
	fclose(f);
	return hits;
}
`

func TestHarvestExtractsCompareConstants(t *testing.T) {
	toks := harnessaudit.Harvest(build(t, fourccSrc))
	if len(toks) == 0 {
		t.Fatal("no tokens harvested from a fourcc compare")
	}
	found := false
	for _, tok := range toks {
		if bytes.Equal(tok, []byte("MAGI")) {
			found = true
		}
	}
	if !found {
		t.Fatalf("harvested tokens %q lack the big-endian magic MAGI", toks)
	}
}
