package synth_test

// Seeded-defect fixtures for the harness synthesizer: each fixture plants
// exactly one condition in otherwise-healthy MinC source and asserts
// exactly the intended catalog code fires — CLX128 (unsynthesizable
// signature), CLX129 (uncovered exported surface), CLX130 (certification
// failure), CLX131 (plan shadowed by the manual harness) — with no
// bycatch from the other three codes.

import (
	"reflect"
	"testing"

	"closurex/internal/analysis"
	"closurex/internal/analysis/synth"
)

// wantOnly asserts the diagnostic set contains exactly one distinct code.
func wantOnly(t *testing.T, ds analysis.Diagnostics, id string) {
	t.Helper()
	if got := ds.IDs(); !reflect.DeepEqual(got, []string{id}) {
		t.Fatalf("diagnostic IDs = %v, want exactly [%s]\n%s", got, id, ds.String())
	}
}

// srcCLX128 plants one reachable function whose signature admits no
// input-byte plan (a pointer-to-pointer parameter) next to a plannable
// helper the synthesized dispatch picks up — so no CLX129 fires (the
// helper is covered by the plan, twisted is reachable) and no CLX131
// fires (the manual harness never calls the helper).
const srcCLX128 = `
int *gp;
int helper(int x) {
	if (x == 7) return 1;
	return 0;
}
int twisted(int **pp) {
	if (pp) return 1;
	return 0;
}
int main(void) {
	int f = fopen("/input", "r");
	if (!f) return 0;
	char b[8];
	int n = fread(b, 1, 8, f);
	fclose(f);
	twisted(&gp);
	return n;
}
`

func TestSynthSeededCLX128Unsynthesizable(t *testing.T) {
	h, err := synth.Synthesize("fix128", "fix128.c", srcCLX128, synth.Options{})
	if err != nil {
		t.Fatalf("Synthesize: %v", err)
	}
	wantOnly(t, h.Diags, analysis.IDUnsynthesizable)
	if len(h.Report.Unsynthesizable) != 1 || h.Report.Unsynthesizable[0].Func != "twisted" {
		t.Fatalf("Unsynthesizable = %+v, want exactly [twisted]", h.Report.Unsynthesizable)
	}
	if !h.Report.Certified {
		t.Fatalf("the plannable helper arm should still certify:\n%s", h.Diags.String())
	}
	if len(h.Report.Arms) != 1 || h.Report.Arms[0].Func != "helper" {
		t.Fatalf("Arms = %+v, want exactly [helper]", h.Report.Arms)
	}
}

// srcCLX129 plants two dead plannable functions; with MaxArms capped at 1
// the higher-scoring (bigger) one is planned and the other is left as
// uncovered exported surface. Every signature plans (no CLX128), nothing
// is called from main with tainted arguments (no CLX131).
const srcCLX129 = `
int deadbig(int x) {
	if (x == 1) return 2;
	if (x == 2) return 3;
	return 4;
}
int deadsmall(int y) {
	return y + 1;
}
int main(void) {
	int f = fopen("/input", "r");
	if (!f) return 0;
	char b[4];
	int n = fread(b, 1, 4, f);
	fclose(f);
	return n;
}
`

func TestSynthSeededCLX129Uncovered(t *testing.T) {
	h, err := synth.Synthesize("fix129", "fix129.c", srcCLX129, synth.Options{MaxArms: 1})
	if err != nil {
		t.Fatalf("Synthesize: %v", err)
	}
	wantOnly(t, h.Diags, analysis.IDUncoveredSurface)
	if len(h.Report.Arms) != 1 || h.Report.Arms[0].Func != "deadbig" {
		t.Fatalf("Arms = %+v, want exactly [deadbig] (ranking should prefer the bigger dead function)", h.Report.Arms)
	}
	if !reflect.DeepEqual(h.Report.Uncovered, []string{"deadsmall"}) {
		t.Fatalf("Uncovered = %v, want [deadsmall]", h.Report.Uncovered)
	}
	if !h.Report.Certified {
		t.Fatalf("planned arm should certify:\n%s", h.Diags.String())
	}
}

// srcCLX130 is a hand-corrupted "synthesized" harness fed straight to the
// certification gate: structurally complete (closurex_init + main), but
// main stores through an input-dependent index the sanitize interval
// domain cannot prove in-bounds — exactly the class of emitter bug CLX130
// exists to trap.
const srcCLX130 = `
void closurex_init(void) {
	return;
}
int main(void) {
	char b[8];
	int f = fopen("/input", "r");
	if (!f) return 0;
	int n = fread(b, 1, 8, f);
	fclose(f);
	b[n] = 1;
	return b[0];
}
`

func TestSynthSeededCLX130CertFailure(t *testing.T) {
	ds := synth.Certify("fix130", "fix130.c", srcCLX130)
	wantOnly(t, ds, analysis.IDSynthCertFail)
	if !ds.HasErrors() {
		t.Fatalf("CLX130 must be an error-severity tripwire, got:\n%s", ds.String())
	}
}

// srcCLX131 plants a single candidate the manual harness already drives
// with fully input-tainted arguments (the fread buffer and its length).
// The shadowed arm is the only plan, so it is kept — and the CLX131
// diagnostic still fires to flag the duplicated flow.
const srcCLX131 = `
int consume(char *p, int n) {
	if (n < 2) return 0;
	if (p[0] == 'B') return 1;
	return 2;
}
int main(void) {
	int f = fopen("/input", "r");
	if (!f) return 0;
	char b[16];
	int n = fread(b, 1, 16, f);
	fclose(f);
	return consume(b, n);
}
`

func TestSynthSeededCLX131Shadowed(t *testing.T) {
	h, err := synth.Synthesize("fix131", "fix131.c", srcCLX131, synth.Options{})
	if err != nil {
		t.Fatalf("Synthesize: %v", err)
	}
	wantOnly(t, h.Diags, analysis.IDSynthShadowed)
	if !reflect.DeepEqual(h.Report.Shadowed, []string{"consume"}) {
		t.Fatalf("Shadowed = %v, want [consume]", h.Report.Shadowed)
	}
	if len(h.Report.Arms) != 1 || h.Report.Arms[0].Func != "consume" {
		t.Fatalf("Arms = %+v, want the shadowed arm kept when it is the only plan", h.Report.Arms)
	}
	if !h.Report.Certified {
		t.Fatalf("shadowed-but-kept arm should certify:\n%s", h.Diags.String())
	}
}
