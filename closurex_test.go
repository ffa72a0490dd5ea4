package closurex

import (
	"strings"
	"testing"
)

const demoSource = `
int runs;
int main(void) {
	runs++;
	int f = fopen("/input", "r");
	if (!f) abort();
	int a = fgetc(f);
	int b = fgetc(f);
	fclose(f);
	if (a == 'B' && b == '!') {
		int *p = 0;
		return *p;          // planted crash
	}
	return a + b;
}
`

func TestMechanismsAndBenchmarks(t *testing.T) {
	ms := Mechanisms()
	if len(ms) != 5 || ms[0] != "fresh" || ms[4] != "closurex" {
		t.Fatalf("Mechanisms = %v", ms)
	}
	bs := Benchmarks()
	if len(bs) != 10 {
		t.Fatalf("Benchmarks = %v", bs)
	}
}

func TestNewFuzzerFindsPlantedCrash(t *testing.T) {
	f, err := NewFuzzer(demoSource, [][]byte{[]byte("B?")}, Options{Seed: 3, MaxInputLen: 8})
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	f.RunExecs(30000)
	st := f.Stats()
	if st.Execs < 30000 || st.Edges == 0 || st.QueueLen == 0 {
		t.Fatalf("stats: %+v", st)
	}
	if len(st.Crashes) != 1 {
		t.Fatalf("crashes = %d, want 1", len(st.Crashes))
	}
	cr := st.Crashes[0]
	if cr.Kind != "null-pointer-dereference" || cr.Fn != "target_main" {
		t.Fatalf("crash = %+v", cr)
	}
	if !strings.HasPrefix(string(cr.Input), "B!") {
		t.Fatalf("crash input = %q", cr.Input)
	}
	// ClosureX keeps everything in one process image except when a crash
	// kills it: spawns == initial image + one respawn per crashing exec.
	var crashExecs int64
	for _, c := range st.Crashes {
		crashExecs += c.Count
	}
	if st.Spawns != 1+crashExecs {
		t.Fatalf("spawns = %d, want %d (1 + %d crashes)", st.Spawns, 1+crashExecs, crashExecs)
	}
}

func TestTryOne(t *testing.T) {
	f, err := NewFuzzer(demoSource, [][]byte{[]byte("xy")}, Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	if crashed, _ := f.TryOne([]byte("xy")); crashed {
		t.Fatal("benign input crashed")
	}
	crashed, key := f.TryOne([]byte("B!"))
	if !crashed || !strings.Contains(key, "null-pointer-dereference") {
		t.Fatalf("TryOne = %v %q", crashed, key)
	}
}

func TestNewFuzzerRejectsBadInput(t *testing.T) {
	if _, err := NewFuzzer("int main(void) { return nope; }", nil, Options{}); err == nil {
		t.Fatal("bad source accepted")
	}
	if _, err := NewFuzzer(demoSource, nil, Options{Mechanism: "warp"}); err == nil {
		t.Fatal("bad mechanism accepted")
	}
}

// TestNewFuzzerRejectsInertOptions: an option that would be silently
// ignored in its combination fails the build instead, naming the option.
func TestNewFuzzerRejectsInertOptions(t *testing.T) {
	for _, tc := range []struct {
		name string
		opts Options
		want string
	}{
		{"resilient-forkserver", Options{Mechanism: "forkserver", Resilient: true}, "resilience"},
		{"no-elide-no-sanitize", Options{SanitizeNoElide: true}, "SanitizeNoElide"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			f, err := NewFuzzer(demoSource, [][]byte{[]byte("ab")}, tc.opts)
			if err == nil {
				f.Close()
				t.Fatal("accepted")
			}
			if !strings.Contains(err.Error(), tc.want) {
				t.Fatalf("error %q does not name %s", err, tc.want)
			}
		})
	}
}

func TestNewBenchmarkFuzzer(t *testing.T) {
	f, err := NewBenchmarkFuzzer("giftext", "forkserver", 1)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	if f.Mechanism() != "forkserver" {
		t.Fatalf("mechanism = %s", f.Mechanism())
	}
	f.RunExecs(200)
	if st := f.Stats(); st.Execs < 200 || st.TotalEdges == 0 {
		t.Fatalf("stats: %+v", st)
	}
	if len(f.Corpus()) == 0 {
		t.Fatal("empty corpus")
	}
	if _, err := NewBenchmarkFuzzer("nope", "closurex", 1); err == nil {
		t.Fatal("unknown benchmark accepted")
	}
}

func TestCheckSource(t *testing.T) {
	if err := CheckSource(demoSource); err != nil {
		t.Fatal(err)
	}
	if err := CheckSource("int main(void) {"); err == nil {
		t.Fatal("invalid source passed")
	}
}

func TestSectionLayout(t *testing.T) {
	out, err := SectionLayout(demoSource)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out, "closure_global_section") {
		t.Fatalf("layout missing closure section:\n%s", out)
	}
	if !strings.Contains(out, ".rodata") {
		t.Fatalf("layout missing rodata:\n%s", out)
	}
}

func TestStatsString(t *testing.T) {
	f, _ := NewFuzzer(demoSource, [][]byte{[]byte("ab")}, Options{})
	defer f.Close()
	f.RunExecs(100)
	s := f.Stats().String()
	if !strings.Contains(s, "execs=") || !strings.Contains(s, "edges=") {
		t.Fatalf("Stats.String = %q", s)
	}
}
