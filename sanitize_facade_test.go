package closurex

import (
	"bytes"
	"sort"
	"strings"
	"testing"
)

// sanFuzzer builds the sandefect benchmark under the closurex mechanism
// with the sanitizer armed.
func sanFuzzer(t *testing.T, opts Options) *Fuzzer {
	t.Helper()
	opts.Sanitize = true
	f, err := NewBenchmarkFuzzerOptions("sandefect", "closurex", opts)
	if err != nil {
		t.Fatalf("NewBenchmarkFuzzerOptions: %v", err)
	}
	return f
}

// TestSanitizerDetectsSeededDefects feeds each trigger input to the
// sandefect target and asserts the exact sanitizer classification and the
// allocation site embedded in the triage key.
func TestSanitizerDetectsSeededDefects(t *testing.T) {
	cases := []struct {
		name  string
		input string
		kind  string
		fn    string // faulting function == allocation site function
	}{
		{"overflow-read", "SD1abcdefgh", "heap-out-of-bounds", "overflow_read"},
		{"overflow-write", "SD2abcd", "heap-out-of-bounds", "overflow_write"},
		{"use-after-free", "SD3x", "use-after-free", "use_after_free"},
		{"double-free", "SD4x", "double-free", "double_free"},
		{"invalid-free", "SD5x", "bad-free", "invalid_free"},
	}
	f := sanFuzzer(t, Options{Seed: 1})
	defer f.Close()
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			crashed, key := f.TryOne([]byte(tc.input))
			if !crashed {
				t.Fatalf("input %q did not crash", tc.input)
			}
			if !strings.HasPrefix(key, tc.kind+"@"+tc.fn+":") {
				t.Errorf("key %q: want kind %s at %s", key, tc.kind, tc.fn)
			}
			if !strings.Contains(key, "/alloc@"+tc.fn+":") {
				t.Errorf("key %q: want allocation site in %s", key, tc.fn)
			}
		})
	}
}

// TestSanitizerWithoutShadowMissesTailReads documents what the shadow
// plane adds: without -sanitize the one-byte read just past a chunk lands
// in the chunkAlign gap the interpreter's chunk map cannot attribute, so
// arming the sanitizer must still detect it identically (the chunk-map
// check catches it too — the sanitizer's value is the allocation site).
func TestSanitizerCrashKeysRefineTriage(t *testing.T) {
	plain, err := NewBenchmarkFuzzerOptions("sandefect", "closurex", Options{Seed: 1})
	if err != nil {
		t.Fatalf("plain fuzzer: %v", err)
	}
	defer plain.Close()
	_, plainKey := plain.TryOne([]byte("SD3x"))
	san := sanFuzzer(t, Options{Seed: 1})
	defer san.Close()
	_, sanKey := san.TryOne([]byte("SD3x"))
	if !strings.Contains(sanKey, "/alloc@") {
		t.Fatalf("sanitized key %q lacks allocation site", sanKey)
	}
	if strings.Contains(plainKey, "/alloc@") {
		t.Fatalf("plain key %q unexpectedly carries allocation site", plainKey)
	}
	if !strings.HasPrefix(sanKey, plainKey) {
		t.Errorf("sanitized key %q should refine plain key %q", sanKey, plainKey)
	}
}

// campaignFingerprint summarizes everything the differential guarantee
// covers: edge count, queue contents and crash keys.
func campaignFingerprint(f *Fuzzer) (int, [][]byte, []string) {
	st := f.Stats()
	corpus := f.Corpus()
	sort.Slice(corpus, func(i, j int) bool { return bytes.Compare(corpus[i], corpus[j]) < 0 })
	var keys []string
	for _, c := range st.Crashes {
		keys = append(keys, c.Key)
	}
	sort.Strings(keys)
	return st.Edges, corpus, keys
}

// TestSanitizeDifferentialCleanTarget runs the same campaign on a clean
// target with the sanitizer off and on: coverage bitmaps, corpus and crash
// tables must be identical, because SanitizerPass creates no blocks (probe
// IDs unchanged) and OpSanCheck is instruction-budget-transparent.
func TestSanitizeDifferentialCleanTarget(t *testing.T) {
	const execs = 3000
	run := func(sanitize bool) (int, [][]byte, []string) {
		f, err := NewBenchmarkFuzzerOptions("giftext", "closurex", Options{
			Seed: 7, DeterministicRand: true, Sanitize: sanitize,
		})
		if err != nil {
			t.Fatalf("fuzzer(sanitize=%v): %v", sanitize, err)
		}
		defer f.Close()
		f.RunExecs(execs)
		return campaignFingerprint(f)
	}
	offEdges, offCorpus, offKeys := run(false)
	onEdges, onCorpus, onKeys := run(true)
	if offEdges != onEdges {
		t.Errorf("edge counts diverge: off=%d on=%d", offEdges, onEdges)
	}
	if len(offCorpus) != len(onCorpus) {
		t.Fatalf("corpus sizes diverge: off=%d on=%d", len(offCorpus), len(onCorpus))
	}
	for i := range offCorpus {
		if !bytes.Equal(offCorpus[i], onCorpus[i]) {
			t.Fatalf("corpus entry %d diverges", i)
		}
	}
	if strings.Join(offKeys, "\n") != strings.Join(onKeys, "\n") {
		t.Errorf("crash tables diverge: off=%v on=%v", offKeys, onKeys)
	}
}

// TestSanitizeParallelJ1Determinism replays the PR-3 guarantee with the
// sanitizer armed: a Jobs=1 parallel campaign is bit-identical to the
// sequential campaign.
func TestSanitizeParallelJ1Determinism(t *testing.T) {
	const execs = 1500
	run := func(jobs int) (int, [][]byte, []string) {
		f := sanFuzzer(t, Options{Seed: 11, DeterministicRand: true, Jobs: jobs})
		defer f.Close()
		f.RunExecs(execs)
		return campaignFingerprint(f)
	}
	seqEdges, seqCorpus, seqKeys := run(0)
	parEdges, parCorpus, parKeys := run(1)
	if seqEdges != parEdges {
		t.Errorf("edge counts diverge: seq=%d j1=%d", seqEdges, parEdges)
	}
	if len(seqCorpus) != len(parCorpus) {
		t.Fatalf("corpus sizes diverge: seq=%d j1=%d", len(seqCorpus), len(parCorpus))
	}
	for i := range seqCorpus {
		if !bytes.Equal(seqCorpus[i], parCorpus[i]) {
			t.Fatalf("corpus entry %d diverges", i)
		}
	}
	if strings.Join(seqKeys, "\n") != strings.Join(parKeys, "\n") {
		t.Errorf("crash tables diverge: seq=%v j1=%v", seqKeys, parKeys)
	}
}

// TestSanitizerRepeatExecDeterminism runs the same trigger through one
// persistent image many times: the report must be identical every
// iteration, which holds only if the shadow plane and the free quarantine
// are fully restored between iterations.
func TestSanitizerRepeatExecDeterminism(t *testing.T) {
	f := sanFuzzer(t, Options{Seed: 3, DeterministicRand: true})
	defer f.Close()
	inputs := []string{"SD3x", "SD1abcdefgh", "SD0 clean", "SD3x", "SD4x", "SD3x"}
	want := map[string]string{}
	for round := 0; round < 5; round++ {
		for _, in := range inputs {
			crashed, key := f.TryOne([]byte(in))
			id := in
			got := key
			if !crashed {
				got = "<clean>"
			}
			if prev, ok := want[id]; !ok {
				want[id] = got
			} else if prev != got {
				t.Fatalf("round %d input %q: verdict drifted %q -> %q", round, in, prev, got)
			}
		}
	}
	if want["SD0 clean"] != "<clean>" {
		t.Fatalf("clean input misreported: %q", want["SD0 clean"])
	}
}
