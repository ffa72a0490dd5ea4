package experiments

import (
	"encoding/json"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"
	"time"
)

// fakeClock stands in for sweepClock: time moves only when a fake arm says
// so, so a sweep's measurements are exact.
type fakeClock struct{ now time.Time }

func (c *fakeClock) advance(d time.Duration) { c.now = c.now.Add(d) }

// TestSweepAlternatesAndTimesOnlyTheRun drives two fake arms whose build,
// run and stop each advance the clock by a different amount, and checks the
// call order (forward, then reversed, every round) and that only the run
// time enters execs/s.
func TestSweepAlternatesAndTimesOnlyTheRun(t *testing.T) {
	clock := &fakeClock{now: time.Unix(0, 0)}
	defer func(orig func() time.Time) { sweepClock = orig }(sweepClock)
	sweepClock = func() time.Time { return clock.now }

	var calls []string
	fake := func(name string, runTime time.Duration) arm {
		return func() (trial, error) {
			calls = append(calls, "build "+name)
			clock.advance(time.Second)
			return trial{
				run: func() int64 {
					calls = append(calls, "run "+name)
					clock.advance(runTime)
					return 1000
				},
				stop: func() {
					calls = append(calls, "stop "+name)
					clock.advance(time.Second)
				},
			}, nil
		}
	}
	s, err := sweep(fake("a", 10*time.Millisecond), fake("b", 20*time.Millisecond))
	if err != nil {
		t.Fatal(err)
	}
	var want []string
	for round := 0; round < sweepRounds; round++ {
		order := []string{"a", "b"}
		if round%2 == 1 {
			order = []string{"b", "a"}
		}
		for _, n := range order {
			want = append(want, "build "+n, "run "+n, "stop "+n)
		}
	}
	if !reflect.DeepEqual(calls, want) {
		t.Fatalf("call order:\n got %v\nwant %v", calls, want)
	}
	if (s[0] != Spread{Median: 100000, Q1: 100000, Q3: 100000}) || s[1].Median != 50000 {
		t.Fatalf("spreads = %+v; want exactly 1000 execs per run time", s)
	}
	if r := ratio(s[0], s[1]); r.X != 2 || r.Verdict != "resolved" {
		t.Fatalf("ratio = %+v", r)
	}
}

func TestRatioVerdict(t *testing.T) {
	base := Spread{Median: 100, Q1: 90, Q3: 110}
	for _, c := range []struct {
		arm  Spread
		want string
	}{
		{Spread{Median: 130, Q1: 120, Q3: 140}, "resolved"},
		{Spread{Median: 70, Q1: 60, Q3: 80}, "resolved"},
		{Spread{Median: 120, Q1: 105, Q3: 125}, "unresolved"},
		{Spread{Median: 100, Q1: 110, Q3: 130}, "unresolved"}, // touching ends overlap
	} {
		if got := ratio(c.arm, base).Verdict; got != c.want {
			t.Errorf("ratio(%v, %v) verdict = %s, want %s", c.arm, base, got, c.want)
		}
		if ratio(c.arm, base).Verdict != ratio(base, c.arm).Verdict {
			t.Errorf("verdict of %v vs %v is not symmetric", c.arm, base)
		}
	}
	var none *Ratio
	if none.String() != "-" || !strings.HasSuffix((&Ratio{X: 1.5, Verdict: "unresolved"}).String(), "unresolved") {
		t.Error("Ratio.String")
	}
}

// TestTimedReportsRoundTrip writes every timed report through WriteJSON and
// reads it back unchanged, host envelope included.
func TestTimedReportsRoundTrip(t *testing.T) {
	h := Host{NProc: 2, GOMAXPROCS: 2, GoVersion: "go1.x", Commit: "abc123", Modified: true, Rounds: sweepRounds}
	sp := Spread{Median: 100, Q1: 90, Q3: 110}
	r := &Ratio{X: 1.2, Verdict: "unresolved"}
	for _, c := range []struct {
		rep, back any
	}{
		{&ScalingReport{Host: h, HeadlineExecsPerSec: sp, HeadlineSpeedup: r,
			Rows: []ScalingRow{{Jobs: 1, ExecsPerSec: sp}, {Jobs: 2, ExecsPerSec: sp, Speedup: r}}}, &ScalingReport{}},
		{&SanitizerReport{Host: h, Rows: []SanitizerRow{{Mode: "off", ExecsPerSec: sp}, {Mode: "on+elide", Overhead: r, ElideVsOn: r}}}, &SanitizerReport{}},
		{&ElisionReport{Host: h, Rows: []ElisionRow{{Target: "zlib", ExecsPerSecOff: sp, Speedup: *r, EdgesMatch: true}}}, &ElisionReport{}},
		{&DictGainReport{Host: h, Rows: []DictGainRow{{Target: "zlib", ExecsPerSecOn: sp, DeterministicOff: true}}}, &DictGainReport{}},
	} {
		path := filepath.Join(t.TempDir(), "report.json")
		if err := WriteJSON(path, c.rep); err != nil {
			t.Fatal(err)
		}
		data, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		if !strings.Contains(string(data), `"host": {`) || !strings.HasSuffix(string(data), "}\n") {
			t.Errorf("%T: no host envelope or trailing newline:\n%s", c.rep, data)
		}
		if err := json.Unmarshal(data, c.back); err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(c.rep, c.back) {
			t.Errorf("%T round trip:\n got %+v\nwant %+v", c.rep, c.back, c.rep)
		}
	}
}
