// Package closurex is the public API of this reproduction of "ClosureX:
// Compiler Support for Correct Persistent Fuzzing" (ASPLOS 2025).
//
// The library turns a MinC program (a C subset; see internal/minc) into a
// naturally restartable fuzzing target: a compiler pass pipeline renames
// main, hooks exit(), routes heap and file-handle traffic through tracking
// wrappers and segregates writable globals into closure_global_section; a
// runtime harness then runs an entire fuzzing campaign inside one process
// image, restoring exactly the test-case-specific state between runs.
//
// Quick start:
//
//	f, err := closurex.NewFuzzer(source, seeds, closurex.Options{})
//	if err != nil { ... }
//	defer f.Close()
//	f.RunFor(5 * time.Second)
//	fmt.Println(f.Stats())
//
// The paper's ten benchmark targets (Table 4) are pre-registered; build a
// fuzzer for one with NewBenchmarkFuzzer("gpmf-parser", "closurex", 1).
package closurex

import (
	"fmt"
	"time"

	"closurex/internal/analysis"
	"closurex/internal/core"
	"closurex/internal/execmgr"
	"closurex/internal/fuzz"
	"closurex/internal/targets"
	"closurex/internal/vm"
)

// Mechanisms returns the execution-mechanism names on the paper's state
// restoration spectrum, slowest first: "fresh", "forkserver",
// "snapshot-lkm" (the related work's kernel snapshotting),
// "persistent-naive" (fast but incorrect), "closurex".
func Mechanisms() []string { return execmgr.Names() }

// Benchmarks returns the registered Table 4 benchmark names (auxiliary
// test-fixture targets like sandefect are resolvable by name but not
// part of the evaluation suite).
func Benchmarks() []string {
	var out []string
	for _, t := range targets.Benchmarks() {
		out = append(out, t.Name)
	}
	return out
}

// Options configures a Fuzzer.
type Options struct {
	// Mechanism is one of Mechanisms(); default "closurex".
	Mechanism string
	// Seed seeds the deterministic campaign RNG.
	Seed uint64
	// MaxInputLen bounds mutated inputs (default 4096).
	MaxInputLen int
	// Budget bounds interpreted instructions per execution.
	Budget int64
	// DeferInit hoists a closurex_init routine out of the fuzzing loop.
	DeferInit bool
	// ImagePages sizes the simulated resident process image.
	ImagePages int
	// Files pre-populates the target's virtual filesystem (config files
	// read during initialization, for example). The test case itself
	// always appears at "/input".
	Files map[string][]byte
	// Dict supplies format keywords (magics, FourCCs) for the dictionary
	// mutators, as AFL users would via -x.
	Dict [][]byte
	// AutoDict additionally harvests an auto-dictionary from the compiled
	// module: the input-dataflow analysis (analysis/harnessaudit) extracts
	// the constants input-derived values are compared against — multi-byte
	// magics in both endiannesses, rodata strings behind str/memcmp,
	// call-site constant clusters — and merges them after Dict,
	// deduplicated and capped. Off, the dictionary is exactly Dict.
	AutoDict bool
	// Resilient wraps the closurex mechanism in the campaign resilience
	// ladder: a restore watchdog that validates post-iteration invariants
	// every 64 executions, quarantine + image rebuild on violation, and
	// graceful degradation to the forkserver after 3 consecutive rebuilds.
	// The bounds are fixed. It is the only way to select the ladder; with
	// any other mechanism building the fuzzer fails.
	Resilient bool
	// SentinelEvery arms the divergence sentinel: every N executions one
	// queue entry is replayed in a fresh process image and cross-checked
	// against the persistent mechanism (edge set + fault verdict). 0
	// disables. Implies DeterministicRand so per-process entropy cannot
	// masquerade as divergence.
	SentinelEvery int64
	// DeterministicRand pins the target's rand()/heap-ASLR entropy to
	// Seed. Required for bit-identical checkpoint/resume.
	DeterministicRand bool
	// Sanitize arms the ASan-style heap sanitizer: the build carries
	// shadow-memory checks before every heap access (statically elided
	// where the bounds analysis proves them unnecessary, unless
	// SanitizeNoElide), allocations get redzones, frees go through a
	// poisoning quarantine, and crashes carry allocation/free sites that
	// refine triage buckets. Coverage bitmap geometry is identical with
	// and without the sanitizer.
	Sanitize bool
	// SanitizeNoElide disables the static check-elision analysis while
	// keeping the sanitizer armed — the benchmark configuration that
	// measures what the analysis is worth. Requires Sanitize; without it
	// building the fuzzer fails.
	SanitizeNoElide bool
	// Interproc arms restore elision: the build runs the interprocedural
	// mod/ref + lifetime analysis (InterprocPass) and the ClosureX harness
	// scopes snapshot/restore/watchdog work to the proven may-write byte
	// ranges of closure_global_section. Coverage bitmaps and corpora are
	// bit-identical with and without it.
	Interproc bool
	// AuditRestore periodically re-checks the full closure section (and
	// the must-free/must-close censuses) against the init snapshot at
	// runtime, repairing and surfacing any drift the elided restore would
	// have missed — the soundness net under Interproc.
	AuditRestore bool
	// Stop, when non-nil, makes RunFor/RunExecs return cleanly (at a
	// checkpointable boundary) once the channel is closed.
	Stop <-chan struct{}
	// ResumeFrom restores campaign state from Fuzzer.Checkpoint bytes.
	// The source/benchmark, mechanism and Seed must match the checkpointed
	// run. Implies DeterministicRand. A parallel checkpoint resumed under
	// the same Jobs continues bit-identically; under a different Jobs > 1
	// the resume is elastic — the merged corpus is re-sharded
	// deterministically and coverage/counters/crash tables are preserved
	// exactly, but the forward mutation streams differ (inherent to
	// changing the topology).
	ResumeFrom []byte
	// Jobs shards the campaign across N parallel workers, each running its
	// own process image with an independent RNG stream split from Seed,
	// merging coverage into a shared global bitmap and publishing corpus
	// discoveries to the other shards at sync points. 0 or 1 fuzzes
	// sequentially; Jobs == 1 through the parallel executor is
	// bit-identical to the sequential campaign. When the sentinel is armed
	// it rides on shard 0. Each shard runs under a supervisor that restarts
	// it on faults with exponential backoff, rebuilds its mechanism in
	// place (a fresh fork of the post-init template) past 3 consecutive
	// faults, and quarantines it permanently if that fails too — the
	// campaign continues on the remaining healthy shards.
	Jobs int
	// ShardBackoff is the base shard-restart cooldown, doubling per
	// consecutive fault (0 = default 2ms). Jobs > 1 only.
	ShardBackoff time.Duration
}

// CrashReport describes one triaged, deduplicated crash.
type CrashReport struct {
	// Key is the triage bucket: "<kind>@<function>:<line>".
	Key string
	// Kind is the sanitizer classification ("null-pointer-dereference",
	// "division-by-zero", ...).
	Kind string
	// Fn and Line locate the faulting source position.
	Fn   string
	Line int32
	// Input is the first test case that triggered the crash.
	Input []byte
	// FirstAt is the campaign time of first discovery.
	FirstAt time.Duration
	// Count is how many executions hit this bucket.
	Count int64
}

// Stats summarizes a campaign.
type Stats struct {
	// Execs is the number of test cases executed.
	Execs int64
	// ExecsPerSec is the mean execution rate so far.
	ExecsPerSec float64
	// Edges is the number of distinct coverage-map cells hit.
	Edges int
	// TotalEdges is the static bound on distinct coverage edges (the
	// denominator for coverage percentages).
	TotalEdges int
	// QueueLen is the corpus size.
	QueueLen int
	// Spawns counts process images built or forked (the
	// process-management cost the paper eliminates).
	Spawns int64
	// Crashes lists triaged crashes in discovery order.
	Crashes []CrashReport
	// Hangs lists triaged hangs (instruction-budget exhaustion), kept in a
	// separate table with function-level dedup so slow inputs are never
	// conflated with sanitizer faults.
	Hangs []CrashReport
	// Divergences counts sentinel probes whose persistent replay
	// disagreed with the fresh-process reference.
	Divergences int
	// Quarantined counts inputs pulled out of rotation by the sentinel or
	// the restore watchdog.
	Quarantined int
	// Degraded reports that the resilience ladder fell back from the
	// persistent mechanism to the forkserver.
	Degraded bool
}

func (s Stats) String() string {
	out := fmt.Sprintf("execs=%d (%.0f/s) edges=%d/%d queue=%d spawns=%d crashes=%d",
		s.Execs, s.ExecsPerSec, s.Edges, s.TotalEdges, s.QueueLen, s.Spawns, len(s.Crashes))
	if len(s.Hangs) > 0 {
		out += fmt.Sprintf(" hangs=%d", len(s.Hangs))
	}
	if s.Divergences > 0 || s.Quarantined > 0 {
		out += fmt.Sprintf(" divergences=%d quarantined=%d", s.Divergences, s.Quarantined)
	}
	if s.Degraded {
		out += " DEGRADED(forkserver)"
	}
	return out
}

// Fuzzer is a ready-to-run fuzzing configuration: an instrumented target,
// an execution mechanism and a campaign.
type Fuzzer struct {
	inst *core.Instance
}

// NewFuzzer compiles MinC source, instruments it for the chosen mechanism
// and prepares a campaign over the given seed corpus.
func NewFuzzer(source string, seeds [][]byte, opts Options) (*Fuzzer, error) {
	mechanism := opts.Mechanism
	if mechanism == "" {
		mechanism = "closurex"
	}
	t := &targets.Target{
		Name:        "user",
		Short:       "user",
		Source:      source,
		Seeds:       func() [][]byte { return seeds },
		MaxInputLen: opts.MaxInputLen,
		ImagePages:  opts.ImagePages,
	}
	for _, tok := range opts.Dict {
		t.Dict = append(t.Dict, string(tok))
	}
	return newFuzzer(t, mechanism, opts)
}

// newFuzzer builds the core instance for t under the public options.
func newFuzzer(t *targets.Target, mechanism string, opts Options) (*Fuzzer, error) {
	if opts.SanitizeNoElide && !opts.Sanitize {
		return nil, fmt.Errorf("closurex: SanitizeNoElide requires Sanitize")
	}
	inst, err := core.NewInstance(t, mechanism, instanceOptions(opts))
	if err != nil {
		return nil, err
	}
	return &Fuzzer{inst: inst}, nil
}

// instanceOptions maps the public Options onto core's instance knobs.
func instanceOptions(opts Options) core.InstanceOptions {
	io := core.InstanceOptions{
		TrialSeed:         opts.Seed,
		Budget:            opts.Budget,
		DeferInit:         opts.DeferInit,
		Files:             opts.Files,
		SentinelEvery:     opts.SentinelEvery,
		DeterministicRand: opts.DeterministicRand,
		Stop:              opts.Stop,
		ResumeFrom:        opts.ResumeFrom,
		Jobs:              opts.Jobs,
		ShardBackoff:      opts.ShardBackoff,
		Interproc:         opts.Interproc,
		AuditRestore:      opts.AuditRestore,
		AutoDict:          opts.AutoDict,
		Resilient:         opts.Resilient,
	}
	if opts.Sanitize {
		io.Sanitize = core.SanitizeElide
		if opts.SanitizeNoElide {
			io.Sanitize = core.SanitizeNoElide
		}
	}
	return io
}

// NewBenchmarkFuzzer builds a fuzzer for a registered Table 4 benchmark
// under the given mechanism; trialSeed makes runs reproducible.
func NewBenchmarkFuzzer(benchmark, mechanism string, trialSeed uint64) (*Fuzzer, error) {
	return NewBenchmarkFuzzerOptions(benchmark, mechanism, Options{Seed: trialSeed})
}

// NewBenchmarkFuzzerOptions is NewBenchmarkFuzzer with the full option
// surface (resilience ladder, sentinel, checkpoint resume, stop channel).
func NewBenchmarkFuzzerOptions(benchmark, mechanism string, opts Options) (*Fuzzer, error) {
	t := targets.Get(benchmark)
	if t == nil {
		return nil, fmt.Errorf("closurex: unknown benchmark %q (have %v)", benchmark, Benchmarks())
	}
	if mechanism == "" {
		mechanism = "closurex"
	}
	return newFuzzer(t, mechanism, opts)
}

// RunFor fuzzes until d has elapsed.
func (f *Fuzzer) RunFor(d time.Duration) { f.inst.Driver().RunFor(d) }

// RunExecs fuzzes until at least n test cases have executed (aggregated
// across shards when Jobs > 1).
func (f *Fuzzer) RunExecs(n int64) { f.inst.Driver().RunExecs(n) }

// Jobs returns the number of parallel campaign shards (1 when sequential).
func (f *Fuzzer) Jobs() int { return f.inst.Jobs() }

// TryOne executes a single input and reports whether it crashed, with the
// triage key if so. Useful for reproducing a crash outside the campaign.
func (f *Fuzzer) TryOne(input []byte) (crashed bool, key string) {
	res := f.inst.Mech.Execute(input)
	fuzz.ClearTrace(f.inst.CovMap)
	if res.Fault != nil {
		return true, res.Fault.Key()
	}
	return false, ""
}

// Stats returns a snapshot of campaign progress. With Jobs > 1 the
// counters aggregate across shards and Spawns sums every shard's process
// spawns.
func (f *Fuzzer) Stats() Stats {
	c := f.inst.Driver()
	st := Stats{
		Execs:      c.Execs(),
		Edges:      c.Edges(),
		TotalEdges: f.inst.TotalEdges(),
		QueueLen:   c.QueueLen(),
	}
	for _, m := range f.inst.Mechs {
		st.Spawns += m.Spawns()
	}
	if el := c.Elapsed(); el > 0 {
		st.ExecsPerSec = float64(c.Execs()) / el.Seconds()
	}
	for _, cr := range c.Crashes() {
		st.Crashes = append(st.Crashes, report(cr))
	}
	for _, h := range c.Hangs() {
		st.Hangs = append(st.Hangs, report(h))
	}
	st.Divergences = len(c.Divergences())
	st.Quarantined = len(c.Quarantined())
	for _, m := range f.inst.Mechs {
		if r, ok := m.(*execmgr.Resilient); ok {
			st.Quarantined += len(r.Quarantined())
			st.Degraded = st.Degraded || r.Degraded()
		}
	}
	return st
}

func report(cr *fuzz.Crash) CrashReport {
	return CrashReport{
		Key:     cr.Key,
		Kind:    cr.Kind.String(),
		Fn:      cr.Fn,
		Line:    cr.Line,
		Input:   append([]byte(nil), cr.Input...),
		FirstAt: cr.FirstAt,
		Count:   cr.Count,
	}
}

// Checkpoint serializes the campaign's resumable state (queue, bitmap,
// crash and hang tables, RNG, scheduler and sentinel cursors; with Jobs >
// 1, one such blob per shard plus the merged campaign view). Feed the
// bytes back through Options.ResumeFrom to continue the campaign — with
// DeterministicRand and the same Jobs, bit-identically to an uninterrupted
// run; with a different Jobs > 1, elastically (see Options.ResumeFrom).
func (f *Fuzzer) Checkpoint() ([]byte, error) { return f.inst.Driver().Checkpoint() }

// CheckpointTo writes the checkpoint atomically to path (temp file in the
// same directory + rename), so a crash mid-write leaves the previous
// checkpoint intact instead of a truncated file Resume would reject.
func (f *Fuzzer) CheckpointTo(path string) error {
	return fuzz.SaveCheckpoint(f.inst.Driver(), path, nil)
}

// ShardHealth is one parallel shard's supervision snapshot (see
// Options.Jobs): progress counters, the supervisor's restart/rebuild/
// quarantine state, and the inbox's shed-import counter.
type ShardHealth struct {
	Shard             int
	Execs             int64
	Crashes           int64
	Hangs             int64
	ExecRate          float64
	Restarts          int64
	Rebuilds          int64
	RestoreFailures   int64
	ConsecutiveFaults int64
	HangEscalations   int64
	InboxDropped      int64
	Quarantined       bool
	Stalled           bool
	LastProgress      time.Time
	LastFault         string
	MechDegraded      bool
}

// ShardHealth snapshots per-shard supervision state. Sequential fuzzers
// (Jobs <= 1) return nil. Safe to call while the campaign runs.
func (f *Fuzzer) ShardHealth() []ShardHealth {
	if f.inst.Parallel == nil {
		return nil
	}
	var out []ShardHealth
	for _, h := range f.inst.Parallel.Health() {
		out = append(out, ShardHealth(h))
	}
	return out
}

// HealthyShards counts shards not quarantined by their supervisor (equal
// to Jobs for sequential or fault-free fuzzers).
func (f *Fuzzer) HealthyShards() int {
	if f.inst.Parallel == nil {
		return 1
	}
	return f.inst.Parallel.HealthyShards()
}

// MinimizeCrash shrinks a crashing input to a minimal witness that still
// triggers the same triage bucket, then zeroes every byte that is not
// load-bearing (the afl-tmin workflow). The input must crash.
func (f *Fuzzer) MinimizeCrash(input []byte) ([]byte, error) {
	crashed, key := f.TryOne(input)
	if !crashed {
		return nil, fmt.Errorf("closurex: input does not crash")
	}
	pred := func(cand []byte) bool {
		c, k := f.TryOne(cand)
		return c && k == key
	}
	out := fuzz.TrimInput(input, pred)
	return fuzz.NormalizeInput(out, pred), nil
}

// MinimizeCorpus returns a coverage-preserving subset of the campaign's
// queue (the afl-cmin workflow): the smallest greedy set of inputs hitting
// every coverage-map cell the full queue hits.
func (f *Fuzzer) MinimizeCorpus() [][]byte {
	trace := func(in []byte) map[int]bool {
		f.inst.Mech.Execute(in)
		out := map[int]bool{}
		fuzz.ConsumeTrace(f.inst.CovMap, func(i int, _ byte) { out[i] = true })
		return out
	}
	return fuzz.MinimizeCorpus(f.Corpus(), trace)
}

// Corpus returns the accumulated queue inputs (deduplicated across shards
// when Jobs > 1).
func (f *Fuzzer) Corpus() [][]byte {
	var out [][]byte
	for _, e := range f.inst.Driver().Queue() {
		out = append(out, append([]byte(nil), e.Input...))
	}
	return out
}

// Mechanism returns the active execution mechanism's name.
func (f *Fuzzer) Mechanism() string { return f.inst.Mech.Name() }

// Close releases the fuzzer's process images.
func (f *Fuzzer) Close() { f.inst.Close() }

// CheckSource type-checks MinC source without building a fuzzer, returning
// a descriptive error for invalid programs.
func CheckSource(source string) error {
	_, err := core.Compile("user.c", source)
	return err
}

// Diagnostic is one structured finding from the static verifier or the
// restore-completeness lints: a stable catalog ID (CLX001…), a severity
// ("error" diagnostics make Lint-gated campaigns refuse to start), the
// pipeline pass held responsible, and the IR location.
type Diagnostic struct {
	ID       string
	Severity string
	Pass     string
	Func     string
	Block    int
	Instr    int
	Line     int32
	Msg      string
}

func (d Diagnostic) String() string {
	loc := ""
	if d.Func != "" {
		loc = " " + d.Func
		if d.Block >= 0 {
			loc += fmt.Sprintf(" b%d", d.Block)
		}
		if d.Line > 0 {
			loc += fmt.Sprintf(" line %d", d.Line)
		}
	}
	return fmt.Sprintf("%s %s [%s]%s: %s", d.ID, d.Severity, d.Pass, loc, d.Msg)
}

func publicDiags(ds analysis.Diagnostics) []Diagnostic {
	out := make([]Diagnostic, len(ds))
	for i, d := range ds {
		out[i] = Diagnostic{
			ID: d.ID, Severity: d.Sev.String(), Pass: d.Pass, Func: d.Func,
			Block: d.Block, Instr: d.Instr, Line: d.Line, Msg: d.Msg,
		}
	}
	return out
}

// HasLintErrors reports whether any diagnostic is error-severity — the
// condition under which a -lint campaign refuses to start.
func HasLintErrors(ds []Diagnostic) bool {
	for i := range ds {
		if ds[i].Severity == analysis.SevError.String() {
			return true
		}
	}
	return false
}

// Lint statically checks the fuzzer's instrumented module: the IR verifier
// (structure + definite-assignment dataflow) plus the restore-completeness
// lints appropriate for the active mechanism. A persistent (closurex)
// build is checked against the full catalog — no raw malloc/fopen/exit
// call sites, every writable global in closure_global_section, main
// renamed, collision-free coverage probes; baseline builds are checked
// against the shared subset. An empty result means the static analyzer
// can prove the campaign's between-iteration restores are complete.
func (f *Fuzzer) Lint() []Diagnostic {
	v := core.VariantFor(f.inst.Mech.Name())
	return publicDiags(core.CheckModule(f.inst.Module, v))
}

// LintSource compiles MinC source, runs the full ClosureX pipeline plus
// coverage over it, and returns the verifier/lint findings — the
// library-level equivalent of the closurex-lint command.
func LintSource(source string) ([]Diagnostic, error) {
	mod, err := core.Build("user.c", source, core.ClosureX)
	if err != nil {
		return nil, err
	}
	return publicDiags(core.CheckModule(mod, core.ClosureX)), nil
}

// SectionLayout compiles source with the full ClosureX pipeline and
// renders the resulting section table — the Figure 3 view showing writable
// globals segregated into closure_global_section.
func SectionLayout(source string) (string, error) {
	mod, err := core.Build("user.c", source, core.ClosureX)
	if err != nil {
		return "", err
	}
	return vm.NewLayout(mod).String(), nil
}
