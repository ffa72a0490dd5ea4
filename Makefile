GO ?= go

.PHONY: all build test vet race faultcheck lint staticcheck sanitize interproc harness-audit chaos synth fuzz layerbench check bench benchjson clean

# Pinned staticcheck release for the opt-in `staticcheck` target.
STATICCHECK_VERSION ?= 2025.1
STATICCHECK = honnef.co/go/tools/cmd/staticcheck@$(STATICCHECK_VERSION)

all: build

build:
	$(GO) build ./...

# Tier-1: the gate every change must pass.
test:
	$(GO) test ./...

vet:
	$(GO) vet ./...

# Race-detector gate, scoped to the concurrency-bearing packages (the
# parallel campaign fleet, harness, VM, memory): the rest of the suite is
# single-threaded interpreter work that -race only makes slow. The
# parallel tests shrink their exec budgets under the race build tag.
race:
	$(GO) test -race -timeout 15m ./internal/fuzz/ ./internal/harness/ ./internal/vm/ ./internal/mem/

# The fault-injection / resilience suite on its own, verbose: every
# degradation edge (restore failure -> quarantine + rebuild; repeated
# failure -> forkserver fallback; sentinel divergence; checkpoint resume).
faultcheck:
	$(GO) test -v ./internal/faultinject/
	$(GO) test -v -run 'Injected|Fault|Resilient|Restore|Watchdog|Sentinel|Checkpoint|Resume|Degrad|Hang|Stop' \
		./internal/harness/ ./internal/execmgr/ ./internal/fuzz/ .

# Static correctness gate: gofmt (any unformatted file fails), go vet, the
# restore-completeness lints over every registered target, and the pipeline
# test suites with the deep analysis verifier re-checking the module after
# every pass (verifyeach).
# Everything here builds from the repository alone, so it runs offline.
lint:
	@test -z "$$(gofmt -l .)" || { echo "gofmt: these files need formatting:" >&2; gofmt -l . >&2; exit 1; }
	$(GO) vet ./...
	$(GO) run ./cmd/closurex-lint -q -target all
	$(GO) test -tags verifyeach ./internal/analysis/ ./internal/passes/ ./internal/core/

# Opt-in staticcheck run at the pinned release. The module is looked up in
# the local module cache only (GOPROXY=off); when it is not there the
# target fails with instructions instead of reaching for the network.
staticcheck:
	@GOPROXY=off $(GO) run $(STATICCHECK) -version >/dev/null 2>&1 || { \
		echo "staticcheck: $(STATICCHECK) is not in the module cache;" >&2; \
		echo "staticcheck: run 'go install $(STATICCHECK)' on a host with network access first" >&2; \
		exit 1; }
	GOPROXY=off $(GO) run $(STATICCHECK) ./...

# Sanitizer gate: the seeded-defect detection and differential suites, the
# shadow-plane and elision-analysis unit tests (including the shadow model
# property test and the harness's allocation gate on shadow rollback), a
# 200-iteration smoke run of the shadow benchmarks so they keep building
# and running, and the strict lint run with sanitizer instrumentation
# armed (CLX111-113 + per-function elision report over every registered
# target).
sanitize:
	$(GO) test -run 'Sanitiz|Shadow|Quarantine|Elision|Elide' . ./internal/mem/ ./internal/harness/ ./internal/passes/ ./internal/core/ ./internal/analysis/sanitize/
	$(GO) test -run '^$$' -bench Shadow -benchtime 200x ./internal/mem/
	$(GO) run ./cmd/closurex-lint -q -strict -target all -sanitize-report

# Restore-elision gate: the interprocedural analysis unit suites
# (call graph, mod/ref, lifetime, audit), the off-vs-on differential
# (bit-identical coverage/corpus/crashes on every target), the runtime
# audit suite (zero elision drift over hundreds of iterations), and the
# strict lint run with the per-function elision report.
interproc:
	$(GO) test ./internal/analysis/interproc/
	$(GO) test -run 'Interproc|Elision|Elide' ./internal/core/ ./internal/harness/ ./internal/vm/ ./internal/passes/
	$(GO) run ./cmd/closurex-lint -q -target all -interproc-report

# Harness-quality gate: the audit analysis suites (reachability, coverage
# geometry, input dataflow, auto-dictionary) plus the strict audited lint
# run over every registered target — any CLX119-121 finding (dead harness
# surface, degraded coverage geometry, dead dictionary token) fails the
# build. The score cards print so regressions are diagnosable from CI logs.
harness-audit:
	$(GO) test ./internal/analysis/harnessaudit/
	$(GO) test -run 'Dict|Catalog|PreferredProbe|CovMapCells' ./internal/fuzz/ ./internal/analysis/ ./internal/passes/
	$(GO) run ./cmd/closurex-lint -q -strict -target all -harness-report

# Chaos gate: the shard-supervision fault-injection matrix. Unit level,
# the chaos suite (shard kill -> restart/quarantine, restore corruption ->
# rebuild ladder, corpus delay/drop, hang escalation, torn checkpoint
# writes, elastic resume), the corpus-exchange unit tests and the in-place
# mechanism rebuild tests (every mechanism's Rebuild; a rebuilt shard 0
# keeps the instance and the facade live) run plain and under -race; end
# to end, the closurex-bench matrix injects each fault class into a real
# compiled target's parallel campaign and gates on completion + coverage
# superset + no goroutine leak. The plain run repeats under -cpu 1,2,4:
# shard scheduling, and so the supervision ladder's timing, depends on the
# CPU count.
chaos:
	$(GO) test -cpu 1,2,4 -run 'Chaos|Supervis|Elastic|TornWrite|ResumeError|ForShard|HealthLog|CorpusExchange|MechanismRebuild|ShardRebuild' \
		./internal/fuzz/ ./internal/faultinject/ ./internal/stats/ ./internal/execmgr/ ./internal/core/ .
	$(GO) test -race -timeout 15m -run 'Chaos|Supervis|Elastic|TornWrite|ResumeError|CorpusExchange|MechanismRebuild|ShardRebuild' \
		./internal/fuzz/ ./internal/execmgr/ ./internal/core/ .
	$(GO) run ./cmd/closurex-bench -chaos -chaos-execs 20000 -chaos-json BENCH_chaos.json

# Harness-synthesis gate: the synth suite plain and under -race (the
# synthesized targets register into the shared registry and run real
# campaigns), then the all-targets synthesis report — a build or
# certification failure (CLX130) in any synthesized harness fails the
# gate; CLX128/129/131 are advisory and tolerated.
synth:
	$(GO) test -count=1 ./internal/analysis/synth/
	$(GO) test -race -timeout 15m -count=1 -run 'Synth' ./internal/analysis/synth/ ./internal/experiments/
	$(GO) run ./cmd/closurex-lint -q -target all -synth

# Fuzz gate: two short native Go fuzzing runs. FuzzInstrumentAnalyses
# mutates the targets' MinC sources through compile, ClosureX
# instrumentation and both elision analyses, built with the verifyeach tag
# so the deep verifier and the interprocedural audit run after every pass;
# a panic, a pass that leaves an invalid module, or an accepted module the
# verifier or lints reject fails it. FuzzResume mutates real sequential and
# parallel checkpoints; Resume and ResumeParallel may reject a blob only
# with ErrBadCheckpoint and must never panic. Both seed corpora are large
# inputs (target sources, checkpoints carrying a 64 KiB coverage map):
# minimizing each new-coverage input for the default 60 s would spend the
# whole budget there, so minimization is cut to one attempt. Findings
# belong in the package's testdata/fuzz/, where plain `go test` replays
# them.
fuzz:
	$(GO) test -tags verifyeach -run '^$$' -fuzz FuzzInstrumentAnalyses -fuzztime 20s -fuzzminimizetime 1x ./internal/core/
	$(GO) test -run '^$$' -fuzz FuzzResume -fuzztime 10s -fuzzminimizetime 1x ./internal/fuzz/

# Layer-benchmark smoke: 200 iterations each of the interpreter replay
# (every target's seeds through its ClosureX mechanism, no mutation and no
# bitmap update; ns/op and ns/instr), the coverage-map update, the
# interpreter's memory accesses (word reads, writes and a frame scrub over
# a small working set; ns/access), the forkserver's fork+release (a
# 1,024-page Memory, and VM images of 800 and 1,600 pages), and the two
# mechanism steps built on fork (a forkserver exec, fork to release, and
# a ClosureX exec that crashes and respawns, both on a 1,600-page image),
# so all of them keep building and running. Compare a layer across
# changes with a longer -benchtime.
layerbench:
	$(GO) test -run '^$$' -bench InterpreterSeeds -benchtime 200x ./internal/core/
	$(GO) test -run '^$$' -bench BitmapUpdate -benchtime 200x ./internal/fuzz/
	$(GO) test -run '^$$' -bench 'ForkRelease|MemoryAccess' -benchtime 200x ./internal/mem/
	$(GO) test -run '^$$' -bench ImageFork -benchtime 200x ./internal/vm/
	$(GO) test -run '^$$' -bench 'ForkServerExecute|ClosureXRespawn' -benchtime 200x ./internal/execmgr/

check: vet test race faultcheck lint sanitize interproc harness-audit chaos synth fuzz layerbench benchjson

bench:
	$(GO) test -bench=. -benchmem ./...

# Machine-readable benchmark artifacts: a short parallel-scaling sweep
# (jobs = 1, 2, 4, GOMAXPROCS -> BENCH_parallel.json), the sanitizer
# overhead sweep (modes off / on / on+elide -> BENCH_sanitizer.json), and
# the restore-elision sweep (elision off vs on per target ->
# BENCH_interproc.json), the harness-audit sweep (auto-dictionary off
# vs on per target -> BENCH_harness.json), and the synthesized-harness
# sweep (manual vs manual+synthesized coverage per target ->
# BENCH_synth.json; any CLX130 fails the bench), so throughput,
# shadow-check cost, restore scope and harness quality are tracked as
# artifacts rather than eyeballed from logs. Every throughput figure is
# the median and [q1, q3] of five alternating rounds; -buildvcs=true
# stamps the commit into each timed report's host envelope (plain `go run`
# records none). A violated tripwire (edges_match, deterministic_off,
# shard restarts) exits 1 after the artifact is written.
benchjson:
	$(GO) run -buildvcs=true ./cmd/closurex-bench -parallel-scaling -parallel-execs 20000 -parallel-json BENCH_parallel.json
	$(GO) run -buildvcs=true ./cmd/closurex-bench -sanitizer-overhead -sanitizer-execs 20000 -sanitizer-json BENCH_sanitizer.json
	$(GO) run -buildvcs=true ./cmd/closurex-bench -restore-elision -interproc-execs 20000 -interproc-json BENCH_interproc.json
	$(GO) run -buildvcs=true ./cmd/closurex-bench -dict-gain -dict-execs 20000 -dict-json BENCH_harness.json
	$(GO) run -buildvcs=true ./cmd/closurex-bench -synth-gain -synth-execs 10000 -synth-json BENCH_synth.json

clean:
	$(GO) clean ./...
