package main

import (
	"encoding/json"
	"fmt"
	"os"
)

// metricDef declares one metric the benchmark emits. BENCHMARK.json at the
// repository root declares the same names, units and directions (plus the
// end-to-end regression bounds); TestMetricsLockstep keeps the two in step.
type metricDef struct {
	Name   string
	Unit   string
	Better string // "higher" or "lower"
}

// e2eMetrics are printed by every untraced run, on every workload. An "op"
// is one execution for the campaign workloads and one target's pipeline
// for toolchain.
var e2eMetrics = []metricDef{
	{"ops_per_s", "1/s", "higher"},
	{"latency_us_p50", "us", "lower"},
	{"latency_us_p90", "us", "lower"},
	{"setup_s", "s", "lower"},
	{"heap_live_mb", "MiB", "lower"},
	{"edges", "count", "higher"},
}

// layerMetrics are printed by every traced run, on every workload.
var layerMetrics = []metricDef{
	{"fuzz.step_self_ns", "ns", "lower"},
	{"fuzz.mutate_ns", "ns", "lower"},
	{"fuzz.bitmap_ns", "ns", "lower"},
	{"fuzz.bitmap_cells_per_exec", "count", "lower"},
	{"fuzz.new_cov_ratio", "ratio", "higher"},
	{"fuzz.crash_per_kexec", "count", "higher"},
	{"execmgr.execute_ns", "ns", "lower"},
	{"execmgr.spawns_per_kexec", "count", "lower"},
	{"execmgr.respawn_us", "us", "lower"},
	{"mem.fork_ns", "ns", "lower"},
	{"mem.release_ns", "ns", "lower"},
	{"vm.call_ns", "ns", "lower"},
	{"vm.instrs_per_exec", "count", "lower"},
	{"vm.ns_per_instr", "ns", "lower"},
	{"harness.restore_ns", "ns", "lower"},
	{"harness.restore_bytes_per_exec", "B", "lower"},
	{"harness.shadow_pages_per_exec", "count", "lower"},
	{"harness.chunks_freed_per_exec", "count", "lower"},
	{"harness.fds_closed_per_exec", "count", "lower"},
	{"harness.restore_errors", "count", "lower"},
	{"minc.compile_ms", "ms", "lower"},
	{"passes.instrument_ms", "ms", "lower"},
	{"ir.instrs_after_passes", "count", "lower"},
	{"analysis.check_ms", "ms", "lower"},
	{"analysis.sanitize_ms", "ms", "lower"},
	{"analysis.sancheck_elided_ratio", "ratio", "higher"},
	{"analysis.interproc_ms", "ms", "lower"},
	{"analysis.harnessaudit_ms", "ms", "lower"},
	{"analysis.synth_ms", "ms", "lower"},
}

// benchSpec is the part of BENCHMARK.json the benchmark reads.
type benchSpec struct {
	RunSeconds int `json:"run_seconds"`
	Workloads  []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []specMetric `json:"end_to_end"`
	PerLayer []specMetric `json:"per_layer"`
}

type specMetric struct {
	Name   string   `json:"name"`
	Unit   string   `json:"unit"`
	Better string   `json:"better"`
	Bound  *float64 `json:"bound,omitempty"`
}

func loadSpec(path string) (*benchSpec, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var s benchSpec
	if err := json.Unmarshal(data, &s); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &s, nil
}
