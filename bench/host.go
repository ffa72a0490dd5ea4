package main

import (
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"syscall"
)

// envelope describes the host and settings of one run. It is written into
// every JSON record and trace file the benchmark produces.
type envelope struct {
	Workload   string  `json:"workload"`
	Nproc      int     `json:"nproc"`
	GOMAXPROCS int     `json:"gomaxprocs"`
	Go         string  `json:"go"`
	Commit     string  `json:"commit"`
	Seed       uint64  `json:"seed"`
	Seconds    float64 `json:"seconds"`
	Budget     int64   `json:"budget"`
	Warmup     int64   `json:"warmup"`
	Rounds     int     `json:"rounds"`
	Trace      bool    `json:"trace"`
}

func hostEnvelope(w *workload, cfg runConfig, rounds int) envelope {
	return envelope{
		Workload:   w.name,
		Nproc:      runtime.NumCPU(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		Go:         runtime.Version(),
		Commit:     gitCommit("."),
		Seed:       cfg.seed,
		Seconds:    cfg.seconds,
		Budget:     cfg.budgetFor(w),
		Warmup:     cfg.warmup,
		Rounds:     rounds,
		Trace:      cfg.trace,
	}
}

// gitCommit reads the checked-out commit from root/.git without running
// git, so a checkout without a repository simply reports "unknown".
func gitCommit(root string) string {
	gitDir := filepath.Join(root, ".git")
	head, err := os.ReadFile(filepath.Join(gitDir, "HEAD"))
	if err != nil {
		return "unknown"
	}
	ref, isRef := strings.CutPrefix(strings.TrimSpace(string(head)), "ref: ")
	if !isRef {
		return ref
	}
	if b, err := os.ReadFile(filepath.Join(gitDir, ref)); err == nil {
		return strings.TrimSpace(string(b))
	}
	packed, err := os.ReadFile(filepath.Join(gitDir, "packed-refs"))
	if err != nil {
		return "unknown"
	}
	for _, line := range strings.Split(string(packed), "\n") {
		if sha, name, ok := strings.Cut(line, " "); ok && name == ref {
			return sha
		}
	}
	return "unknown"
}

// peakRSSMiB returns the process's peak resident set size.
func peakRSSMiB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Maxrss) / 1024 // Linux reports KiB
}
