package fuzz

import (
	"errors"
	"testing"
)

// FuzzResume feeds mutated checkpoint blobs, seeded with real sequential
// and J = 2 parallel checkpoints, to Resume and to ResumeParallel at the
// same and at a different J (the exact and the elastic path). A blob may
// be rejected only with an error wrapping ErrBadCheckpoint; an accepted
// one must keep fuzzing for a bounded number of executions and checkpoint
// again. Nothing may panic.
func FuzzResume(f *testing.F) {
	seqCfg := func() Config {
		ex := &resilienceExecutor{cov: make([]byte, MapSize)}
		ref := &resilienceExecutor{cov: make([]byte, MapSize)}
		return Config{Executor: ex, CovMap: ex.cov, Seed: 5,
			Sentinel: &SentinelConfig{Reference: ref, RefCovMap: ref.cov, Every: 16}}
	}
	c := NewCampaign(func() Config { cfg := seqCfg(); cfg.Seeds = [][]byte{{'a'}, {'H'}, {0xee}}; return cfg }())
	c.RunExecs(300)
	seq, err := c.Checkpoint()
	if err != nil {
		f.Fatal(err)
	}
	f.Add(seq)

	// Two fleet configurations: the checkpoint's J = 2, and J = 1, which
	// takes the elastic path.
	fleetCfg := func(jobs int) ParallelConfig {
		var shards []ShardConfig
		for j := 0; j < jobs; j++ {
			ex, cov := newLadder("MAGIC")
			shards = append(shards, ShardConfig{Executor: ex, CovMap: cov})
		}
		return ParallelConfig{Shards: shards, Seed: 31, Fingerprint: "ladder@test",
			Seeds: [][]byte{[]byte("xxxxxxxx")}, SyncEvery: 64}
	}
	p, err := NewParallelCampaign(fleetCfg(2))
	if err != nil {
		f.Fatal(err)
	}
	p.RunExecs(1000)
	par, err := p.Checkpoint()
	if err != nil {
		f.Fatal(err)
	}
	f.Add(par)

	const budget = 200
	rejected := func(t *testing.T, err error) bool {
		t.Helper()
		if err != nil && !errors.Is(err, ErrBadCheckpoint) {
			t.Fatalf("rejection does not wrap ErrBadCheckpoint: %v", err)
		}
		return err != nil
	}
	f.Fuzz(func(t *testing.T, blob []byte) {
		if c, err := Resume(seqCfg(), blob); !rejected(t, err) {
			c.RunExecs(c.Execs() + budget)
			if _, err := c.Checkpoint(); err != nil {
				t.Fatalf("resumed campaign cannot checkpoint: %v", err)
			}
		}
		for _, jobs := range []int{2, 1} {
			if p, err := ResumeParallel(fleetCfg(jobs), blob); !rejected(t, err) {
				p.RunExecs(p.Execs() + budget)
				if _, err := p.Checkpoint(); err != nil {
					t.Fatalf("resumed J=%d fleet cannot checkpoint: %v", jobs, err)
				}
			}
		}
	})
}
