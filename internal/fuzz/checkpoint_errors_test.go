package fuzz

import (
	"bytes"
	"encoding/gob"
	"errors"
	"testing"
)

// Supervisors decide between "retry with the right flags" and "start
// fresh" by errors.Is(err, ErrBadCheckpoint); every Resume rejection must
// carry the sentinel.
func TestResumeRejectionsWrapErrBadCheckpoint(t *testing.T) {
	c, ex := newResilienceCampaign([][]byte{{'a'}}, 5)
	c.RunExecs(100)
	good, err := c.Checkpoint()
	if err != nil {
		t.Fatal(err)
	}
	cfg := Config{Executor: ex, CovMap: ex.cov, Seed: 5}
	// edit re-encodes good with one field corrupted: states a gob decode
	// accepts but Step would index out of range with.
	edit := func(f func(st *checkpointState)) []byte {
		var st checkpointState
		if err := gob.NewDecoder(bytes.NewReader(good)).Decode(&st); err != nil {
			t.Fatal(err)
		}
		f(&st)
		var buf bytes.Buffer
		if err := gob.NewEncoder(&buf).Encode(&st); err != nil {
			t.Fatal(err)
		}
		return buf.Bytes()
	}

	cases := []struct {
		name string
		cfg  Config
		data []byte
	}{
		{"garbage bytes", cfg, []byte("not a checkpoint")},
		{"seed mismatch", func() Config { c := cfg; c.Seed = 6; return c }(), good},
		{"fingerprint mismatch", func() Config { c := cfg; c.Fingerprint = "other@fresh"; return c }(), good},
		{"short bitmap", cfg, edit(func(st *checkpointState) { st.Virgin = st.Virgin[:10] })},
		{"empty queue", cfg, edit(func(st *checkpointState) { st.Queue, st.Burst = nil, 0 })},
		{"negative execs", cfg, edit(func(st *checkpointState) { st.Execs = -1 })},
		{"negative cursor", cfg, edit(func(st *checkpointState) { st.Cursor = -1 })},
		{"cursor past execs", cfg, edit(func(st *checkpointState) { st.Cursor = int(st.Execs) + 1 })},
		{"negative sentinel cursor", cfg, edit(func(st *checkpointState) { st.SentCursor = -1 })},
		{"negative burst", cfg, edit(func(st *checkpointState) { st.Burst = -1 })},
		{"burst past havocPerSeed", cfg, edit(func(st *checkpointState) { st.Burst = havocPerSeed + 1 })},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			_, err := Resume(tc.cfg, tc.data)
			if err == nil {
				t.Fatal("bad checkpoint accepted")
			}
			if !errors.Is(err, ErrBadCheckpoint) {
				t.Fatalf("rejection not errors.Is(ErrBadCheckpoint): %v", err)
			}
		})
	}

	// The matching configuration still resumes.
	if _, err := Resume(cfg, good); err != nil {
		t.Fatalf("good checkpoint rejected: %v", err)
	}

	// An elastic parallel resume restores the merged bitmap itself.
	t.Run("elastic short bitmap", func(t *testing.T) {
		p, mk := newCheckpointFleet(t)
		p.RunExecs(500)
		blob, err := p.Checkpoint()
		if err != nil {
			t.Fatal(err)
		}
		var st parallelState
		if err := gob.NewDecoder(bytes.NewReader(blob)).Decode(&st); err != nil {
			t.Fatal(err)
		}
		st.Virgin = st.Virgin[:10]
		cfg := mk()
		cfg.Shards = cfg.Shards[:1] // J=2 -> 1: the elastic path
		if _, err := ResumeParallel(cfg, encodeParallelState(t, &st)); !errors.Is(err, ErrBadCheckpoint) {
			t.Fatalf("rejection not errors.Is(ErrBadCheckpoint): %v", err)
		}
	})
}
