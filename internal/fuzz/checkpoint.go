package fuzz

import (
	"bytes"
	"encoding/gob"
	"errors"
	"fmt"
	"time"
)

// ErrBadCheckpoint wraps every Resume rejection — version skew, seed or
// fingerprint mismatch, corrupt or inconsistent state — so supervisors can
// errors.Is the whole class and fall back to a fresh campaign.
var ErrBadCheckpoint = errors.New("fuzz: incompatible checkpoint")

// checkpointVersion guards the serialized layout; bump on any change to
// checkpointState so a stale file fails loudly instead of resuming a
// half-garbage campaign.
const checkpointVersion = 1

// entryState is the serialized form of a queue entry.
type entryState struct {
	Input   []byte
	FoundAt time.Duration
	Gain    int
}

// checkpointState is everything a campaign needs to continue bit-identical
// after a process death: the queue, the cumulative bitmap, crash and hang
// tables, the RNG, the scheduler cursors, and the sentinel's bookkeeping.
// The execution mechanism itself is NOT serialized — ClosureX restores all
// per-test-case state between iterations, so a freshly built image is
// semantically identical to the one the checkpoint was taken in.
type checkpointState struct {
	Version     int
	Seed        uint64
	Fingerprint string
	Execs       int64
	Elapsed     time.Duration

	RNGState uint64
	Cursor   int
	Burst    int
	CurIndex int // index of the in-burst entry in Queue, -1 if none

	Queue  []entryState
	Virgin []byte
	Edges  int

	Crashes []Crash
	Hangs   []Crash

	SentNext    int64
	SentCursor  int
	SentBackoff int64
	SentFails   int
	Divergences []Divergence
	Quarantined []entryState
}

// Checkpoint serializes the campaign's state. Safe to call at any Step
// boundary (RunFor/RunExecs return at such boundaries, as does the stop
// channel); the resulting bytes hand to Resume.
func (c *Campaign) Checkpoint() ([]byte, error) {
	st := checkpointState{
		Version:     checkpointVersion,
		Seed:        c.cfg.Seed,
		Fingerprint: c.cfg.Fingerprint,
		Execs:       c.execs,
		Elapsed:     c.Elapsed(),
		RNGState:    c.rng.State(),
		Cursor:      c.cursor,
		Burst:       c.burst,
		CurIndex:    -1,
		Virgin:      c.bitmap.Snapshot(),
		Edges:       c.bitmap.Edges(),
		SentNext:    c.sentNext,
		SentCursor:  c.sentCursor,
		SentBackoff: c.sentBackoff,
		SentFails:   c.sentFails,
		Divergences: c.divergences,
	}
	if !c.started {
		return nil, fmt.Errorf("fuzz: checkpoint before bootstrap (nothing to save)")
	}
	for i, e := range c.queue {
		st.Queue = append(st.Queue, entryState{Input: e.Input, FoundAt: e.FoundAt, Gain: e.Gain})
		if e == c.cur {
			st.CurIndex = i
		}
	}
	for _, e := range c.quarantined {
		st.Quarantined = append(st.Quarantined, entryState{Input: e.Input, FoundAt: e.FoundAt, Gain: e.Gain})
	}
	for _, cr := range c.Crashes() {
		st.Crashes = append(st.Crashes, *cr)
	}
	for _, h := range c.Hangs() {
		st.Hangs = append(st.Hangs, *h)
	}
	var buf bytes.Buffer
	if err := gob.NewEncoder(&buf).Encode(&st); err != nil {
		return nil, fmt.Errorf("fuzz: encode checkpoint: %w", err)
	}
	return buf.Bytes(), nil
}

// Resume reconstructs a campaign from a checkpoint. cfg supplies the live
// pieces a checkpoint cannot carry — the executor, coverage map, seeds,
// dictionary, sentinel wiring — and must describe the same target and seed
// as the checkpointed run; the serialized state supplies everything else.
// Continuing a resumed campaign replays the exact mutation stream the
// uninterrupted campaign would have produced.
func Resume(cfg Config, data []byte) (*Campaign, error) {
	var st checkpointState
	if err := gob.NewDecoder(bytes.NewReader(data)).Decode(&st); err != nil {
		return nil, fmt.Errorf("%w: decode: %w", ErrBadCheckpoint, err)
	}
	if st.Version != checkpointVersion {
		return nil, fmt.Errorf("%w: version %d, want %d", ErrBadCheckpoint, st.Version, checkpointVersion)
	}
	if cfg.Seed != st.Seed {
		return nil, fmt.Errorf("%w: taken with seed %d, config says %d", ErrBadCheckpoint, st.Seed, cfg.Seed)
	}
	if st.Fingerprint != cfg.Fingerprint {
		return nil, fmt.Errorf("%w: taken for %q, config says %q (resume needs the same target and mechanism)",
			ErrBadCheckpoint, st.Fingerprint, cfg.Fingerprint)
	}
	// Reject scheduler state Step would index out of range with. The
	// scheduler advances each cursor at most once per execution.
	switch {
	case len(st.Queue) == 0:
		return nil, fmt.Errorf("%w: empty queue", ErrBadCheckpoint)
	case st.Execs < 0 || st.Cursor < 0 || int64(st.Cursor) > st.Execs || st.SentCursor < 0 || int64(st.SentCursor) > st.Execs:
		return nil, fmt.Errorf("%w: cursor %d or sentinel cursor %d outside [0, %d execs]",
			ErrBadCheckpoint, st.Cursor, st.SentCursor, st.Execs)
	case st.Burst < 0 || st.Burst > havocPerSeed:
		return nil, fmt.Errorf("%w: burst %d outside [0, %d]", ErrBadCheckpoint, st.Burst, havocPerSeed)
	}
	c := NewCampaign(cfg)
	c.rng.SetState(st.RNGState)
	c.execs = st.Execs
	c.elapsed = st.Elapsed
	c.cursor = st.Cursor
	c.burst = st.Burst
	for _, e := range st.Queue {
		c.queue = append(c.queue, &Entry{Input: e.Input, FoundAt: e.FoundAt, Gain: e.Gain})
	}
	if st.CurIndex >= 0 && st.CurIndex < len(c.queue) {
		c.cur = c.queue[st.CurIndex]
	} else if st.Burst > 0 {
		return nil, fmt.Errorf("%w: mid-burst without a current entry", ErrBadCheckpoint)
	}
	for _, e := range st.Quarantined {
		c.quarantined = append(c.quarantined, &Entry{Input: e.Input, FoundAt: e.FoundAt, Gain: e.Gain})
	}
	if err := c.bitmap.SetSnapshot(st.Virgin); err != nil {
		return nil, fmt.Errorf("%w: %w", ErrBadCheckpoint, err)
	}
	if got := c.bitmap.Edges(); got != st.Edges {
		return nil, fmt.Errorf("%w: edge count %d does not match bitmap (%d)", ErrBadCheckpoint, st.Edges, got)
	}
	for i := range st.Crashes {
		cr := st.Crashes[i]
		c.crashes[cr.Key] = &cr
	}
	for i := range st.Hangs {
		h := st.Hangs[i]
		c.hangs[h.Key] = &h
	}
	c.sentNext = st.SentNext
	c.sentCursor = st.SentCursor
	c.sentBackoff = st.SentBackoff
	if c.sentBackoff <= 0 {
		c.sentBackoff = 1
	}
	c.sentFails = st.SentFails
	c.divergences = st.Divergences
	// The campaign is live immediately: seeds were already executed in the
	// original run, so bootstrap must not run again.
	c.started = true
	c.start = time.Now()
	return c, nil
}
