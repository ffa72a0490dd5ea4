package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sync"
	"time"

	"closurex/internal/fuzz"
	"closurex/internal/vm"
)

// stepEvery is the untraced sampling rate: one step in stepEvery is timed.
const stepEvery = 4

// spanEvery is the traced span sampling rate: every step is timed into the
// aggregates, and one step in spanEvery is also kept as spans for the trace
// file.
const spanEvery = 64

// clock wraps one shard's executor and times it from the benchmark's side.
//
// Untraced, it times one step in stepEvery as the interval between the
// starts of two consecutive Execute calls. That interval is one whole fuzz
// step: this execution, then the bitmap update, triage, any shard sync and
// the next mutation. Traced, it times every Execute and every step.
//
// A clock is used by one shard goroutine only and read after the campaign
// call that drove it has returned.
type clock struct {
	ex    fuzz.Executor
	trace bool
	n     int64 // Execute calls since reset

	mark  time.Time // untraced: start of the pending sampled step
	steps []float64 // untraced: sampled step latencies, µs

	prevStart time.Time     // traced: start of the previous Execute
	prevExec  time.Duration // traced: duration of the previous Execute
	execSum   time.Duration
	stepSum   time.Duration
	selfSum   time.Duration // step time outside the step's own Execute
	stepN     int64
	spans     *spanLog
	target    string
	round     int
}

func (c *clock) reset() {
	c.n = 0
	c.mark = time.Time{}
	c.steps = c.steps[:0]
	c.prevStart = time.Time{}
	c.prevExec = 0
	c.execSum, c.stepSum, c.selfSum, c.stepN = 0, 0, 0, 0
}

// Execute implements fuzz.Executor.
func (c *clock) Execute(input []byte) vm.Result {
	c.n++
	if !c.trace {
		if !c.mark.IsZero() {
			c.steps = append(c.steps, float64(time.Since(c.mark))/1e3)
			c.mark = time.Time{}
		}
		if c.n%stepEvery == 0 {
			c.mark = time.Now()
		}
		return c.ex.Execute(input)
	}
	start := time.Now()
	res := c.ex.Execute(input)
	end := time.Now()
	exec := end.Sub(start)
	c.execSum += exec
	if !c.prevStart.IsZero() {
		step := start.Sub(c.prevStart)
		c.stepSum += step
		c.selfSum += step - c.prevExec
		c.stepN++
		if c.stepN%spanEvery == 0 && c.spans != nil {
			id := c.spans.add(0, "fuzz.step", c.prevStart, start, c.n-1, c.target, c.round)
			c.spans.add(id, "execmgr.execute", c.prevStart, c.prevStart.Add(c.prevExec), c.n-1, c.target, c.round)
		}
	}
	c.prevStart, c.prevExec = start, exec
	return res
}

// span is one interval timed around a call into a layer. Spans of one
// execution share target, round and exec.
type span struct {
	ID     int64  `json:"id"`
	Parent int64  `json:"parent"` // 0 for a root span
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"` // since the run started
	End    int64  `json:"end_ns"`
	Exec   int64  `json:"exec"` // execution index within the target's campaign or replay
	Target string `json:"target"`
	Round  int    `json:"round"`
}

// spanLog keeps spans in memory until the run ends.
type spanLog struct {
	mu    sync.Mutex
	epoch time.Time
	spans []span
}

func newSpanLog() *spanLog { return &spanLog{epoch: time.Now()} }

// add records a span and returns its id.
func (l *spanLog) add(parent int64, name string, start, end time.Time, exec int64, target string, round int) int64 {
	l.mu.Lock()
	defer l.mu.Unlock()
	id := int64(len(l.spans) + 1)
	l.spans = append(l.spans, span{
		ID: id, Parent: parent, Name: name,
		Start: int64(start.Sub(l.epoch)), End: int64(end.Sub(l.epoch)),
		Exec: exec, Target: target, Round: round,
	})
	return id
}

// write stores the spans as JSON Lines after a header line holding the
// host envelope.
func (l *spanLog) write(path string, env envelope) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	if err := enc.Encode(map[string]any{"envelope": env}); err != nil {
		f.Close()
		return err
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	for i := range l.spans {
		if err := enc.Encode(&l.spans[i]); err != nil {
			f.Close()
			return err
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return fmt.Errorf("write %s: %w", path, err)
	}
	return f.Close()
}
