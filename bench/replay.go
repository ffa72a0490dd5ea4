package main

import (
	"fmt"
	"time"

	"closurex/internal/fuzz"
	"closurex/internal/harness"
	"closurex/internal/ir"
	"closurex/internal/passes"
	"closurex/internal/targets"
	"closurex/internal/vm"
)

const (
	// replayExecs is how many mutants the layer replay runs per target on
	// each of its two paths.
	replayExecs = 1000
	// replayRespawns is how many respawns the replay times per target on
	// top of the ones its crashes force, so every workload has samples.
	replayRespawns = 16
	// replaySpanEvery keeps one replayed execution in this many as spans.
	replaySpanEvery = 16
	// spliceProb is fuzz.Config's default splice chance, x/256.
	spliceProb = 40
)

// layerAcc sums what the traced parts of a run measured, layer by layer.
type layerAcc struct {
	// From the traced campaigns' clocks and counters.
	steps, execs           int64
	stepSum, selfSum       time.Duration
	execSum                time.Duration
	timedExecs, newEntries int64
	crashEvents, spawns    int64

	// From the layer replay.
	mutate, bitmap, call, restore, fork, release, respawn         time.Duration
	mutateN, bitmapN, callN, restoreN, forkN, releaseN, respawnN  int64
	cells, instrs                                                 int64
	restoreBytes, shadowPages, chunksFreed, fdsClosed, restoreErr int64

	// From toolchain passes: per-pass stage sums and module facts.
	passes         [][nStages]time.Duration
	irInstrs       int
	checks, elided int
}

func (a *layerAcc) addClock(c *clock) {
	a.steps += c.stepN
	a.execs += c.n
	a.stepSum += c.stepSum
	a.selfSum += c.selfSum
	a.execSum += c.execSum
}

func (a *layerAcc) addHarnessStats(s harness.Stats) {
	a.restoreBytes += s.GlobalBytes
	a.shadowPages += s.ShadowPagesRestored
	a.chunksFreed += s.ChunksFreed
	a.fdsClosed += s.FDsClosed
}

// replayInput is one target's module and inputs for the layer replay.
type replayInput struct {
	t         *targets.Target
	mod       *ir.Module
	queue     [][]byte
	trial     uint64
	sanitize  bool
	interproc bool
	forkOwn   bool // the workload's mechanism forks per execution
	round     int
	execs     int // mutants per path
}

// replayLayers drives each runtime layer's public functions one call at a
// time over mutants of the target's final queue, timing every call.
//
// It runs the mutants down two paths: the persistent loop body (SetInput,
// Call, harness Restore, respawn on crash) and the forkserver's (Fork,
// SetInput, Call, Release). vm and bitmap figures come from the path the
// workload's own mechanism takes; mutation, restore, fork and respawn are
// timed on every workload, so that each layer metric exists everywhere.
func replayLayers(rp replayInput, acc *layerAcc, spans *spanLog) error {
	if len(rp.queue) == 0 {
		return fmt.Errorf("replay %s: empty queue", rp.t.Name)
	}
	hopts := harness.FullRestore()
	hopts.ElideRestore = rp.interproc
	vopts := func(cov []byte) vm.Options {
		return vm.Options{CovMap: cov, ImagePages: rp.t.ImagePages, DeterministicRand: true,
			RandSeed: rp.trial, Sanitize: rp.sanitize}
	}
	newHarness := func(cov []byte) (*harness.Harness, time.Duration, error) {
		start := time.Now()
		v, err := vm.New(rp.mod, vopts(cov))
		if err != nil {
			return nil, 0, err
		}
		h, err := harness.New(v, hopts)
		if err != nil {
			v.Release()
			return nil, 0, err
		}
		return h, time.Since(start), nil
	}
	span := func(parent int64, name string, a, b time.Time, i int) int64 {
		return spans.add(parent, name, a, b, int64(i), rp.t.Name, rp.round)
	}

	// Persistent path.
	cov := make([]byte, fuzz.MapSize)
	h, _, err := newHarness(cov)
	if err != nil {
		return fmt.Errorf("replay %s: %w", rp.t.Name, err)
	}
	bm := fuzz.NewBitmap()
	rng := fuzz.NewRNG(rp.trial)
	mut := fuzz.NewMutator(rng, rp.t.MaxInputLen)
	mut.SetDict(dictBytes(rp.t))
	inputs := make([][]byte, rp.execs)
	for i := range inputs {
		base := rp.queue[i%len(rp.queue)]
		t0 := time.Now()
		var in []byte
		if len(rp.queue) > 1 && rng.Intn(256) < spliceProb {
			in = mut.Splice(base, rp.queue[rng.Intn(len(rp.queue))])
		} else {
			in = mut.Havoc(base)
		}
		t1 := time.Now()
		inputs[i] = append([]byte(nil), in...)
		h.VM().SetInput(in)
		res := h.VM().Call(passes.TargetMain)
		t2 := time.Now()
		if h.Restore() != nil {
			acc.restoreErr++
		}
		t3 := time.Now()
		cells := nonzero(cov)
		t4 := time.Now()
		bm.Update(cov)
		t5 := time.Now()
		acc.mutate += t1.Sub(t0)
		acc.mutateN++
		acc.restore += t3.Sub(t2)
		acc.restoreN++
		if !rp.forkOwn {
			acc.call += t2.Sub(t1)
			acc.callN++
			acc.instrs += res.Instrs
			acc.bitmap += t5.Sub(t4)
			acc.bitmapN++
			acc.cells += int64(cells)
		}
		end := t5
		var respawned time.Duration
		if res.Crashed() {
			acc.addHarnessStats(h.Stats())
			h.VM().Release()
			if h, respawned, err = newHarness(cov); err != nil {
				return fmt.Errorf("replay %s: respawn: %w", rp.t.Name, err)
			}
			acc.respawn += respawned
			acc.respawnN++
			end = t5.Add(respawned)
		}
		if i%replaySpanEvery == 0 {
			root := span(0, "replay.exec", t0, end, i)
			span(root, "fuzz.mutate", t0, t1, i)
			span(root, "vm.call", t1, t2, i)
			span(root, "harness.restore", t2, t3, i)
			span(root, "fuzz.bitmap", t4, t5, i)
			if respawned > 0 {
				span(root, "execmgr.respawn", t5, end, i)
			}
		}
	}
	if h.Verify() != nil {
		acc.restoreErr++
	}
	acc.addHarnessStats(h.Stats())
	h.VM().Release()

	// Forkserver path, over the same mutants.
	fcov := make([]byte, fuzz.MapSize)
	fbm := fuzz.NewBitmap()
	tmpl, err := vm.New(rp.mod, vopts(fcov))
	if err != nil {
		return fmt.Errorf("replay %s: template: %w", rp.t.Name, err)
	}
	for i, in := range inputs {
		t0 := time.Now()
		child := tmpl.Fork()
		t1 := time.Now()
		child.SetInput(in)
		res := child.Call(passes.TargetMain)
		t2 := time.Now()
		child.Release()
		t3 := time.Now()
		cells := nonzero(fcov)
		t4 := time.Now()
		fbm.Update(fcov)
		t5 := time.Now()
		acc.fork += t1.Sub(t0)
		acc.forkN++
		acc.release += t3.Sub(t2)
		acc.releaseN++
		if rp.forkOwn {
			acc.call += t2.Sub(t1)
			acc.callN++
			acc.instrs += res.Instrs
			acc.bitmap += t5.Sub(t4)
			acc.bitmapN++
			acc.cells += int64(cells)
		}
		if i%replaySpanEvery == 0 {
			root := span(0, "replay.forkexec", t0, t5, i)
			span(root, "mem.fork", t0, t1, i)
			span(root, "vm.call", t1, t2, i)
			span(root, "mem.release", t2, t3, i)
			span(root, "fuzz.bitmap", t4, t5, i)
		}
	}
	tmpl.Release()

	for k := 0; k < replayRespawns; k++ {
		h, d, err := newHarness(nil)
		if err != nil {
			return fmt.Errorf("replay %s: respawn: %w", rp.t.Name, err)
		}
		h.VM().Release()
		acc.respawn += d
		acc.respawnN++
	}
	return nil
}

// nonzero counts the coverage cells an execution touched.
func nonzero(cov []byte) int {
	n := 0
	for _, b := range cov {
		if b != 0 {
			n++
		}
	}
	return n
}
