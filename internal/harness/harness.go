// Package harness implements the ClosureX runtime: the loop body from the
// paper's Listing 1. Each test case runs inside one long-lived VM ("a
// single process for the whole campaign"); after target_main returns — or
// after the ExitPass hook unwinds the stack, our setjmp/longjmp — the
// harness restores exactly the test-case-execution-specific state:
//
//	restore_global_sections()   — byte-copy closure_global_section back
//	reset_heap_memory()         — free every chunk left in the chunk map
//	close_open_file_handles()   — close leaked FDs, rewind init-time FDs
package harness

import (
	"bytes"
	"errors"
	"fmt"

	"closurex/internal/faultinject"
	"closurex/internal/ir"
	"closurex/internal/mem"
	"closurex/internal/passes"
	"closurex/internal/vfs"
	"closurex/internal/vm"
)

// Sentinel errors the resilience layer and tests branch on with errors.Is.
var (
	// ErrRestore wraps every failure of the between-iteration restore
	// steps (global copy-back, heap reset, descriptor close/rewind).
	ErrRestore = errors.New("harness: restore failed")
	// ErrWatchdog wraps every post-restore invariant violation Verify
	// detects — the image has drifted and must be quarantined/rebuilt.
	ErrWatchdog = errors.New("harness: watchdog invariant violated")
	// ErrAudit wraps every violation of an interprocedural elision proof
	// observed at runtime: a byte outside the may-write scope drifted, or
	// a must-free chunk / must-close descriptor survived a non-crashed
	// iteration. Audit errors also wrap ErrWatchdog (multi-%w) so the
	// resilience layer's quarantine/rebuild reflex fires unchanged.
	ErrAudit = errors.New("harness: elision audit violated")
)

// Options tunes which pieces of state the harness restores — the knobs the
// ablation study flips. A production harness restores everything.
type Options struct {
	RestoreGlobals bool
	ResetHeap      bool
	CloseFiles     bool
	// IncrementalRestore arms page-granular dirty tracking on
	// closure_global_section: the restore step copies back only the pages
	// the execution actually wrote instead of the whole snapshot. Restored
	// state is byte-identical either way (the watchdog and the divergence
	// sentinel cross-check it continuously); the flag only changes the
	// restore-path bandwidth. Disabled means the original full byte-copy.
	IncrementalRestore bool
	// ElideRestore scopes the global snapshot/restore/watchdog work to the
	// byte ranges the interprocedural analysis proved may be written
	// (ir.Module.Interproc). It is a no-op — the full section is restored
	// as before — when the module carries no metadata or the analysis
	// could not bound the write set. Restored state is byte-identical
	// either way as long as the proofs hold; AuditEvery cross-checks them
	// at runtime.
	ElideRestore bool
	// AuditEvery, when positive, re-checks the FULL closure section (and
	// the must-free/must-close censuses) against the init snapshot every N
	// iterations, repairing and reporting an ErrAudit on any drift the
	// elided restore would have missed. Zero disables auditing.
	AuditEvery int
	// Injector arms deterministic fault injection in the restore paths
	// (resilience tests); nil injects nothing.
	Injector *faultinject.Injector
}

// FullRestore enables every restoration step, with the dirty-tracking
// incremental restore fast path armed.
func FullRestore() Options {
	return Options{RestoreGlobals: true, ResetHeap: true, CloseFiles: true,
		IncrementalRestore: true}
}

// Stats counts restoration work, for the overhead-breakdown figure.
type Stats struct {
	Iterations   int64
	GlobalBytes  int64 // bytes actually copied back across all restores
	ChunksFreed  int64
	FDsClosed    int64
	FDsRewound   int64
	ExitsUnwound int64 // iterations that ended via the exit hook
	// IncrRestores counts restores that went through the dirty-tracking
	// fast path; GlobalBytes then reflects only dirty bytes, which is the
	// bandwidth saving the fast path exists for.
	IncrRestores int64
	// ShadowPagesRestored counts shadow-plane pages rolled back to the
	// init-time snapshot across all restores (-sanitize only). The shadow
	// restore piggybacks on the same dirty-tracking idea as the closure
	// section's incremental restore.
	ShadowPagesRestored int64
	// GlobalBytesElided counts bytes the scoped full-copy restore skipped
	// relative to a whole-section copy (ElideRestore, non-incremental
	// path) — the elision bandwidth saving.
	GlobalBytesElided int64
	// ElidedLeaks/ElidedFDLeaks count proof violations the restore sweeps
	// observed: chunks from must-free allocation sites (respectively
	// descriptors from must-close fopen sites) still live after a
	// non-crashed iteration. Nonzero means the static analysis was wrong.
	ElidedLeaks   int64
	ElidedFDLeaks int64
	// AuditRuns/AuditFailures count full-section elision audits and the
	// subset that found drift outside the may-write scope (AuditEvery).
	AuditRuns     int64
	AuditFailures int64
}

// Harness wraps a VM whose module went through the ClosureX pipeline.
type Harness struct {
	v          *vm.VM
	opts       Options
	globalSnap []byte
	stats      Stats
	// incremental reports that the dirty-page watch is armed on the closure
	// section (IncrementalRestore requested and the section exists).
	incremental bool
	// verifyBuf is the reusable post-run section snapshot Verify compares
	// against globalSnap — preallocated once so the watchdog does not
	// allocate a fresh section copy on every periodic check.
	verifyBuf []byte
	// chunkScratch/fdScratch back the per-restore leak censuses so the hot
	// loop does not allocate a fresh slice every iteration.
	chunkScratch []mem.Chunk
	fdScratch    []int
	// shadowSnap/quarSnap capture the sanitizer's shadow plane and free
	// quarantine as they stood after deferred init (-sanitize only). Each
	// restore rolls both back so shadow state — like every other plane of
	// persistent state — is test-case-execution-specific.
	shadowSnap *mem.ShadowSnapshot
	quarSnap   []mem.Chunk
	// elide is set when ElideRestore was requested AND the module's
	// interproc metadata bounds the may-write set; elideRanges are the
	// merged section-relative byte ranges restore/verify then scope to
	// (possibly empty: a target that writes no globals restores none).
	elide       bool
	elideRanges []vm.ByteRange
	// lastCrashed records whether the most recent execution ended in a
	// fault; the elided-leak censuses skip crashed iterations, whose
	// targets never reached their free/fclose paths by construction.
	lastCrashed bool
	// sinceAudit counts iterations since the last full-section audit.
	sinceAudit int
	// restoreErr is the first error the most recent restore hit; the
	// resilience layer drains it via TakeRestoreError after each iteration.
	restoreErr error
}

// New prepares the harness: runs the module's deferred-initialization
// routine (passes.InitFunc) once when it has one (DeferInitPass), marks
// initialization-time heap chunks and descriptors as persistent, and takes
// the ground-truth snapshot of closure_global_section (Figure 4, left).
func New(v *vm.VM, opts Options) (*Harness, error) {
	h := &Harness{v: v, opts: opts}
	if v.Mod.Func(passes.TargetMain) == nil {
		return nil, fmt.Errorf("harness: module lacks %s (run the pass pipeline first)", passes.TargetMain)
	}
	if v.Mod.Func(passes.InitFunc) != nil {
		res := v.Call(passes.InitFunc)
		if res.Fault != nil {
			return nil, fmt.Errorf("harness: deferred init faulted: %v", res.Fault)
		}
		if res.Exited {
			return nil, fmt.Errorf("harness: deferred init called exit(%d)", res.ExitCode)
		}
	}
	v.Heap.MarkInit()
	v.FS.MarkInit()
	if sh := v.Heap.Shadow(); sh != nil && opts.ResetHeap {
		// Ground truth for the sanitizer planes: init-time poison (redzones
		// of persistent chunks) must survive every restore, and anything a
		// test case poisons or unpoisons must be rolled back. Snapshot()
		// also arms the shadow's page-granular dirty tracking.
		h.quarSnap = v.Heap.QuarantineSnapshot()
		h.shadowSnap = sh.Snapshot()
	}
	if snap, ok := v.SnapshotSection(ir.SectionClosure); ok {
		h.globalSnap = snap
		h.verifyBuf = make([]byte, len(snap))
		if opts.IncrementalRestore && opts.RestoreGlobals {
			// Arm the write barrier exactly at snapshot time: every write
			// from here on is a candidate for copy-back, so the dirty set is
			// complete by construction.
			h.incremental = v.WatchSection(ir.SectionClosure)
		}
		if opts.ElideRestore && opts.RestoreGlobals && v.MaxBudget() <= ir.InterprocBudgetCap {
			// Scope restore work to the analysis-proven may-write ranges.
			// ok is false (and the harness silently keeps whole-section
			// behavior) when no metadata was stamped or the analysis
			// degraded to whole-section. Budgets above InterprocBudgetCap
			// void the analysis' wraparound argument, so elision stays off.
			if ranges, rok := v.ElisionRanges(ir.SectionClosure); rok {
				h.elide = true
				h.elideRanges = ranges
			}
		}
	}
	return h, nil
}

// Incremental reports whether the dirty-tracking restore fast path is
// active.
func (h *Harness) Incremental() bool { return h.incremental }

// VM exposes the underlying machine (correctness study probes).
func (h *Harness) VM() *vm.VM { return h.v }

// Stats returns accumulated restoration counters.
func (h *Harness) Stats() Stats { return h.stats }

// GlobalSnapshotSize reports the closure section size in bytes.
func (h *Harness) GlobalSnapshotSize() int { return len(h.globalSnap) }

// ElisionActive reports whether the restore/verify paths are scoped to
// the interprocedural may-write ranges.
func (h *Harness) ElisionActive() bool { return h.elide }

// ElisionRangeBytes reports how many closure-section bytes fall inside
// the may-write scope (equals GlobalSnapshotSize when elision is off).
func (h *Harness) ElisionRangeBytes() int {
	if !h.elide {
		return len(h.globalSnap)
	}
	n := 0
	for _, r := range h.elideRanges {
		n += int(r.Hi - r.Lo)
	}
	return n
}

// RunOne executes one test case and restores state for the next. A restore
// failure is not part of the test case's result — it is recorded and
// drained by the resilience layer via TakeRestoreError.
func (h *Harness) RunOne(input []byte) vm.Result {
	h.v.SetInput(input)
	res := h.v.Call(passes.TargetMain)
	h.stats.Iterations++
	if res.Exited {
		h.stats.ExitsUnwound++
	}
	h.lastCrashed = res.Crashed()
	if err := h.Restore(); err != nil {
		h.restoreErr = err
	}
	if h.opts.AuditEvery > 0 {
		h.sinceAudit++
		if h.sinceAudit >= h.opts.AuditEvery {
			h.sinceAudit = 0
			if err := h.Audit(); err != nil && h.restoreErr == nil {
				h.restoreErr = err
			}
		}
	}
	return res
}

// TakeRestoreError returns and clears the first error the most recent
// restore hit (nil when restoration succeeded). The execmgr resilience
// layer polls this after every execution: a non-nil value means the
// process image can no longer be trusted and must be quarantined/rebuilt.
func (h *Harness) TakeRestoreError() error {
	err := h.restoreErr
	h.restoreErr = nil
	return err
}

// Restore performs the between-test-cases cleanup. Exported separately so
// the correctness study can interleave probes. It is idempotent: a second
// Restore after an exit-hook unwind (or a partial first attempt) only
// re-runs the steps that still have work to do. The returned error is the
// first failure encountered; later steps still run so a single bad close
// does not leave the heap polluted too.
func (h *Harness) Restore() error {
	var firstErr error
	fail := func(err error) {
		if firstErr == nil {
			firstErr = err
		}
	}
	inj := h.opts.Injector
	if h.opts.RestoreGlobals && h.globalSnap != nil {
		if inj.Should(faultinject.RestoreGlobals) {
			// The dirty set is deliberately NOT reset on an injected
			// failure: a retry (Restore is idempotent) still knows which
			// pages to copy back.
			fail(faultinject.Err(faultinject.RestoreGlobals))
		} else if h.elide && h.incremental {
			copied, _ := h.v.RestoreSectionDirtyRanges(ir.SectionClosure, h.globalSnap, h.elideRanges)
			h.stats.GlobalBytes += int64(copied)
			h.stats.IncrRestores++
		} else if h.elide {
			copied, _ := h.v.RestoreSectionRanges(ir.SectionClosure, h.globalSnap, h.elideRanges)
			h.stats.GlobalBytes += int64(copied)
			h.stats.GlobalBytesElided += int64(len(h.globalSnap) - copied)
		} else if h.incremental {
			copied, _ := h.v.RestoreSectionDirty(ir.SectionClosure, h.globalSnap)
			h.stats.GlobalBytes += int64(copied)
			h.stats.IncrRestores++
		} else {
			h.v.RestoreSection(ir.SectionClosure, h.globalSnap)
			h.stats.GlobalBytes += int64(len(h.globalSnap))
		}
	}
	if h.opts.ResetHeap {
		if inj.Should(faultinject.RestoreHeap) {
			fail(faultinject.Err(faultinject.RestoreHeap))
		} else {
			h.chunkScratch = h.v.Heap.AppendLeaked(h.chunkScratch[:0])
			elidedLeaks := 0
			for _, c := range h.chunkScratch {
				if c.Elided && !h.lastCrashed {
					// A chunk from a must-free site survived a non-crashed
					// iteration: the lifetime proof was wrong. The sweep
					// below repairs it; the census makes it loud.
					elidedLeaks++
				}
				// Chunks the target leaked; free() cannot fail on live chunks.
				if err := h.v.Heap.Free(c.Addr); err == nil {
					h.stats.ChunksFreed++
				} else {
					fail(fmt.Errorf("harness: reset heap: %w", err))
				}
			}
			if elidedLeaks > 0 {
				h.stats.ElidedLeaks += int64(elidedLeaks)
				if h.opts.AuditEvery > 0 {
					fail(fmt.Errorf("%w: %w: %d chunks from must-free sites survived a non-crashed iteration",
						ErrWatchdog, ErrAudit, elidedLeaks))
				}
			}
			if h.shadowSnap != nil {
				// Order matters: freeing leaked chunks above poisons their
				// spans, and those poison writes land on the dirty list —
				// so the shadow restore that follows erases them along with
				// everything else the test case did. The quarantine rolls
				// back to its init contents so a UAF address found on
				// iteration N is still poisoned (and still attributable) on
				// iteration N+1000.
				h.v.Heap.RestoreQuarantine(h.quarSnap)
				h.stats.ShadowPagesRestored += int64(h.v.Heap.Shadow().RestoreDirty(h.shadowSnap))
			}
		}
	}
	if h.opts.CloseFiles {
		if inj.Should(faultinject.RestoreFiles) {
			fail(faultinject.Err(faultinject.RestoreFiles))
		} else {
			if n := h.v.FS.ElidedLeakCount(); n > 0 && !h.lastCrashed {
				h.stats.ElidedFDLeaks += int64(n)
				if h.opts.AuditEvery > 0 {
					fail(fmt.Errorf("%w: %w: %d descriptors from must-close sites survived a non-crashed iteration",
						ErrWatchdog, ErrAudit, n))
				}
			}
			h.fdScratch = h.v.FS.AppendLeakedFDs(h.fdScratch[:0])
			for _, fd := range h.fdScratch {
				if err := h.v.FS.Close(fd); err == nil {
					h.stats.FDsClosed++
				} else {
					fail(fmt.Errorf("harness: close leaked fd: %w", err))
				}
			}
			h.fdScratch = h.v.FS.AppendInitFDs(h.fdScratch[:0])
			for _, fd := range h.fdScratch {
				// Initialization-time handles are rewound, not reopened — the
				// paper's optimization for init handles.
				if _, err := h.v.FS.Seek(fd, 0, vfs.SeekSet); err == nil {
					h.stats.FDsRewound++
				} else {
					fail(fmt.Errorf("harness: rewind init fd: %w", err))
				}
			}
		}
	}
	if firstErr != nil {
		// Double-wrap so callers can branch on the broad class
		// (errors.Is(err, ErrRestore)) or the precise cause (the injected
		// fault kind, the vfs error) without string matching.
		return fmt.Errorf("%w: %w", ErrRestore, firstErr)
	}
	return nil
}

// Verify is the restore watchdog: it validates the post-restore invariants
// that make persistent execution equivalent to a fresh process. Each check
// applies only when the corresponding restore option is enabled (ablated
// harnesses legitimately leave state behind). A non-nil return means the
// image has drifted and subsequent executions would run against polluted
// state — the caller must quarantine/rebuild rather than continue.
func (h *Harness) Verify() error {
	if h.opts.ResetHeap {
		// Live-chunk census: every test-case allocation must be gone.
		if n := h.v.Heap.LeakedCount(); n != 0 {
			return fmt.Errorf("%w: %d test-case heap chunks survive restore", ErrWatchdog, n)
		}
		if h.shadowSnap != nil {
			if !h.v.Heap.Shadow().Equal(h.shadowSnap) {
				return fmt.Errorf("%w: sanitizer shadow plane differs from init snapshot", ErrWatchdog)
			}
			if n := h.v.Heap.QuarantineLen(); n != len(h.quarSnap) {
				return fmt.Errorf("%w: free quarantine holds %d chunks, snapshot had %d",
					ErrWatchdog, n, len(h.quarSnap))
			}
		}
	}
	if h.opts.RestoreGlobals && h.globalSnap != nil {
		cur, ok := h.v.SnapshotSectionInto(ir.SectionClosure, h.verifyBuf)
		if !ok {
			return fmt.Errorf("%w: %s vanished", ErrWatchdog, ir.SectionClosure)
		}
		h.verifyBuf = cur
		if h.elide {
			// Provably-clean globals leave the equality scope: the analysis
			// says the target cannot write them, so checking them every
			// watchdog tick buys nothing — Audit re-checks the full section
			// on its own (cheaper) cadence to keep the proofs honest.
			for _, r := range h.elideRanges {
				if !bytes.Equal(cur[r.Lo:r.Hi], h.globalSnap[r.Lo:r.Hi]) {
					return fmt.Errorf("%w: %s differs from snapshot inside may-write range [%d,%d)",
						ErrWatchdog, ir.SectionClosure, r.Lo, r.Hi)
				}
			}
		} else if !bytes.Equal(cur, h.globalSnap) {
			return fmt.Errorf("%w: %s differs from snapshot (%d bytes)",
				ErrWatchdog, ir.SectionClosure, diffBytes(cur, h.globalSnap))
		}
	}
	if h.opts.CloseFiles {
		if n := h.v.FS.LeakedCount(); n != 0 {
			return fmt.Errorf("%w: %d leaked descriptors survive restore", ErrWatchdog, n)
		}
		h.fdScratch = h.v.FS.AppendInitFDs(h.fdScratch[:0])
		for _, fd := range h.fdScratch {
			if pos, err := h.v.FS.Tell(fd); err != nil || pos != 0 {
				return fmt.Errorf("%w: init fd %d not rewound (pos %d, err %v)", ErrWatchdog, fd, pos, err)
			}
		}
	}
	return nil
}

// Audit is the -audit-restore runtime cross-check of the elision proofs:
// it compares the FULL closure section against the init snapshot — in
// particular the bytes the scoped restore never touches because the
// analysis proved them unwritable. Drift there means an elision proof was
// wrong; Audit repairs the section with a whole-section copy-back and
// returns an error wrapping both ErrAudit and ErrWatchdog so the
// resilience layer quarantines/rebuilds as it would for any drift. RunOne
// calls it every Options.AuditEvery iterations; it is also safe to call
// directly at any restore boundary.
func (h *Harness) Audit() error {
	if !h.opts.RestoreGlobals || h.globalSnap == nil {
		return nil
	}
	h.stats.AuditRuns++
	cur, ok := h.v.SnapshotSectionInto(ir.SectionClosure, h.verifyBuf)
	if !ok {
		return fmt.Errorf("%w: %w: %s vanished", ErrWatchdog, ErrAudit, ir.SectionClosure)
	}
	h.verifyBuf = cur
	if bytes.Equal(cur, h.globalSnap) {
		return nil
	}
	h.stats.AuditFailures++
	n := diffBytes(cur, h.globalSnap)
	// Repair: whole-section copy-back, exactly what a non-elided restore
	// would have done. The image is clean again; the proof is not.
	h.v.RestoreSection(ir.SectionClosure, h.globalSnap)
	return fmt.Errorf("%w: %w: %s drifted %d bytes outside the audited restore scope (repaired)",
		ErrWatchdog, ErrAudit, ir.SectionClosure, n)
}

// diffBytes counts positions where a and b differ (length mismatch counts
// the tail).
func diffBytes(a, b []byte) int {
	n := 0
	min := len(a)
	if len(b) < min {
		min = len(b)
	}
	for i := 0; i < min; i++ {
		if a[i] != b[i] {
			n++
		}
	}
	n += len(a) - min + len(b) - min
	return n
}
