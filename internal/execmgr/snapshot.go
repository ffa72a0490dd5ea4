package execmgr

import (
	"closurex/internal/passes"
	"closurex/internal/vm"
)

// SnapshotLKM models the kernel-based snapshotting of the related work
// (AFL++ Snapshot LKM; Xu et al.): a single child is forked once from the
// template, and after every test case the kernel rolls its *dirty pages*
// back to the snapshot. Correct like a forkserver, and cheaper — restore
// cost is O(pages the test case touched) instead of O(all resident pages)
// — but still page-granular: it cannot beat ClosureX, which restores only
// the bytes that constitute test-case-specific state.
type SnapshotLKM struct {
	cfg      Config
	template *vm.VM
	child    *vm.VM
	execs    int64
	spawns   int64
	// dirtyTotal accumulates restored pages, for overhead reporting.
	dirtyTotal int64
}

// NewSnapshotLKM builds the template and takes the initial snapshot.
func NewSnapshotLKM(cfg Config) (*SnapshotLKM, error) {
	if err := checkModule(&cfg); err != nil {
		return nil, err
	}
	tmpl, err := vm.New(cfg.Module, cfg.Options)
	if err != nil {
		return nil, err
	}
	s := &SnapshotLKM{cfg: cfg, template: tmpl, spawns: 1}
	s.respawn()
	return s, nil
}

// respawn replaces the snapshotted child with a fresh fork of the template.
func (s *SnapshotLKM) respawn() {
	if s.child != nil {
		s.child.Release()
	}
	s.child = s.template.Fork()
	s.child.Mem.TrackDirty(true)
	s.spawns++
}

// Name implements Mechanism.
func (s *SnapshotLKM) Name() string { return "snapshot-lkm" }

// Execute implements Mechanism.
func (s *SnapshotLKM) Execute(input []byte) vm.Result {
	s.child.SetInput(input)
	res := s.child.Call(passes.TargetMain)
	s.execs++
	// The snapshot restore handles every outcome — normal return, exit()
	// and crashes alike — because it rolls back all dirtied pages.
	s.dirtyTotal += int64(s.child.Mem.DirtyPages())
	s.child.RestoreFromSnapshot(s.template)
	return res
}

// DirtyPagesPerExec reports the mean restored pages per execution.
func (s *SnapshotLKM) DirtyPagesPerExec() float64 {
	if s.execs == 0 {
		return 0
	}
	return float64(s.dirtyTotal) / float64(s.execs)
}

// Execs implements Mechanism.
func (s *SnapshotLKM) Execs() int64 { return s.execs }

// Spawns implements Mechanism.
func (s *SnapshotLKM) Spawns() int64 { return s.spawns }

// Rebuild implements Mechanism: the child is re-forked from the template
// instead of rolled back, for when the snapshot itself is suspect.
func (s *SnapshotLKM) Rebuild(string) { s.respawn() }

// Close implements Mechanism.
func (s *SnapshotLKM) Close() {
	s.child.Release()
	s.template.Release()
}

var _ Mechanism = (*SnapshotLKM)(nil)
