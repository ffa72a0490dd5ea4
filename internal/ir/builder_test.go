package ir

import (
	"strings"
	"testing"
)

// Emitting into a terminated block used to be silently accepted, producing
// a block with a mid-block terminator that only surfaced at verify time,
// far from the buggy emitter. It must panic immediately with a diagnostic
// naming the block, the function and the existing terminator.
func TestBuilderEmitIntoTerminatedBlockPanics(t *testing.T) {
	b := NewBuilder("f", 0)
	b.SetPos(12)
	b.Ret(-1)
	defer func() {
		r := recover()
		if r == nil {
			t.Fatal("emit into a terminated block did not panic")
		}
		msg, ok := r.(string)
		if !ok {
			t.Fatalf("panic value %T, want string", r)
		}
		for _, want := range []string{"terminated block", "b0", "f", "ret", "line 12"} {
			if !strings.Contains(msg, want) {
				t.Fatalf("panic %q missing %q", msg, want)
			}
		}
	}()
	b.Const(1)
}

func TestBuilderDoubleTerminatorPanics(t *testing.T) {
	b := NewBuilder("f", 0)
	b.Br(b.NewBlock())
	defer func() {
		if recover() == nil {
			t.Fatal("second terminator in one block did not panic")
		}
	}()
	b.Ret(-1)
}

// Finish must reject a function whose final block falls through — control
// would run off the end into undefined behavior.
func TestBuilderFinishRejectsFallThrough(t *testing.T) {
	b := NewBuilder("f", 0)
	b.Const(1) // no terminator follows
	if _, err := b.Finish(); err == nil {
		t.Fatal("Finish accepted a fall-through block")
	} else if !strings.Contains(err.Error(), "falls through") {
		t.Fatalf("unhelpful Finish error: %v", err)
	}
	// The same check applies to any interior block, not just the last.
	b2 := NewBuilder("g", 0)
	mid := b2.NewBlock()
	b2.Br(mid) // entry terminated; mid left open
	b2.SetBlock(mid)
	b2.Const(2)
	if _, err := b2.Finish(); err == nil {
		t.Fatal("Finish accepted an open interior block")
	}
}
