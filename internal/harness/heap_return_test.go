package harness

import (
	"bytes"
	"math/rand"
	"testing"

	"closurex/internal/mem"
	"closurex/internal/targets"
)

// TestRestoreReturnsHeapPages runs a forked zlib image, sanitizer off and
// on, for 12,000 iterations: each one mallocs more than a page, so the
// bump pointer passes the end of the 32 MiB arena long before the end and
// first fit takes over. The restore gives back what each iteration's
// allocations touched, so after every restore the image maps at most one
// page more than it did when forked (the partial page at the post-init
// bump pointer), and sampled heap above the post-init bump pointer reads
// zero. Without the page return the image grows by a page an iteration.
func TestRestoreReturnsHeapPages(t *testing.T) {
	tg := targets.Get("zlib")
	if tg == nil {
		t.Fatal("target zlib not registered")
	}
	input := tg.Seeds()[0]
	for _, sanitize := range []bool{false, true} {
		name := "plain"
		if sanitize {
			name = "sanitize"
		}
		t.Run(name, func(t *testing.T) {
			tmpl := newTargetHarness(t, tg, sanitize)
			h := tmpl.Fork()
			m, heap := h.VM().Mem, h.VM().Heap
			base := m.Pages()
			rng := rand.New(rand.NewSource(1))
			zero := make([]byte, mem.PageSize)
			buf := make([]byte, mem.PageSize)
			const iters = 12000
			for i := 0; i < iters; i++ {
				if res := h.RunOne(input); res.Crashed() {
					t.Fatalf("iteration %d crashed: %v", i, res.Fault)
				}
				if err := h.TakeRestoreError(); err != nil {
					t.Fatalf("iteration %d: restore: %v", i, err)
				}
				if got := m.Pages(); got > base+1 {
					t.Fatalf("iteration %d: %d resident pages, %d when forked", i, got, base)
				}
				// The page below the bump pointer and one picked at random
				// above the post-init bump pointer.
				span := heap.Brk() - h.heapFloor
				for _, a := range []uint64{heap.Brk() - mem.PageSize, h.heapFloor + uint64(rng.Int63n(int64(span)))} {
					a = max(a, h.heapFloor)
					if err := m.ReadInto(a, buf); err != nil {
						t.Fatal(err)
					}
					if !bytes.Equal(buf, zero) {
						t.Fatalf("iteration %d: returned heap at %#x holds stale bytes", i, a)
					}
				}
			}
			if heap.Brk()+2*mem.PageSize < heap.End() {
				t.Fatalf("bump pointer %#x never neared the arena end %#x: first fit went untested", heap.Brk(), heap.End())
			}
			if h.Stats().PagesReturned == 0 {
				t.Fatal("no heap page was returned")
			}
		})
	}
}
