package fuzz

import (
	"fmt"
	"testing"
)

// exchangeFleet builds a J-shard ladder fleet that is never run: the
// exchange tests drive publish directly.
func exchangeFleet(t *testing.T, jobs int) *ParallelCampaign {
	t.Helper()
	var shards []ShardConfig
	for j := 0; j < jobs; j++ {
		ex, cov := newLadder("MAGIC")
		shards = append(shards, ShardConfig{Executor: ex, CovMap: cov})
	}
	p, err := NewParallelCampaign(ParallelConfig{Shards: shards, Seed: 3, Seeds: [][]byte{[]byte("seed")}})
	if err != nil {
		t.Fatal(err)
	}
	return p
}

func inboxOf(p *ParallelCampaign, j int) []*Entry {
	sh := p.shards[j]
	sh.inbox.Lock()
	defer sh.inbox.Unlock()
	return append([]*Entry(nil), sh.inbox.entries...)
}

// TestCorpusExchangePublish checks where a published entry lands: exactly
// once in every other live shard's inbox, never in the publisher's own or
// a quarantined shard's, and not at all when its content was published
// before (by any shard) or is a seed every shard already has.
func TestCorpusExchangePublish(t *testing.T) {
	p := exchangeFleet(t, 4)
	p.health[3].quarantined.Store(true)
	a := &Entry{Input: []byte("alpha")}
	b := &Entry{Input: []byte("beta")}
	p.publish(0, []*Entry{a, b, {Input: []byte("alpha")}, {Input: []byte("seed")}})
	c := &Entry{Input: []byte("gamma")}
	p.publish(1, []*Entry{{Input: []byte("beta")}, c})

	want := map[int][]*Entry{0: {c}, 1: {a, b}, 2: {a, b, c}, 3: nil}
	for j, w := range want {
		got := inboxOf(p, j)
		if len(got) != len(w) {
			t.Fatalf("shard %d inbox holds %d entries, want %d", j, len(got), len(w))
		}
		for i := range w {
			if got[i] != w[i] {
				t.Fatalf("shard %d inbox entry %d is %q, want %q", j, i, got[i].Input, w[i].Input)
			}
		}
	}
	if h := p.Health(); h[1].InboxDropped != 0 || h[2].InboxDropped != 0 {
		t.Fatalf("inboxes below capacity shed entries: %+v", h)
	}
}

// TestCorpusExchangeInboxShedding pushes a shard's inbox past inboxCap: it
// keeps the newest inboxCap entries in publish order and counts the rest
// in InboxDropped.
func TestCorpusExchangeInboxShedding(t *testing.T) {
	p := exchangeFleet(t, 2)
	const extra = 10
	var all []*Entry
	for i := 0; i < inboxCap+extra; i++ {
		all = append(all, &Entry{Input: []byte(fmt.Sprintf("entry-%d", i))})
	}
	// Two publishes: the inbox overflows on the second, across a batch
	// boundary.
	p.publish(0, all[:inboxCap-1])
	p.publish(0, all[inboxCap-1:])

	got := inboxOf(p, 1)
	if len(got) != inboxCap {
		t.Fatalf("inbox holds %d entries, want inboxCap=%d", len(got), inboxCap)
	}
	for i, e := range got {
		if e != all[extra+i] {
			t.Fatalf("inbox entry %d is %q, want %q", i, e.Input, all[extra+i].Input)
		}
	}
	if h := p.Health(); h[1].InboxDropped != extra || h[0].InboxDropped != 0 {
		t.Fatalf("InboxDropped = %d/%d, want 0/%d", h[0].InboxDropped, h[1].InboxDropped, extra)
	}
	if len(inboxOf(p, 0)) != 0 {
		t.Fatal("publisher's own inbox received its entries")
	}
}

// TestCorpusExchangeOneShardInert checks that a one-shard fleet publishes
// nothing and leaves the dedup set alone: the J=1 campaign must match the
// sequential one byte for byte.
func TestCorpusExchangeOneShardInert(t *testing.T) {
	p := exchangeFleet(t, 1)
	seen := len(p.seen)
	p.publish(0, []*Entry{{Input: []byte("alpha")}})
	if len(p.seen) != seen || len(inboxOf(p, 0)) != 0 {
		t.Fatalf("one-shard publish touched the exchange: seen %d -> %d", seen, len(p.seen))
	}
}
