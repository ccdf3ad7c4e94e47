package kv

import (
	"bytes"
	"testing"
)

// Two concurrent same-key commits can reach the cache in quorum-completion
// order, which may invert their log order. The cache must keep the value of
// the higher log index: reads before a failover and the log replay after it
// must agree. (Pre-fix, the later arrival clobbered unconditionally, so a
// delete at index i landing after a put at index i+1 resurrected across
// recovery — caught by the chaos linearizability harness.)
func TestCachePutOutOfOrderKeepsLogOrder(t *testing.T) {
	c := newCache(16)

	// Put at log index 2 completes first, then the delete at index 1 lands.
	c.put("k", []byte("v2"), true, 2)
	c.put("k", nil, true, 1)

	v, tomb, ok := c.get("k")
	if !ok || tomb || !bytes.Equal(v, []byte("v2")) {
		t.Fatalf("get after out-of-order delete: value=%q tombstone=%v ok=%v, want v2", v, tomb, ok)
	}

	// The stale arrival must still have been counted as a pin: its apply
	// task will unpin later, so the entry needs two outstanding pins.
	c.settle([]string{"k"}, nil)
	if got := c.len(); got != 1 {
		t.Fatalf("entry count after one unpin: %d, want 1", got)
	}
	// Fill past capacity and unpin the second; the entry is now evictable.
	c.settle([]string{"k"}, nil)
	for i := 0; i < 32; i++ {
		c.put(string(rune('a'+i)), []byte("x"), false, uint64(10+i))
	}
	if _, _, ok := c.get("k"); ok {
		t.Fatal("stale-pinned entry survived eviction after both unpins")
	}
}

// Records of one batch share a log index and hit the cache in batch order
// from a single goroutine; the later record must win (seq >= seq).
func TestCachePutSameIndexBatchOrderWins(t *testing.T) {
	c := newCache(16)
	c.put("k", []byte("a"), true, 5)
	c.put("k", nil, true, 5) // same batch deletes the key last
	if v, tomb, ok := c.get("k"); !ok || !tomb {
		t.Fatalf("same-index later record should win: value=%q tombstone=%v ok=%v", v, tomb, ok)
	}
}

// A clean insert (read-through from replicated memory, seq 0) must never
// shadow a committed value, and a committed put must override a clean entry.
func TestCacheCleanInsertYieldsToCommits(t *testing.T) {
	c := newCache(16)
	c.put("k", []byte("committed"), false, 7)
	c.insertClean("k", []byte("stale-read"))
	if v, _, _ := c.get("k"); !bytes.Equal(v, []byte("committed")) {
		t.Fatalf("insertClean replaced a committed value: got %q", v)
	}

	c2 := newCache(16)
	c2.insertClean("k", []byte("old"))
	c2.put("k", []byte("new"), false, 3)
	if v, _, _ := c2.get("k"); !bytes.Equal(v, []byte("new")) {
		t.Fatalf("commit did not override clean entry: got %q", v)
	}
}

// has reports whether key has an entry, without counting as a use.
func (c *cache) has(key string) bool {
	c.mu.Lock()
	defer c.mu.Unlock()
	_, ok := c.entries[key]
	return ok
}
