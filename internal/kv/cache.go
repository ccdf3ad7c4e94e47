package kv

import "sync"

// cache is the coordinator's value cache (paper §4.1/§4.2): an LRU map from
// key to latest committed value, with pin counts that prevent evicting
// entries whose updates have not yet been applied to replicated memory —
// evicting them would let a subsequent get read a stale block.
//
// A nil value is a tombstone for a committed delete.
//
// Each entry also carries, as soft state, where the key's data block is in
// replicated memory (see location). It rides in the entry because the entry
// is pinned — hence present — for every record being applied, so it costs
// no second structure; it never decides whether a value is cached.
//
// The entries live in one slab, linked by slab index into a circular LRU
// list whose sentinel is slot 0 (its next is the most recently used entry,
// its prev the least), with freed slots chained into a free list: an insert
// or an eviction allocates nothing but the key string the index holds.
type cache struct {
	mu       sync.Mutex
	capacity int
	index    map[string]int32
	slab     []cacheEntry
	free     int32 // first free slot, chained through next; 0 = none
}

type cacheEntry struct {
	key        string
	value      []byte // nil = tombstone
	pending    int    // outstanding unapplied updates
	seq        uint64 // log index of value; cache must converge to log order
	loc        location
	prev, next int32 // LRU neighbours (more, less recent); next chains a free slot
}

// location says where a key's data block is in replicated memory and what
// the block's next pointer holds — all an applier needs to rewrite the block
// in place without reading it. It describes the table, not the log: a
// committed but unapplied update leaves it alone. Only the one applier that
// owns the key's bucket changes a chain or records a location, and it
// records every change it makes before it releases the bucket's lock, so a
// location that is present is exact; one that is missing (evicted entry,
// new coordinator) costs the next apply a chain walk, which records it again.
// Both fields are at most Capacity, which Validate keeps within 32 bits, so
// a location adds 8 bytes to a slab entry.
type location struct {
	blk  uint32 // block index + 1; 0 = unknown
	next uint32 // the block's next pointer (block index + 1; 0 = end of chain)
}

// keyLoc is one location update for settle; a zero loc forgets the key's.
type keyLoc struct {
	key []byte
	loc location
}

// newCache creates a cache holding up to capacity entries. Capacity 0
// disables caching except for pinned (pending) entries, which are always
// retained for correctness.
func newCache(capacity int) *cache {
	return &cache{capacity: capacity, index: make(map[string]int32), slab: make([]cacheEntry, 1)}
}

// get returns the cached value and whether the key was present. The
// returned slice must not be modified.
func (c *cache) get(key string) (value []byte, tombstone, ok bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	i, ok := c.index[key]
	if !ok {
		return nil, false, false
	}
	c.toFront(i)
	e := &c.slab[i]
	return e.value, e.value == nil, true
}

// put inserts or refreshes a committed value. pin marks one pending apply
// (unpinned later with unpin). A nil value records a delete tombstone. It
// returns the key as the cache holds it, which the caller may index by in
// turn instead of converting key again.
//
// seq is the record's log index. Commits to the same key race here in
// quorum-completion order, which is not log order; recovery and the shard
// appliers both replay the log in index order, so the cache must converge
// to the same order or reads flip across a failover. A pin is always
// counted (its apply task will unpin regardless), but the value only wins
// when seq >= the entry's — >= so the later records of a same-index batch
// override the earlier ones in batch order.
func (c *cache) put(key []byte, value []byte, pin bool, seq uint64) string {
	c.mu.Lock()
	defer c.mu.Unlock()
	var e *cacheEntry
	if i, ok := c.index[string(key)]; ok {
		e = &c.slab[i]
		if pin {
			e.pending++
		}
		if seq >= e.seq {
			e.value = value
			e.seq = seq
		}
		c.toFront(i)
	} else {
		e = c.insertLocked(string(key), value)
		e.seq = seq
		if pin {
			e.pending = 1
		}
	}
	defer c.evictLocked() // after e.key is read
	return e.key
}

// insertClean adds a value read from replicated memory, without pinning.
// It never replaces an existing entry (which may be newer than the read).
func (c *cache) insertClean(key string, value []byte) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if _, ok := c.index[key]; ok {
		return
	}
	c.insertLocked(key, value)
	c.evictLocked()
}

// locate appends the recorded location of each key to out (zero where the
// key has no entry or no location), under one lock. It does not count as a
// use: the LRU order belongs to gets and commits.
func (c *cache) locate(keys []string, out []location) []location {
	c.mu.Lock()
	defer c.mu.Unlock()
	for _, k := range keys {
		var loc location
		if i, ok := c.index[k]; ok {
			loc = c.slab[i].loc
		}
		out = append(out, loc)
	}
	return out
}

// settle ends a batch of applies under one lock: every location in locs is
// recorded on its key's entry if the key has one (never creating an entry —
// locations do not occupy value slots), then one pending apply is released
// for each key in unpin, a key appearing once per applied record.
func (c *cache) settle(unpin []string, locs []keyLoc) {
	c.mu.Lock()
	defer c.mu.Unlock()
	for _, kl := range locs {
		if i, ok := c.index[string(kl.key)]; ok {
			c.slab[i].loc = kl.loc
		}
	}
	for _, k := range unpin {
		if i, ok := c.index[k]; ok {
			if e := &c.slab[i]; e.pending > 0 {
				e.pending--
			}
		}
	}
	c.evictLocked()
}

// insertLocked puts a new entry for key at the front of the LRU list, in a
// free slot when there is one, and returns it.
func (c *cache) insertLocked(key string, value []byte) *cacheEntry {
	i := c.free
	if i == 0 {
		i = int32(len(c.slab))
		c.slab = append(c.slab, cacheEntry{})
	} else {
		c.free = c.slab[i].next
	}
	c.slab[i] = cacheEntry{key: key, value: value}
	c.pushFront(i)
	c.index[key] = i
	return &c.slab[i]
}

// toFront makes slot i the most recently used.
func (c *cache) toFront(i int32) {
	c.unlink(i)
	c.pushFront(i)
}

// pushFront links slot i in as the most recently used.
func (c *cache) pushFront(i int32) {
	e := &c.slab[i]
	e.prev, e.next = 0, c.slab[0].next
	c.slab[e.next].prev = i
	c.slab[0].next = i
}

// unlink takes slot i out of the LRU list.
func (c *cache) unlink(i int32) {
	e := &c.slab[i]
	c.slab[e.prev].next = e.next
	c.slab[e.next].prev = e.prev
}

// evictLocked drops least-recently-used unpinned entries over capacity,
// returning their slots to the free list.
func (c *cache) evictLocked() {
	over := len(c.index) - c.capacity
	for i := c.slab[0].prev; i != 0 && over > 0; {
		e := &c.slab[i]
		prev := e.prev
		if e.pending == 0 {
			c.unlink(i)
			delete(c.index, e.key)
			*e = cacheEntry{next: c.free} // drop the key and value for the GC
			c.free = i
			over--
		}
		i = prev
	}
}

// len reports the number of cached entries.
func (c *cache) len() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return len(c.index)
}
