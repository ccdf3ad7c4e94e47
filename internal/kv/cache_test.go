package kv

import (
	"bytes"
	"fmt"
	"math/rand"
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
	c.put([]byte("k"), []byte("v2"), true, 2)
	c.put([]byte("k"), nil, true, 1)

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
		c.put([]byte{byte('a' + i)}, []byte("x"), false, uint64(10+i))
	}
	if _, _, ok := c.get("k"); ok {
		t.Fatal("stale-pinned entry survived eviction after both unpins")
	}
}

// Records of one batch share a log index and hit the cache in batch order
// from a single goroutine; the later record must win (seq >= seq).
func TestCachePutSameIndexBatchOrderWins(t *testing.T) {
	c := newCache(16)
	c.put([]byte("k"), []byte("a"), true, 5)
	c.put([]byte("k"), nil, true, 5) // same batch deletes the key last
	if v, tomb, ok := c.get("k"); !ok || !tomb {
		t.Fatalf("same-index later record should win: value=%q tombstone=%v ok=%v", v, tomb, ok)
	}
}

// A clean insert (read-through from replicated memory, seq 0) must never
// shadow a committed value, and a committed put must override a clean entry.
func TestCacheCleanInsertYieldsToCommits(t *testing.T) {
	c := newCache(16)
	c.put([]byte("k"), []byte("committed"), false, 7)
	c.insertClean("k", []byte("stale-read"))
	if v, _, _ := c.get("k"); !bytes.Equal(v, []byte("committed")) {
		t.Fatalf("insertClean replaced a committed value: got %q", v)
	}

	c2 := newCache(16)
	c2.insertClean("k", []byte("old"))
	c2.put([]byte("k"), []byte("new"), false, 3)
	if v, _, _ := c2.get("k"); !bytes.Equal(v, []byte("new")) {
		t.Fatalf("commit did not override clean entry: got %q", v)
	}
}

// has reports whether key has an entry, without counting as a use.
func (c *cache) has(key string) bool {
	c.mu.Lock()
	defer c.mu.Unlock()
	_, ok := c.index[key]
	return ok
}

// cacheModel is a plain reference for the cache: a slice in recency order
// (front = most recent) holding the same fields, with the eviction rule
// written out directly.
type cacheModel struct {
	capacity int
	order    []*modelEntry
}

type modelEntry struct {
	key     string
	value   []byte
	pending int
	seq     uint64
	loc     location
}

func (m *cacheModel) find(key string) int {
	for i, e := range m.order {
		if e.key == key {
			return i
		}
	}
	return -1
}

func (m *cacheModel) toFront(i int) {
	e := m.order[i]
	copy(m.order[1:i+1], m.order[:i])
	m.order[0] = e
}

func (m *cacheModel) evict() {
	over := len(m.order) - m.capacity
	for i := len(m.order) - 1; i >= 0 && over > 0; i-- {
		if m.order[i].pending == 0 {
			m.order = append(m.order[:i], m.order[i+1:]...)
			over--
		}
	}
}

func (m *cacheModel) put(key string, value []byte, pin bool, seq uint64) {
	if i := m.find(key); i >= 0 {
		e := m.order[i]
		if pin {
			e.pending++
		}
		if seq >= e.seq {
			e.value, e.seq = value, seq
		}
		m.toFront(i)
	} else {
		e := &modelEntry{key: key, value: value, seq: seq}
		if pin {
			e.pending = 1
		}
		m.order = append([]*modelEntry{e}, m.order...)
	}
	m.evict()
}

func (m *cacheModel) insertClean(key string, value []byte) {
	if m.find(key) >= 0 {
		return
	}
	m.order = append([]*modelEntry{{key: key, value: value}}, m.order...)
	m.evict()
}

func (m *cacheModel) get(key string) ([]byte, bool, bool) {
	i := m.find(key)
	if i < 0 {
		return nil, false, false
	}
	e := m.order[i]
	m.toFront(i)
	return e.value, e.value == nil, true
}

func (m *cacheModel) settle(unpin []string, locs []keyLoc) {
	for _, kl := range locs {
		if i := m.find(string(kl.key)); i >= 0 {
			m.order[i].loc = kl.loc
		}
	}
	for _, k := range unpin {
		if i := m.find(k); i >= 0 && m.order[i].pending > 0 {
			m.order[i].pending--
		}
	}
	m.evict()
}

// TestCacheMatchesModel drives seeded random sequences of every cache
// operation against cacheModel, at capacities from 0 up, and after each
// step compares the values and tombstones gets return, which keys are
// present (so any divergence in LRU eviction order shows), each key's
// recorded location and the entry count. A pinned entry must be present
// whatever the capacity.
func TestCacheMatchesModel(t *testing.T) {
	const nkeys = 12
	keys := make([]string, nkeys)
	for i := range keys {
		keys[i] = fmt.Sprintf("k%02d", i)
	}
	for _, capacity := range []int{0, 1, 3, 8, 16} {
		for seed := int64(1); seed <= 4; seed++ {
			rng := rand.New(rand.NewSource(seed))
			c, m := newCache(capacity), &cacheModel{capacity: capacity}
			var pins []string // one per outstanding pinned put
			seq := uint64(1)
			for step := 0; step < 4000; step++ {
				key := keys[rng.Intn(nkeys)]
				var op string
				switch r := rng.Intn(100); {
				case r < 30:
					op = "put"
					var value []byte // nil: a delete's tombstone
					if rng.Intn(5) > 0 {
						value = []byte(fmt.Sprintf("v%d", step))
					}
					s := seq
					if rng.Intn(4) == 0 && seq > 3 {
						s -= uint64(rng.Intn(3)) // out of log order, or same index
					} else {
						seq++
					}
					pin := rng.Intn(2) == 0
					if pin {
						pins = append(pins, key)
					}
					c.put([]byte(key), value, pin, s)
					m.put(key, value, pin, s)
				case r < 50:
					op = "insertClean"
					value := []byte(fmt.Sprintf("clean%d", step))
					c.insertClean(key, value)
					m.insertClean(key, value)
				case r < 80:
					op = "get"
					gv, gt, gok := c.get(key)
					mv, mt, mok := m.get(key)
					if gok != mok || gt != mt || !bytes.Equal(gv, mv) {
						t.Fatalf("cap %d seed %d step %d: get(%s) = %q,%v,%v; model %q,%v,%v",
							capacity, seed, step, key, gv, gt, gok, mv, mt, mok)
					}
				default:
					op = "settle"
					var unpin []string
					for n := rng.Intn(3); n > 0 && len(pins) > 0; n-- {
						j := rng.Intn(len(pins))
						unpin = append(unpin, pins[j])
						pins = append(pins[:j], pins[j+1:]...)
					}
					if rng.Intn(4) == 0 {
						unpin = append(unpin, key) // maybe unpinned, maybe absent
					}
					var locs []keyLoc
					for n := rng.Intn(3); n > 0; n-- {
						locs = append(locs, keyLoc{key: []byte(keys[rng.Intn(nkeys)]), loc: location{blk: uint32(rng.Intn(4)), next: uint32(step)}})
					}
					c.settle(unpin, locs)
					m.settle(unpin, locs)
				}
				got := c.locate(keys, nil)
				for i, k := range keys {
					j := m.find(k)
					if c.has(k) != (j >= 0) {
						t.Fatalf("cap %d seed %d step %d (%s %s): present(%s) = %v, model %v",
							capacity, seed, step, op, key, k, c.has(k), j >= 0)
					}
					var want location
					if j >= 0 {
						want = m.order[j].loc
						if m.order[j].pending > 0 && !c.has(k) {
							t.Fatalf("cap %d seed %d step %d: pinned %s evicted", capacity, seed, step, k)
						}
					}
					if got[i] != want {
						t.Fatalf("cap %d seed %d step %d: locate(%s) = %+v, model %+v", capacity, seed, step, k, got[i], want)
					}
				}
				if c.len() != len(m.order) {
					t.Fatalf("cap %d seed %d step %d: len %d, model %d", capacity, seed, step, c.len(), len(m.order))
				}
			}
		}
	}
}
