package kv

import (
	"bytes"
	"errors"
	"fmt"
	"math/rand"
	"sync"
	"sync/atomic"
	"testing"

	"github.com/repro/sift/internal/memnode"
	"github.com/repro/sift/internal/rdma"
	"github.com/repro/sift/internal/repmem"
)

// testCfg is a small store configuration for unit tests.
func testCfg() Config {
	return Config{
		Capacity:      256,
		MaxKey:        16,
		MaxValue:      64,
		LoadFactor:    0.5,
		CacheFraction: 0.5,
		WALSlots:      32,
		ApplyShards:   2,
	}
}

type env struct {
	nw    *rdma.Network
	names []string
	mcfg  repmem.Config
	// wrap, when set, wraps every connection memory dials (see probe). It is
	// atomic because a crashed memory's background work may still redial
	// while a test swaps it; set it with setWrap.
	wrap atomic.Pointer[wrapFunc]
}

type wrapFunc func(node string, v rdma.Verbs) rdma.Verbs

// setWrap makes f (nil: none) wrap the connections memory dials from now on.
func (e *env) setWrap(f wrapFunc) {
	if f == nil {
		e.wrap.Store(nil)
	} else {
		e.wrap.Store(&f)
	}
}

// newKVEnv builds a 3-memory-node group sized for cfg, with optional EC.
func newKVEnv(t *testing.T, cfg Config, ec bool) *env {
	t.Helper()
	var mcfg repmem.Config
	if ec {
		mcfg.ECData = 2
		mcfg.ECParity = 1
		mcfg.ECBlockSize = ecAlign(cfg.BlockSize(), 2)
	} else {
		mcfg.IntegrityBlockSize = cfg.BlockSize()
	}
	mcfg.MemSize = cfg.RequiredMemSize(mcfg.WriteAlign())
	if ec && mcfg.MemSize%mcfg.ECBlockSize != 0 {
		mcfg.MemSize = (mcfg.MemSize/mcfg.ECBlockSize + 1) * mcfg.ECBlockSize
	}
	mcfg.DirectSize = cfg.RequiredDirectSize()

	nw := rdma.NewNetwork(nil)
	names := []string{"m0", "m1", "m2"}
	for _, n := range names {
		node, err := memnode.New(n, mcfg.Layout())
		if err != nil {
			t.Fatal(err)
		}
		nw.AddNode(node)
	}
	mcfg.MemoryNodes = names
	return &env{nw: nw, names: names, mcfg: mcfg}
}

// ecAlign rounds n up to a multiple of k.
func ecAlign(n, k int) int { return (n + k - 1) / k * k }

// memory dials a fresh replicated-memory handle as CPU node cpu.
func (e *env) memory(t *testing.T, cpu string) *repmem.Memory {
	t.Helper()
	cfg := e.mcfg
	cfg.Dial = func(node string) (rdma.Verbs, error) {
		v, err := e.nw.Dial(cpu, node, rdma.DialOpts{Exclusive: []rdma.RegionID{memnode.ReplRegionID}})
		w := e.wrap.Load()
		if err != nil || w == nil {
			return v, err
		}
		return (*w)(node, v), nil
	}
	m, err := repmem.New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if err := m.Recover(); err != nil {
		t.Fatal(err)
	}
	return m
}

func newStore(t *testing.T, e *env, cpu string, cfg Config) *Store {
	t.Helper()
	mem := e.memory(t, cpu)
	s, err := New(mem, cfg)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() {
		s.Close()
		mem.Close()
	})
	return s
}

func TestPutGetRoundTrip(t *testing.T) {
	cfg := testCfg()
	e := newKVEnv(t, cfg, false)
	s := newStore(t, e, "c", cfg)

	if err := s.Put([]byte("hello"), []byte("world")); err != nil {
		t.Fatal(err)
	}
	v, err := s.Get([]byte("hello"))
	if err != nil {
		t.Fatal(err)
	}
	if string(v) != "world" {
		t.Fatalf("got %q", v)
	}
}

func TestGetMissing(t *testing.T) {
	cfg := testCfg()
	e := newKVEnv(t, cfg, false)
	s := newStore(t, e, "c", cfg)
	if _, err := s.Get([]byte("ghost")); !errors.Is(err, ErrNotFound) {
		t.Fatalf("err = %v, want ErrNotFound", err)
	}
}

func TestPutOverwrite(t *testing.T) {
	cfg := testCfg()
	e := newKVEnv(t, cfg, false)
	s := newStore(t, e, "c", cfg)
	for i := 0; i < 5; i++ {
		if err := s.Put([]byte("k"), []byte(fmt.Sprintf("v%d", i))); err != nil {
			t.Fatal(err)
		}
	}
	v, err := s.Get([]byte("k"))
	if err != nil || string(v) != "v4" {
		t.Fatalf("got %q err=%v", v, err)
	}
}

func TestDelete(t *testing.T) {
	cfg := testCfg()
	e := newKVEnv(t, cfg, false)
	s := newStore(t, e, "c", cfg)
	s.Put([]byte("a"), []byte("1"))
	if err := s.Delete([]byte("a")); err != nil {
		t.Fatal(err)
	}
	if _, err := s.Get([]byte("a")); !errors.Is(err, ErrNotFound) {
		t.Fatalf("deleted key still present: %v", err)
	}
	// Deleting a missing key is fine.
	if err := s.Delete([]byte("never")); err != nil {
		t.Fatal(err)
	}
	// Re-insert after delete.
	if err := s.Put([]byte("a"), []byte("2")); err != nil {
		t.Fatal(err)
	}
	v, err := s.Get([]byte("a"))
	if err != nil || string(v) != "2" {
		t.Fatalf("got %q err=%v", v, err)
	}
}

func TestSizeLimits(t *testing.T) {
	cfg := testCfg()
	e := newKVEnv(t, cfg, false)
	s := newStore(t, e, "c", cfg)
	if err := s.Put(bytes.Repeat([]byte("k"), 17), []byte("v")); !errors.Is(err, ErrTooLarge) {
		t.Fatalf("oversized key: %v", err)
	}
	if err := s.Put([]byte("k"), bytes.Repeat([]byte("v"), 65)); !errors.Is(err, ErrTooLarge) {
		t.Fatalf("oversized value: %v", err)
	}
	if err := s.Put(nil, []byte("v")); !errors.Is(err, ErrTooLarge) {
		t.Fatalf("empty key: %v", err)
	}
	// Exactly max sizes are fine.
	if err := s.Put(bytes.Repeat([]byte("k"), 16), bytes.Repeat([]byte("v"), 64)); err != nil {
		t.Fatal(err)
	}
}

func TestStoreFull(t *testing.T) {
	cfg := testCfg()
	cfg.Capacity = 8
	cfg.WALSlots = 64
	e := newKVEnv(t, cfg, false)
	s := newStore(t, e, "c", cfg)
	for i := 0; i < 8; i++ {
		if err := s.Put([]byte(fmt.Sprintf("key%d", i)), []byte("v")); err != nil {
			t.Fatal(err)
		}
	}
	// Capacity reached: the 9th distinct key's apply fails internally, but
	// the commit succeeds (log-then-apply). Reads through the cache still
	// work; a full store is an operational limit, not a safety issue.
	// Verify allocator refuses directly:
	s.drain(t)
	if _, err := s.allocBlock(); !errors.Is(err, ErrFull) {
		t.Fatalf("alloc on full store: %v", err)
	}
	// Overwrites of existing keys still work.
	if err := s.Put([]byte("key3"), []byte("v2")); err != nil {
		t.Fatal(err)
	}
}

// drain waits for all background applies.
func (s *Store) drain(t *testing.T) {
	t.Helper()
	s.seqMu.Lock()
	for s.watermark+1 < s.nextIdx {
		s.seqCond.Wait()
	}
	s.seqMu.Unlock()
}

func TestManyKeysChaining(t *testing.T) {
	// Force heavy chaining with a tiny bucket count.
	cfg := testCfg()
	cfg.Capacity = 128
	cfg.LoadFactor = 16 // 8 buckets for 128 keys
	cfg.WALSlots = 256
	e := newKVEnv(t, cfg, false)
	s := newStore(t, e, "c", cfg)

	want := map[string]string{}
	for i := 0; i < 100; i++ {
		k, v := fmt.Sprintf("key-%03d", i), fmt.Sprintf("val-%03d", i)
		if err := s.Put([]byte(k), []byte(v)); err != nil {
			t.Fatal(err)
		}
		want[k] = v
	}
	// Delete a third of them.
	for i := 0; i < 100; i += 3 {
		k := fmt.Sprintf("key-%03d", i)
		if err := s.Delete([]byte(k)); err != nil {
			t.Fatal(err)
		}
		delete(want, k)
	}
	s.drain(t)
	for k, v := range want {
		got, err := s.Get([]byte(k))
		if err != nil {
			t.Fatalf("get %s: %v", k, err)
		}
		if string(got) != v {
			t.Fatalf("get %s = %q, want %q", k, got, v)
		}
	}
	for i := 0; i < 100; i += 3 {
		if _, err := s.Get([]byte(fmt.Sprintf("key-%03d", i))); !errors.Is(err, ErrNotFound) {
			t.Fatalf("deleted key %d present", i)
		}
	}
}

func TestCacheMissReadsFromMemory(t *testing.T) {
	cfg := testCfg()
	cfg.CacheFraction = 0 // no cache beyond pinned entries
	e := newKVEnv(t, cfg, false)
	s := newStore(t, e, "c", cfg)
	s.Put([]byte("k1"), []byte("v1"))
	s.drain(t)
	// With zero cache capacity the applied entry is evicted after unpin.
	v, err := s.Get([]byte("k1"))
	if err != nil || string(v) != "v1" {
		t.Fatalf("got %q err=%v", v, err)
	}
	if s.Stats().ChainReads == 0 {
		t.Fatal("expected a remote chain read")
	}
}

func TestCacheHitAvoidsRemoteRead(t *testing.T) {
	cfg := testCfg()
	e := newKVEnv(t, cfg, false)
	s := newStore(t, e, "c", cfg)
	s.Put([]byte("k1"), []byte("v1"))
	before := s.Stats().ChainReads
	for i := 0; i < 10; i++ {
		if _, err := s.Get([]byte("k1")); err != nil {
			t.Fatal(err)
		}
	}
	if got := s.Stats().ChainReads - before; got != 0 {
		t.Fatalf("cache hits issued %d chain reads", got)
	}
	if s.Stats().CacheHits < 10 {
		t.Fatalf("cache hits = %d", s.Stats().CacheHits)
	}
}

func TestConcurrentClients(t *testing.T) {
	cfg := testCfg()
	cfg.Capacity = 512
	cfg.WALSlots = 128
	cfg.LoadFactor = 0.5
	e := newKVEnv(t, cfg, false)
	s := newStore(t, e, "c", cfg)

	const workers = 8
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(w)))
			for i := 0; i < 60; i++ {
				k := []byte(fmt.Sprintf("w%d-k%d", w, rng.Intn(20)))
				switch rng.Intn(3) {
				case 0, 1:
					if err := s.Put(k, []byte(fmt.Sprintf("v%d", i))); err != nil {
						t.Errorf("put: %v", err)
						return
					}
				case 2:
					if _, err := s.Get(k); err != nil && !errors.Is(err, ErrNotFound) {
						t.Errorf("get: %v", err)
						return
					}
				}
			}
		}(w)
	}
	wg.Wait()
}

func TestPerKeyOrderingUnderConcurrency(t *testing.T) {
	// Hammer one key from many goroutines; after drain, the stored value
	// must equal the last committed put (commit order = log index order).
	cfg := testCfg()
	cfg.WALSlots = 256
	e := newKVEnv(t, cfg, false)
	s := newStore(t, e, "c", cfg)

	const writers = 8
	var mu sync.Mutex
	lastCommitted := ""
	var wg sync.WaitGroup
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < 25; i++ {
				v := fmt.Sprintf("w%d-%d", w, i)
				mu.Lock() // serialize commits so "last" is well-defined
				if err := s.Put([]byte("contested"), []byte(v)); err != nil {
					mu.Unlock()
					t.Errorf("put: %v", err)
					return
				}
				lastCommitted = v
				mu.Unlock()
			}
		}(w)
	}
	wg.Wait()
	s.drain(t)

	// Read through memory (bypass cache) to check the applied state.
	bucket := s.bucketOf([]byte("contested"))
	blk, _, err := s.findInChain(bucket, []byte("contested"))
	if err != nil || !blk.used {
		t.Fatalf("chain walk: blk=%v err=%v", blk, err)
	}
	if string(blk.value) != lastCommitted {
		t.Fatalf("applied %q, last committed %q", blk.value, lastCommitted)
	}
}

func TestLogWrapAroundKV(t *testing.T) {
	cfg := testCfg()
	cfg.WALSlots = 8
	e := newKVEnv(t, cfg, false)
	s := newStore(t, e, "c", cfg)
	for i := 0; i < 50; i++ {
		if err := s.Put([]byte(fmt.Sprintf("k%d", i%10)), []byte(fmt.Sprintf("v%d", i))); err != nil {
			t.Fatalf("put %d: %v", i, err)
		}
	}
	v, err := s.Get([]byte("k9"))
	if err != nil || string(v) != "v49" {
		t.Fatalf("got %q err=%v", v, err)
	}
}

func TestKVProcessRecovery(t *testing.T) {
	// Simulate the key-value process dying and restarting on a new CPU node:
	// a second Store is built over a fresh repmem connection and must see
	// every committed operation.
	cfg := testCfg()
	e := newKVEnv(t, cfg, false)
	s1 := newStore(t, e, "cpu1", cfg)

	want := map[string]string{}
	for i := 0; i < 40; i++ {
		k, v := fmt.Sprintf("key%d", i), fmt.Sprintf("val%d", i)
		if err := s1.Put([]byte(k), []byte(v)); err != nil {
			t.Fatal(err)
		}
		want[k] = v
	}
	for i := 0; i < 40; i += 4 {
		k := fmt.Sprintf("key%d", i)
		if err := s1.Delete([]byte(k)); err != nil {
			t.Fatal(err)
		}
		delete(want, k)
	}
	// s1 "dies" here: no Close, no drain — applies may be mid-flight. The
	// new store's repmem takeover fences s1's memory layer.

	s2 := newStore(t, e, "cpu2", cfg)
	for k, v := range want {
		got, err := s2.Get([]byte(k))
		if err != nil {
			t.Fatalf("get %s after recovery: %v", k, err)
		}
		if string(got) != v {
			t.Fatalf("get %s = %q, want %q", k, got, v)
		}
	}
	for i := 0; i < 40; i += 4 {
		if _, err := s2.Get([]byte(fmt.Sprintf("key%d", i))); !errors.Is(err, ErrNotFound) {
			t.Fatalf("deleted key%d resurrected: %v", i, err)
		}
	}
	// The recovered store keeps working.
	if err := s2.Put([]byte("post"), []byte("recovery")); err != nil {
		t.Fatal(err)
	}
	v, err := s2.Get([]byte("post"))
	if err != nil || string(v) != "recovery" {
		t.Fatalf("got %q err=%v", v, err)
	}
}

// TestKVRecoveryWarmCache: what a recovery replays — the puts the failed
// store had not applied — is in the successor's cache. (What it had applied
// is not: the tables hold it.)
func TestKVRecoveryWarmCache(t *testing.T) {
	cfg := testCfg()
	e := newKVEnv(t, cfg, false)
	s1 := newStore(t, e, "cpu1", cfg) // lends its memory and geometry; commits nothing itself
	for i := uint64(1); i <= 10; i++ {
		// Committed and never applied: the log is all a successor has of it.
		entry := entryFor(i, 0, record{op: opPut, key: []byte(fmt.Sprintf("k%d", i%10)), value: []byte("v")})
		slot := make([]byte, s1.kvGeo.SlotSize)
		if _, err := entry.Encode(slot); err != nil {
			t.Fatal(err)
		}
		if err := s1.mem.DirectWrite(s1.kvGeo.SlotOffset(i), slot); err != nil {
			t.Fatal(err)
		}
	}
	s2 := newStore(t, e, "cpu2", cfg)
	if s2.cache.len() == 0 {
		t.Fatal("cache not warmed during recovery")
	}
	before := s2.Stats().ChainReads
	if _, err := s2.Get([]byte("k5")); err != nil {
		t.Fatal(err)
	}
	if s2.Stats().ChainReads != before {
		t.Fatal("warm-cache get went remote")
	}
}

func TestKVWithErasureCoding(t *testing.T) {
	cfg := testCfg()
	e := newKVEnv(t, cfg, true)
	s := newStore(t, e, "c", cfg)
	want := map[string]string{}
	for i := 0; i < 50; i++ {
		k, v := fmt.Sprintf("eck%d", i), fmt.Sprintf("ecv%d", i)
		if err := s.Put([]byte(k), []byte(v)); err != nil {
			t.Fatal(err)
		}
		want[k] = v
	}
	s.drain(t)
	// Kill a data-chunk node: gets must decode.
	e.nw.Fabric().Kill(e.names[0])
	for k, v := range want {
		var got []byte
		var err error
		for attempt := 0; attempt < 3; attempt++ {
			if got, err = s.Get([]byte(k)); err == nil {
				break
			}
		}
		if err != nil || string(got) != v {
			t.Fatalf("get %s = %q err=%v", k, got, err)
		}
	}
}

func TestKVQuickMatchesModel(t *testing.T) {
	cfg := testCfg()
	cfg.Capacity = 64
	cfg.WALSlots = 64
	e := newKVEnv(t, cfg, false)
	s := newStore(t, e, "c", cfg)
	model := map[string]string{}
	rng := rand.New(rand.NewSource(99))
	keys := make([]string, 24)
	for i := range keys {
		keys[i] = fmt.Sprintf("qk%d", i)
	}
	for op := 0; op < 600; op++ {
		k := keys[rng.Intn(len(keys))]
		switch rng.Intn(4) {
		case 0, 1:
			v := fmt.Sprintf("val-%d", op)
			if err := s.Put([]byte(k), []byte(v)); err != nil {
				t.Fatal(err)
			}
			model[k] = v
		case 2:
			if err := s.Delete([]byte(k)); err != nil {
				t.Fatal(err)
			}
			delete(model, k)
		case 3:
			got, err := s.Get([]byte(k))
			want, exists := model[k]
			if exists {
				if err != nil || string(got) != want {
					t.Fatalf("op %d: get %s = %q/%v, want %q", op, k, got, err, want)
				}
			} else if !errors.Is(err, ErrNotFound) {
				t.Fatalf("op %d: get %s = %q/%v, want not-found", op, k, got, err)
			}
		}
	}
}

func TestConfigAccessors(t *testing.T) {
	cfg := DefaultConfig()
	if err := cfg.Validate(); err != nil {
		t.Fatal(err)
	}
	if cfg.Buckets() != 8_000_000 {
		t.Fatalf("Buckets = %d", cfg.Buckets())
	}
	if cfg.BlockSize() != 17+32+992 {
		t.Fatalf("BlockSize = %d", cfg.BlockSize())
	}
	if cfg.WALSlotSize()%64 != 0 {
		t.Fatal("slot size not aligned")
	}
	if cfg.BlocksBase(4096)%4096 != 0 {
		t.Fatal("BlocksBase not aligned")
	}
	bad := cfg
	bad.Capacity = 0
	if err := bad.Validate(); err == nil {
		t.Fatal("invalid config accepted")
	}
}
