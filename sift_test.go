package sift

import (
	"errors"
	"fmt"
	"sync"
	"testing"
	"time"
)

// smallConfig keeps in-process clusters light for tests.
func smallConfig() Config {
	return Config{
		F:                    1,
		Keys:                 512,
		MaxKeySize:           32,
		MaxValueSize:         128,
		KVWALSlots:           128,
		HeartbeatInterval:    2 * time.Millisecond,
		ReadInterval:         2 * time.Millisecond,
		NodeRecoveryInterval: 20 * time.Millisecond,
	}
}

func newTestCluster(t *testing.T, cfg Config) *Cluster {
	t.Helper()
	cl, err := NewCluster(cfg)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(cl.Close)
	return cl
}

func TestClusterPutGetDelete(t *testing.T) {
	cl := newTestCluster(t, smallConfig())
	c := cl.Client()
	if err := c.Put([]byte("k"), []byte("v")); err != nil {
		t.Fatal(err)
	}
	v, err := c.Get([]byte("k"))
	if err != nil || string(v) != "v" {
		t.Fatalf("got %q err=%v", v, err)
	}
	if err := c.Delete([]byte("k")); err != nil {
		t.Fatal(err)
	}
	if _, err := c.Get([]byte("k")); !errors.Is(err, ErrNotFound) {
		t.Fatalf("deleted key: %v", err)
	}
}

func TestZeroConfigCluster(t *testing.T) {
	cl, err := NewCluster(Config{
		HeartbeatInterval: 2 * time.Millisecond,
		ReadInterval:      2 * time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()
	c := cl.Client()
	if err := c.Put([]byte("zero"), []byte("config")); err != nil {
		t.Fatal(err)
	}
	v, err := c.Get([]byte("zero"))
	if err != nil || string(v) != "config" {
		t.Fatalf("got %q err=%v", v, err)
	}
}

func TestClusterCoordinatorFailover(t *testing.T) {
	cl := newTestCluster(t, smallConfig())
	c := cl.Client()
	for i := 0; i < 30; i++ {
		if err := c.Put([]byte(fmt.Sprintf("k%d", i)), []byte(fmt.Sprintf("v%d", i))); err != nil {
			t.Fatal(err)
		}
	}
	old := cl.KillCoordinator()
	if old == 0 {
		t.Fatal("no coordinator to kill")
	}
	// The client retries across the failover transparently.
	for i := 0; i < 30; i++ {
		v, err := c.Get([]byte(fmt.Sprintf("k%d", i)))
		if err != nil || string(v) != fmt.Sprintf("v%d", i) {
			t.Fatalf("k%d after failover: %q err=%v", i, v, err)
		}
	}
	if cl.Coordinator() == old {
		t.Fatal("old coordinator still listed")
	}
	// Writes work on the new coordinator.
	if err := c.Put([]byte("post"), []byte("failover")); err != nil {
		t.Fatal(err)
	}
	// A replacement CPU node can join for future failovers.
	cl.StartCPUNode(old)
}

func TestClusterMemoryNodeFailureAndRecovery(t *testing.T) {
	cl := newTestCluster(t, smallConfig())
	c := cl.Client()
	for i := 0; i < 20; i++ {
		c.Put([]byte(fmt.Sprintf("k%d", i)), []byte("v"))
	}
	victim := cl.MemoryNodes()[0]
	cl.KillMemoryNode(victim)
	// Cluster still serves with one memory node down.
	if err := c.Put([]byte("during"), []byte("failure")); err != nil {
		t.Fatal(err)
	}
	cl.RestartMemoryNode(victim)
	if err := cl.AwaitMemoryNodeRecovery(1, 5*time.Second); err != nil {
		t.Fatal(err)
	}
	v, err := c.Get([]byte("during"))
	if err != nil || string(v) != "failure" {
		t.Fatalf("got %q err=%v", v, err)
	}
}

func TestClusterErasureCoding(t *testing.T) {
	cfg := smallConfig()
	cfg.ErasureCoding = true
	cl := newTestCluster(t, cfg)
	c := cl.Client()
	for i := 0; i < 40; i++ {
		if err := c.Put([]byte(fmt.Sprintf("ec%d", i)), []byte(fmt.Sprintf("v%d", i))); err != nil {
			t.Fatal(err)
		}
	}
	// Kill one memory node: reads must decode from surviving chunks.
	cl.KillMemoryNode(cl.MemoryNodes()[0])
	for i := 0; i < 40; i++ {
		v, err := c.Get([]byte(fmt.Sprintf("ec%d", i)))
		if err != nil || string(v) != fmt.Sprintf("v%d", i) {
			t.Fatalf("ec%d: %q err=%v", i, v, err)
		}
	}
}

func TestClusterF2(t *testing.T) {
	cfg := smallConfig()
	cfg.F = 2
	cl := newTestCluster(t, cfg)
	if len(cl.MemoryNodes()) != 5 {
		t.Fatalf("memory nodes = %d", len(cl.MemoryNodes()))
	}
	c := cl.Client()
	c.Put([]byte("k"), []byte("v"))
	// Two memory failures tolerated.
	cl.KillMemoryNode(cl.MemoryNodes()[0])
	cl.KillMemoryNode(cl.MemoryNodes()[1])
	if err := c.Put([]byte("k2"), []byte("v2")); err != nil {
		t.Fatal(err)
	}
	v, err := c.Get([]byte("k"))
	if err != nil || string(v) != "v" {
		t.Fatalf("got %q err=%v", v, err)
	}
}

func TestClusterConcurrentClients(t *testing.T) {
	cl := newTestCluster(t, smallConfig())
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			c := cl.Client()
			for i := 0; i < 40; i++ {
				k := []byte(fmt.Sprintf("w%d-%d", w, i%10))
				if i%3 == 0 {
					if _, err := c.Get(k); err != nil && !errors.Is(err, ErrNotFound) {
						t.Errorf("get: %v", err)
						return
					}
				} else if err := c.Put(k, []byte("v")); err != nil {
					t.Errorf("put: %v", err)
					return
				}
			}
		}(w)
	}
	wg.Wait()
}

func TestClusterStats(t *testing.T) {
	cl := newTestCluster(t, smallConfig())
	c := cl.Client()
	c.Put([]byte("k"), []byte("v"))
	c.Get([]byte("k"))
	st := cl.Stats()
	if st.CoordinatorID == 0 {
		t.Fatal("no coordinator in stats")
	}
	if st.KV.Puts < 1 || st.KV.Gets < 1 {
		t.Fatalf("kv stats %+v", st.KV)
	}
	if st.Memory.DirectWrites < 1 {
		t.Fatalf("memory stats %+v", st.Memory)
	}
}

func TestClusterCloseIdempotent(t *testing.T) {
	cl := newTestCluster(t, smallConfig())
	cl.Close()
	cl.Close()
	// After close there is no coordinator; client ops fail cleanly.
	c := cl.Client()
	c.RetryBudget = 50 * time.Millisecond
	if err := c.Put([]byte("k"), []byte("v")); !errors.Is(err, ErrNoCoordinator) {
		t.Fatalf("put after close: %v", err)
	}
}

func TestConfigValidation(t *testing.T) {
	if err := (Config{F: 99}).Validate(); err == nil {
		t.Fatal("F=99 accepted")
	}
	if err := (Config{}).Validate(); err != nil {
		t.Fatalf("zero config rejected: %v", err)
	}
}

func TestClusterWithLatencyProfile(t *testing.T) {
	cfg := smallConfig()
	cfg.Latency = RDMALatency
	cfg.Keys = 128
	cl := newTestCluster(t, cfg)
	c := cl.Client()
	if err := c.Put([]byte("lat"), []byte("v")); err != nil {
		t.Fatal(err)
	}
	if _, err := c.Get([]byte("lat")); err != nil {
		t.Fatal(err)
	}
}

func TestClientPutBatch(t *testing.T) {
	cl := newTestCluster(t, smallConfig())
	c := cl.Client()
	if err := c.PutBatch([]Pair{
		{Key: []byte("acct-a"), Value: []byte("90")},
		{Key: []byte("acct-b"), Value: []byte("110")},
	}); err != nil {
		t.Fatal(err)
	}
	va, _ := c.Get([]byte("acct-a"))
	vb, _ := c.Get([]byte("acct-b"))
	if string(va) != "90" || string(vb) != "110" {
		t.Fatalf("batch values: %q %q", va, vb)
	}
	// Atomicity across failover: commit a batch, kill the coordinator, read
	// both halves from the successor.
	if err := c.PutBatch([]Pair{
		{Key: []byte("acct-a"), Value: []byte("50")},
		{Key: []byte("acct-b"), Value: []byte("150")},
	}); err != nil {
		t.Fatal(err)
	}
	cl.KillCoordinator()
	va, erra := c.Get([]byte("acct-a"))
	vb, errb := c.Get([]byte("acct-b"))
	if erra != nil || errb != nil || string(va) != "50" || string(vb) != "150" {
		t.Fatalf("after failover: %q/%v %q/%v", va, erra, vb, errb)
	}
}
