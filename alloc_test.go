package sift

import (
	"fmt"
	"runtime"
	"testing"
)

// putAllocBound is the most heap allocations one put may cost on a
// zero-delay in-process cluster, counting everything the process allocates
// while it runs: the commit, the apply, the node workers and the heartbeats.
// It is the measured cost, 1.1 to 1.5 on 2 vCPUs (the top of that with
// other packages' tests running beside it), plus a quarter. Before commit
// records, quorum fan-outs and slot buffers were pooled and log entries
// encoded in place, a put cost 13.1.
const putAllocBound = 2.0

// TestPutAllocationBound guards the allocation cost of the commit path: a
// client that records no history puts over a zero-delay in-process cluster,
// and runtime.MemStats.Mallocs per put must stay within putAllocBound.
func TestPutAllocationBound(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are not meaningful under the race detector")
	}
	// Default failure-detection intervals: the background allocates in
	// proportion to time, so slower puts pay more of it.
	cl := newTestCluster(t, Config{F: 1, Keys: 512, MaxKeySize: 32, MaxValueSize: 992, KVWALSlots: 128})
	c := cl.Client()
	value := make([]byte, 992)
	keys := make([][]byte, 256)
	for i := range keys {
		keys[i] = []byte(fmt.Sprintf("alloc%04d", i))
	}
	put := func(n int) {
		for i := 0; i < n; i++ {
			if err := c.Put(keys[i%len(keys)], value); err != nil {
				t.Fatal(err)
			}
		}
	}
	put(1000) // warm: every key written, pools and arenas grown
	const puts = 2000
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	put(puts)
	runtime.ReadMemStats(&after)
	per := float64(after.Mallocs-before.Mallocs) / puts
	t.Logf("%.2f allocations per put", per)
	if per > putAllocBound {
		t.Errorf("%.2f allocations per put, bound %.2f", per, putAllocBound)
	}
}

// getMissAllocBound is the most heap allocations one get that misses the
// coordinator cache may cost on a zero-delay in-process cluster, background
// included: the block buffer, the cache's copy of the value and its key
// string, plus what the client and the heartbeats add. It is the measured
// cost, 3.1 on 2 vCPUs, plus a quarter.
const getMissAllocBound = 4

// TestGetMissAllocationBound guards the allocation cost of a get served by
// one remote read: keys are read in a cycle over a key set sixteen times the
// cache, so under LRU every get misses, and runtime.MemStats.Mallocs per get
// must stay within getMissAllocBound.
func TestGetMissAllocationBound(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are not meaningful under the race detector")
	}
	cl := newTestCluster(t, Config{F: 1, Keys: 4096, CacheFraction: 1.0 / 16, MaxKeySize: 32, MaxValueSize: 992, KVWALSlots: 128})
	c := cl.Client()
	value := make([]byte, 992)
	keys := make([][]byte, 4096)
	for i := range keys {
		keys[i] = []byte(fmt.Sprintf("miss%04d", i))
		if err := c.Put(keys[i], value); err != nil {
			t.Fatal(err)
		}
	}
	get := func(n int) {
		for i := 0; i < n; i++ {
			if _, err := c.Get(keys[i%len(keys)]); err != nil {
				t.Fatal(err)
			}
		}
	}
	get(len(keys)) // warm: the cache cycles once, pools grown
	const gets = 8192
	missesBefore := cl.Stats().KV.CacheMisses
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	get(gets)
	runtime.ReadMemStats(&after)
	if misses := cl.Stats().KV.CacheMisses - missesBefore; misses != gets {
		t.Fatalf("%d of %d gets missed the cache; the bound is for misses", misses, gets)
	}
	per := float64(after.Mallocs-before.Mallocs) / gets
	t.Logf("%.2f allocations per get miss", per)
	if per > getMissAllocBound {
		t.Errorf("%.2f allocations per get miss, bound %d", per, getMissAllocBound)
	}
}
